// Unit tests for hef/common: Status/Result, FlagParser, AlignedBuffer, Rng,
// TextTable.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/text_table.h"

namespace hef {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad flag");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad flag");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad flag");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kUnsupported,
        StatusCode::kIoError, StatusCode::kInternal, StatusCode::kCancelled,
        StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, HttpMappingCoversServingCodes) {
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kUnavailable), 503);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kCancelled), 499);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInternal), 500);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status Half(int x, int* out) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  *out = x / 2;
  return Status::OK();
}

Status UseReturnNotOk(int x, int* out) {
  HEF_RETURN_NOT_OK(Half(x, out));
  *out += 1;
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  int out = 0;
  EXPECT_TRUE(UseReturnNotOk(4, &out).ok());
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(UseReturnNotOk(5, &out).ok());
}

TEST(FlagParserTest, ParsesAllForms) {
  FlagParser flags;
  flags.AddInt64("sf", 1, "scale factor");
  flags.AddString("query", "2.1", "query id");
  flags.AddBool("csv", false, "csv output");
  flags.AddDouble("ratio", 0.5, "a ratio");

  const char* argv[] = {"prog",       "--sf=4",      "--query", "3.3",
                        "--csv",      "--ratio=2.5", "positional"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt64("sf"), 4);
  EXPECT_EQ(flags.GetString("query"), "3.3");
  EXPECT_TRUE(flags.GetBool("csv"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 2.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  FlagParser flags;
  flags.AddInt64("sf", 1, "scale factor");
  const char* argv[] = {"prog", "--unknown=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagParserTest, RejectsMalformedValue) {
  FlagParser flags;
  flags.AddInt64("sf", 1, "scale factor");
  const char* argv[] = {"prog", "--sf=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagParserTest, HelpShortCircuits) {
  FlagParser flags;
  flags.AddInt64("sf", 1, "scale factor");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.HelpRequested());
}

TEST(FlagParserTest, DefaultsSurviveEmptyParse) {
  FlagParser flags;
  flags.AddInt64("sf", 7, "scale factor");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt64("sf"), 7);
}

TEST(AlignedBufferTest, AlignmentAndZeroing) {
  AlignedBuffer<std::uint64_t> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 1000u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], 0u);
  }
}

TEST(AlignedBufferTest, PaddingGrantsOverread) {
  AlignedBuffer<std::uint64_t> buf(3, /*padding_elems=*/8);
  EXPECT_GE(buf.capacity(), 11u);
  // Writing into the padding region must be in-bounds of the allocation.
  buf.data()[10] = 42;
  EXPECT_EQ(buf.data()[10], 42u);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer<int> a(16);
  a[3] = 9;
  int* p = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[3], 9);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBufferTest, ZeroSizeStillUsable) {
  AlignedBuffer<std::uint64_t> buf(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_NE(buf.data(), nullptr);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.Uniform(5, 15);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 15u);
    seen.insert(v);
  }
  // All 11 values should appear over 10k draws.
  EXPECT_EQ(seen.size(), 11u);
}

TEST(RngTest, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.Uniform(9, 9), 9u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 10;
  int counts[kBuckets] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.Uniform(0, kBuckets - 1)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.ElapsedNanos(), 0u);
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t;
  t.AddRow({"Query", "Time (ms)"});
  t.AddRow({"Q2.1", "123.45"});
  t.AddRow({"Q3.3", "7.00"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("Query"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_NE(s.find("123.45"), std::string::npos);
}

TEST(TextTableTest, CsvOutput) {
  TextTable t;
  t.AddRow({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TextTableTest, NumFormatsDigits) {
  EXPECT_EQ(TextTable::Num(1.2345, 2), "1.23");
  EXPECT_EQ(TextTable::Num(10, 0), "10");
}

}  // namespace
}  // namespace hef
