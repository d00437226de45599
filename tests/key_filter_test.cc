// Tests for the exact key-domain semi-join filter (table/key_filter.h):
// the kernel at every compiled (v, s, p) point against a scalar
// reference, the span edges (below lo, lo, hi, above hi, ~0), and empty,
// single-key and full-span filters.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "table/key_filter.h"

namespace hef {
namespace {

// The scalar reference: plain set membership.
std::vector<std::uint64_t> Reference(const std::set<std::uint64_t>& keys,
                                     const std::vector<std::uint64_t>& in) {
  std::vector<std::uint64_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = keys.count(in[i]) != 0 ? 1 : 0;
  }
  return out;
}

// Probe keys around a filter over [lo, hi]: every edge, then random keys
// spread over and beyond the span. The count is deliberately not a
// multiple of any chunk width so every config runs its scalar tail.
std::vector<std::uint64_t> ProbeKeys(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> in = {0,        1,          lo - 1,  lo,
                                   lo + 1,   hi - 1,     hi,      hi + 1,
                                   hi + 64,  hi + 65,    ~0ULL,   ~0ULL - 1,
                                   lo - 64,  1ULL << 63, hi * 2,  lo + 63};
  Rng rng(99);
  const std::uint64_t width = hi - lo + 1;
  while (in.size() < 1037) {
    const std::uint64_t r = rng.Next() % (3 * width);
    in.push_back(lo + r - width);  // wraps below lo for r < width
  }
  return in;
}

class KeyFilterConfigTest : public ::testing::TestWithParam<HybridConfig> {};

TEST_P(KeyFilterConfigTest, MatchesScalarReference) {
  const HybridConfig cfg = GetParam();
  const std::uint64_t lo = 19920101;
  const std::uint64_t hi = lo + 5000;
  KeyFilter filter(lo, hi);
  std::set<std::uint64_t> keys = {lo, hi};
  Rng rng(7);
  for (int i = 0; i < 800; ++i) keys.insert(lo + rng.Next() % 5001);
  for (const std::uint64_t k : keys) filter.Insert(k);
  ASSERT_EQ(filter.Popcount(), keys.size());

  const std::vector<std::uint64_t> in = ProbeKeys(lo, hi);
  std::vector<std::uint64_t> out(in.size(), 7);
  KeyFilterArray(cfg, filter, in.data(), out.data(), in.size());
  const std::vector<std::uint64_t> want = Reference(keys, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << cfg.ToString() << " key " << in[i];
    ASSERT_EQ(filter.Contains(in[i]), want[i] == 1) << "key " << in[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, KeyFilterConfigTest,
    ::testing::ValuesIn(KeyFilterSupportedConfigs()),
    [](const ::testing::TestParamInfo<HybridConfig>& info) {
      return info.param.ToString();
    });

// Every key of `in` through every compiled point, against `want`.
void ExpectAllConfigs(const KeyFilter& filter,
                      const std::vector<std::uint64_t>& in,
                      const std::vector<std::uint64_t>& want) {
  std::vector<std::uint64_t> out(in.size());
  for (const HybridConfig& cfg : KeyFilterSupportedConfigs()) {
    KeyFilterArray(cfg, filter, in.data(), out.data(), in.size());
    EXPECT_EQ(out, want) << cfg.ToString();
  }
}

TEST(KeyFilterTest, GridCoversEveryProbePoint) {
  // The filter runs at its join's probe point, so it must compile every
  // point the probe grid offers: 2 vector x 4 scalar x 3 pack.
  EXPECT_EQ(KeyFilterSupportedConfigs().size(), 42u);
}

TEST(KeyFilterTest, EmptyFilterRejectsEveryKey) {
  const KeyFilter filter(/*lo=*/~0ULL, /*hi=*/0);  // an empty table
  EXPECT_EQ(filter.span(), 0u);
  EXPECT_EQ(filter.Popcount(), 0u);
  const std::vector<std::uint64_t> in = {0, 1, 2, 63, 64, 1ULL << 40,
                                         ~0ULL - 1, ~0ULL, 12345};
  ExpectAllConfigs(filter, in, std::vector<std::uint64_t>(in.size(), 0));
}

TEST(KeyFilterTest, SingleKeyFilterAcceptsOnlyThatKey) {
  const std::uint64_t key = 4242;
  KeyFilter filter(key, key);
  filter.Insert(key);
  EXPECT_EQ(filter.span(), 1u);
  EXPECT_EQ(filter.Popcount(), 1u);
  const std::vector<std::uint64_t> in = ProbeKeys(key, key);
  ExpectAllConfigs(filter, in, Reference({key}, in));
}

TEST(KeyFilterTest, FullSpanFilterAcceptsExactlyTheSpan) {
  // Every key of [lo, hi] present, the span ending exactly on a word
  // boundary so the guard bit opens a word of its own.
  const std::uint64_t lo = 1;
  const std::uint64_t hi = 128;
  KeyFilter filter(lo, hi);
  std::set<std::uint64_t> keys;
  for (std::uint64_t k = lo; k <= hi; ++k) {
    filter.Insert(k);
    keys.insert(k);
  }
  EXPECT_EQ(filter.Popcount(), 128u);
  EXPECT_EQ(filter.word_count(), 3u);  // 128 bits + the guard word
  const std::vector<std::uint64_t> in = ProbeKeys(lo, hi);
  ExpectAllConfigs(filter, in, Reference(keys, in));
}

TEST(KeyFilterTest, TemplateDeclaresTheAllocatedWords) {
  // The prover's `ptr bits` extent is the word count the filter
  // allocates for the same span, guard word included.
  for (const std::uint64_t span : {1ULL, 63ULL, 64ULL, 6000ULL}) {
    const KeyFilter filter(1, span);
    const std::string text = KeyFilterTemplateText(span);
    EXPECT_NE(text.find("ptr bits [" + std::to_string(filter.word_count()) +
                        "]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("range IN 0..18446744073709551615"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace hef
