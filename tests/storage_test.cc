// Unit tests for the chunked column storage layer: encoding round-trips,
// zone-map / histogram pruning semantics (including the boundary and null
// cases the engine's pruning pass relies on), the decode kernels across
// (v, s, p) coordinates, the late-materialising GatherDecode checked
// bit for bit against DecodeRange + gather, and the code-space key filter
// checked against decode-then-KeyFilter::Contains.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "hybrid/hybrid_config.h"
#include "storage/chunk.h"
#include "storage/chunked_column.h"
#include "storage/decode.h"
#include "storage/encoding.h"
#include "table/key_filter.h"

namespace hef::storage {
namespace {

std::vector<std::uint64_t> DecodeAll(const ChunkedColumn& col,
                                     const HybridConfig& cfg) {
  std::vector<std::uint64_t> out(col.size());
  DecodeScratch scratch;
  scratch.EnsureCapacity(col.size());
  col.DecodeRange(cfg, 0, col.size(), scratch, out.data());
  return out;
}

// ---------------------------------------------------------------------------
// PackBits / UnpackBitsArray

TEST(PackBitsTest, RoundTripsEveryWidth) {
  Rng rng(0xbeefULL);
  for (const std::uint8_t width : kPackedWidths) {
    if (width == 0) continue;
    const std::size_t n = 1000;  // not a multiple of values-per-word
    const std::uint64_t mask =
        width >= 64 ? ~0ULL : (1ULL << width) - 1;
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng.Next() & mask;
    AlignedBuffer<std::uint64_t> words(PackedWords(n, width), 8);
    PackBits(values.data(), n, width, words.data());

    DecodeScratch scratch;
    scratch.EnsureCapacity(n);
    std::vector<std::uint64_t> out(n);
    UnpackBitsArray(HybridConfig{1, 1, 2}, words.data(), width,
                    /*first=*/0, scratch.iota(), out.data(), n);
    EXPECT_EQ(values, out) << "width " << int(width);
  }
}

TEST(PackBitsTest, UnpackHonoursFirstOffset) {
  const std::uint8_t width = 8;
  const std::size_t n = 64;
  std::vector<std::uint64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = i * 3 % 251;
  AlignedBuffer<std::uint64_t> words(PackedWords(n, width), 8);
  PackBits(values.data(), n, width, words.data());

  DecodeScratch scratch;
  scratch.EnsureCapacity(n);
  std::vector<std::uint64_t> out(n - 13);
  UnpackBitsArray(HybridConfig{1, 0, 1}, words.data(), width,
                  /*first=*/13, scratch.iota(), out.data(), n - 13);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], values[13 + i]) << i;
  }
}

TEST(DecodeKernelsTest, AllSupportedConfigsAgree) {
  Rng rng(7);
  const std::size_t n = 777;
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.Next() & 0xffff;
  AlignedBuffer<std::uint64_t> words(PackedWords(n, 16), 8);
  PackBits(values.data(), n, 16, words.data());
  DecodeScratch scratch;
  scratch.EnsureCapacity(n);
  for (const HybridConfig& cfg : UnpackBitsSupportedConfigs()) {
    std::vector<std::uint64_t> out(n);
    UnpackBitsArray(cfg, words.data(), 16, 0, scratch.iota(), out.data(),
                    n);
    EXPECT_EQ(values, out) << cfg.ToString();
  }
  for (const HybridConfig& cfg : ForAddSupportedConfigs()) {
    std::vector<std::uint64_t> out(n);
    ForAddArray(cfg, 19920101, values.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], values[i] + 19920101) << cfg.ToString();
    }
  }
  std::vector<std::uint64_t> dict(256);
  for (std::size_t i = 0; i < dict.size(); ++i) dict[i] = i * i;
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.Next() % dict.size();
  for (const HybridConfig& cfg : DictGatherSupportedConfigs()) {
    std::vector<std::uint64_t> out(n);
    DictGatherArray(cfg, dict.data(), codes.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], dict[codes[i]]) << cfg.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// EncodeChunk

TEST(EncodeChunkTest, PolicyRoundTrips) {
  Rng rng(0x1234ULL);
  // Dict-friendly (few distinct), FoR-friendly (dense range off a big
  // base), and incompressible (full 64-bit spread) inputs.
  std::vector<std::vector<std::uint64_t>> inputs(3);
  for (std::size_t i = 0; i < 5000; ++i) {
    inputs[0].push_back(1101 + 100 * (rng.Next() % 40));
    inputs[1].push_back(19980101 + rng.Next() % 365);
    inputs[2].push_back(rng.Next());
  }
  for (const auto& values : inputs) {
    for (const EncodingPolicy policy :
         {EncodingPolicy::kAuto, EncodingPolicy::kPlain,
          EncodingPolicy::kDict, EncodingPolicy::kFor}) {
      const ChunkedColumn col = ChunkedColumn::Encode(
          values.data(), values.size(), /*chunk_rows=*/2048, policy);
      EXPECT_EQ(DecodeAll(col, HybridConfig{2, 1, 2}), values)
          << EncodingPolicyName(policy);
    }
  }
}

TEST(EncodeChunkTest, AutoPicksDictForFewDistinct) {
  std::vector<std::uint64_t> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1'000'000'000ULL * (i % 3);  // 3 distinct, huge range
  }
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kAuto);
  EXPECT_EQ(chunk.encoding, Encoding::kDict);
  EXPECT_EQ(chunk.dict.size(), 3u);
  // 3 codes fit in 2 bits.
  EXPECT_LE(chunk.width, 2);
}

TEST(EncodeChunkTest, AutoPicksForOnDenseRange) {
  std::vector<std::uint64_t> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 19940000 + (i * 37) % 10000;  // ~10k distinct, small span
  }
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kAuto);
  EXPECT_EQ(chunk.encoding, Encoding::kFor);
  EXPECT_LE(chunk.width, 16);
}

TEST(EncodeChunkTest, SingleValueChunkHasNoPayload) {
  std::vector<std::uint64_t> values(512, 42);
  for (const EncodingPolicy policy :
       {EncodingPolicy::kAuto, EncodingPolicy::kDict, EncodingPolicy::kFor}) {
    const ColumnChunk chunk =
        EncodeChunk(values.data(), values.size(), policy);
    EXPECT_EQ(chunk.width, 0) << EncodingPolicyName(policy);
    EXPECT_EQ(chunk.words.size(), 0u) << EncodingPolicyName(policy);
    const ChunkedColumn col = ChunkedColumn::Encode(
        values.data(), values.size(), values.size(), policy);
    EXPECT_EQ(DecodeAll(col, HybridConfig{1, 0, 1}), values);
  }
}

TEST(EncodeChunkTest, NullSentinelsRoundTripEveryPolicy) {
  Rng rng(99);
  std::vector<std::uint64_t> values(2048);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = (i % 7 == 0) ? kNullValue : 5000 + rng.Next() % 100;
  }
  for (const EncodingPolicy policy :
       {EncodingPolicy::kAuto, EncodingPolicy::kPlain, EncodingPolicy::kDict,
        EncodingPolicy::kFor}) {
    const ChunkedColumn col = ChunkedColumn::Encode(
        values.data(), values.size(), values.size(), policy);
    EXPECT_EQ(DecodeAll(col, HybridConfig{1, 1, 1}), values)
        << EncodingPolicyName(policy);
    const ColumnChunk& chunk = col.chunk(0);
    // Sentinels are metadata, not data: excluded from the zone span.
    EXPECT_EQ(chunk.zone.null_count, (values.size() + 6) / 7);
    EXPECT_GE(chunk.zone.min, 5000u);
    EXPECT_LT(chunk.zone.max, 5100u);
  }
}

// ---------------------------------------------------------------------------
// Zone map semantics

TEST(ZoneMapTest, BoundaryPredicatesAtExactMinMax) {
  ZoneMap zone;
  zone.Observe(100);
  zone.Observe(200);
  // Closed-interval semantics: predicates touching min or max exactly
  // must keep the chunk.
  EXPECT_TRUE(zone.MayContainRange(200, 300));   // lo == max
  EXPECT_TRUE(zone.MayContainRange(0, 100));     // hi == min
  EXPECT_TRUE(zone.MayContainRange(150, 150));   // interior point
  EXPECT_FALSE(zone.MayContainRange(201, 300));  // lo just past max
  EXPECT_FALSE(zone.MayContainRange(0, 99));     // hi just short of min
}

TEST(ZoneMapTest, AllNullChunkNeverMatchesFiniteRanges) {
  ZoneMap zone;
  zone.Observe(kNullValue);
  zone.Observe(kNullValue);
  EXPECT_TRUE(zone.all_null());
  EXPECT_FALSE(zone.null_free());
  EXPECT_FALSE(zone.MayContainRange(0, kNullValue - 1));
  // A predicate whose upper bound reaches the sentinel must match: the
  // engine compares sentinels as plain integers.
  EXPECT_TRUE(zone.MayContainRange(0, kNullValue));
}

TEST(ZoneMapTest, NullBearingChunkConservativeAtSentinel) {
  ZoneMap zone;
  zone.Observe(10);
  zone.Observe(kNullValue);
  EXPECT_FALSE(zone.MayContainRange(20, 30));
  EXPECT_TRUE(zone.MayContainRange(20, kNullValue));
}

TEST(ZoneMapTest, SingleValueChunkPrunesAroundThePoint) {
  ZoneMap zone;
  zone.Observe(777);
  EXPECT_TRUE(zone.MayContainRange(777, 777));
  EXPECT_FALSE(zone.MayContainRange(778, kNullValue - 1));
  EXPECT_FALSE(zone.MayContainRange(0, 776));
}

TEST(HistogramTest, RefinesZoneMapInEmptyGaps) {
  // Bimodal data: values at both ends of the span, nothing in the middle.
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(1000 + i);
    values.push_back(17000 + i);
  }
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kPlain);
  // The zone map alone cannot prune the gap; the histogram can.
  EXPECT_TRUE(chunk.zone.MayContainRange(8000, 9000));
  EXPECT_FALSE(chunk.MayContainRange(8000, 9000));
  EXPECT_TRUE(chunk.MayContainRange(1050, 1060));
  EXPECT_TRUE(chunk.MayContainRange(17000, 17001));
}

TEST(HistogramTest, ChunkBoundaryPredicates) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 500; v <= 1500; ++v) values.push_back(v);
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kAuto);
  EXPECT_TRUE(chunk.MayContainRange(1500, 2000));  // lo == chunk max
  EXPECT_TRUE(chunk.MayContainRange(0, 500));      // hi == chunk min
  EXPECT_FALSE(chunk.MayContainRange(1501, 2000));
  EXPECT_FALSE(chunk.MayContainRange(0, 499));
}

// ---------------------------------------------------------------------------
// ChunkedColumn

TEST(ChunkedColumnTest, DecodeRangeCrossesChunkBoundaries) {
  Rng rng(11);
  const std::size_t n = 10'000;
  const std::size_t chunk_rows = 1024;
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.Next() % 100'000;
  const ChunkedColumn col = ChunkedColumn::Encode(
      values.data(), n, chunk_rows, EncodingPolicy::kAuto);
  EXPECT_EQ(col.num_chunks(), (n + chunk_rows - 1) / chunk_rows);

  DecodeScratch scratch;
  const HybridConfig cfg{2, 1, 1};
  // Windows chosen to start/end mid-chunk and span several chunks.
  const struct { std::size_t begin, count; } windows[] = {
      {0, n}, {1000, 48}, {1020, 2060}, {9000, 1000}, {n - 1, 1}};
  for (const auto& w : windows) {
    scratch.EnsureCapacity(w.count);
    std::vector<std::uint64_t> out(w.count);
    col.DecodeRange(cfg, w.begin, w.count, scratch, out.data());
    for (std::size_t i = 0; i < w.count; ++i) {
      ASSERT_EQ(out[i], values[w.begin + i])
          << "begin " << w.begin << " i " << i;
    }
  }
}

TEST(ChunkedColumnTest, ShortLastChunkRoundTrips) {
  std::vector<std::uint64_t> values(1500);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i;
  const ChunkedColumn col = ChunkedColumn::Encode(
      values.data(), values.size(), 1024, EncodingPolicy::kAuto);
  EXPECT_EQ(col.num_chunks(), 2u);
  EXPECT_EQ(col.chunk(1).rows, 1500u - 1024u);
  EXPECT_EQ(DecodeAll(col, HybridConfig{1, 1, 3}), values);
}

TEST(ChunkedColumnTest, EncodedBytesBeatPlainOnCompressibleData) {
  std::vector<std::uint64_t> values(65536);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 19920101 + i % 2000;
  }
  const ChunkedColumn col = ChunkedColumn::Encode(
      values.data(), values.size(), 8192, EncodingPolicy::kAuto);
  EXPECT_LT(col.EncodedBytes(), col.PlainBytes() / 2);
}

// ---------------------------------------------------------------------------
// GatherDecode / DecodeBlock (late materialisation)

// One column per (encoding, packed width) the storage can produce: FoR at
// every width in kPackedWidths, dict at every width its 4096-entry cap
// allows, and plain. Three chunks of 8192 rows with a short last chunk.
struct EncodedCase {
  Encoding encoding;
  std::uint8_t width;
  std::vector<std::uint64_t> values;
  ChunkedColumn col;
};

constexpr std::size_t kGatherChunkRows = 8192;
constexpr std::size_t kGatherRows = 2 * kGatherChunkRows + 1500;
constexpr std::size_t kGatherBlock = 4096;

std::vector<EncodedCase> GatherCases() {
  std::vector<EncodedCase> cases;
  Rng rng(0x5eed);
  auto add = [&](Encoding encoding, std::uint8_t width, EncodingPolicy policy,
                 std::vector<std::uint64_t> values) {
    ChunkedColumn col = ChunkedColumn::Encode(values.data(), values.size(),
                                              kGatherChunkRows, policy);
    cases.push_back({encoding, width, std::move(values), std::move(col)});
  };
  for (const std::uint8_t width : kPackedWidths) {
    // FoR: deltas off a large base; every chunk spans its full width.
    const std::uint64_t span = width == 0 ? 0 : (1ULL << width) - 1;
    std::vector<std::uint64_t> values(kGatherRows);
    for (std::size_t i = 0; i < kGatherRows; ++i) {
      const std::uint64_t delta =
          i % kGatherChunkRows == 0 ? span : rng.Next() & span;
      values[i] = 19920101ULL + delta;
    }
    add(Encoding::kFor, width, EncodingPolicy::kFor, std::move(values));

    // Dict: 2^width distinct values (capped at the dictionary limit),
    // spread far apart so FoR would need the full 64 bits.
    const std::size_t distinct =
        std::min<std::size_t>(std::size_t{1} << width, kDictDistinctCap);
    if (PackedWidthFor(distinct - 1) != width) continue;
    std::vector<std::uint64_t> dvalues(kGatherRows);
    for (std::size_t i = 0; i < kGatherRows; ++i) {
      const std::uint64_t code =
          i % kGatherChunkRows < distinct ? i % kGatherChunkRows
                                          : rng.Next() % distinct;
      dvalues[i] = code * 0x9E3779B97F4A7C15ULL;
    }
    add(Encoding::kDict, width, EncodingPolicy::kDict, std::move(dvalues));
  }
  std::vector<std::uint64_t> plain(kGatherRows);
  for (auto& v : plain) v = rng.Next();
  add(Encoding::kPlain, 64, EncodingPolicy::kPlain, std::move(plain));
  return cases;
}

// The (v, s, p) points the three decode kernels share; GatherDecode runs
// all of its kernels at one point.
std::vector<HybridConfig> DecodeConfigsOfAllKernels() {
  std::vector<HybridConfig> configs = UnpackBitsSupportedConfigs();
  for (const auto* more :
       {&ForAddSupportedConfigs(), &DictGatherSupportedConfigs()}) {
    for (const HybridConfig& cfg : *more) {
      if (std::find(configs.begin(), configs.end(), cfg) == configs.end()) {
        configs.push_back(cfg);
      }
    }
  }
  return configs;
}

TEST(GatherDecodeTest, CasesCoverEveryEncodingAndWidth) {
  const std::vector<EncodedCase> cases = GatherCases();
  int for_widths = 0;
  int dict_widths = 0;
  for (const EncodedCase& c : cases) {
    for (std::size_t k = 0; k < c.col.num_chunks(); ++k) {
      ASSERT_EQ(c.col.chunk(k).encoding, c.encoding);
      if (c.encoding != Encoding::kPlain) {
        ASSERT_EQ(c.col.chunk(k).width, c.width)
            << EncodingName(c.encoding) << " chunk " << k;
      }
    }
    for_widths += c.encoding == Encoding::kFor;
    dict_widths += c.encoding == Encoding::kDict;
  }
  EXPECT_EQ(for_widths, static_cast<int>(kPackedWidths.size()));
  EXPECT_EQ(dict_widths, 6);  // 0..16: 32-bit codes exceed the dict cap
  ASSERT_EQ(cases.front().col.num_chunks(), 3u);
  EXPECT_EQ(cases.front().col.chunk(2).rows, 1500u);
}

TEST(GatherDecodeTest, MatchesDecodeRangeThenGather) {
  const std::vector<EncodedCase> cases = GatherCases();
  const std::vector<HybridConfig> configs = DecodeConfigsOfAllKernels();
  ASSERT_FALSE(configs.empty());
  // Blocks at a chunk start, at a non-zero offset inside a chunk, and the
  // whole short last chunk.
  const struct { std::size_t begin, rows; } blocks[] = {
      {0, kGatherBlock},
      {kGatherChunkRows + kGatherBlock, kGatherBlock},
      {2 * kGatherChunkRows, 1500}};
  Rng rng(42);
  DecodeScratch scratch;
  for (const auto& block : blocks) {
    // Selections: empty, one row (the last), every row, and a sorted
    // ~10% sample.
    std::vector<std::vector<std::uint64_t>> selections(4);
    selections[1].push_back(block.rows - 1);
    for (std::size_t i = 0; i < block.rows; ++i) {
      selections[2].push_back(i);
      if (rng.Next() % 10 == 0) selections[3].push_back(i);
    }
    for (const EncodedCase& c : cases) {
      for (const HybridConfig& cfg : configs) {
        std::vector<std::uint64_t> full(block.rows);
        scratch.EnsureCapacity(block.rows);
        c.col.DecodeRange(cfg, block.begin, block.rows, scratch,
                          full.data());
        for (const auto& sel : selections) {
          std::vector<std::uint64_t> got(sel.size() + 1, 0xdeadULL);
          c.col.GatherDecode(cfg, block.begin, sel.data(), sel.size(),
                             scratch, got.data());
          for (std::size_t i = 0; i < sel.size(); ++i) {
            ASSERT_EQ(got[i], full[sel[i]])
                << EncodingName(c.encoding) << " width " << int(c.width)
                << " " << cfg.ToString() << " block " << block.begin
                << " pos " << sel[i];
            ASSERT_EQ(got[i], c.values[block.begin + sel[i]]);
          }
          // Nothing written past the n-th value.
          ASSERT_EQ(got[sel.size()], 0xdeadULL);
        }
      }
    }
  }
}

TEST(GatherDecodeTest, DecodeBlockHandsOutPlainPayloadWithoutCopy) {
  for (const EncodedCase& c : GatherCases()) {
    DecodeScratch scratch;
    std::vector<std::uint64_t> out(kGatherBlock);
    const std::size_t begin = kGatherChunkRows + kGatherBlock;
    const std::uint64_t* got = c.col.DecodeBlock(
        HybridConfig{1, 1, 3}, begin, kGatherBlock, scratch, out.data());
    if (c.encoding == Encoding::kPlain) {
      EXPECT_EQ(got, c.col.chunk(1).words.data() + kGatherBlock);
    } else {
      EXPECT_EQ(got, out.data());
    }
    for (std::size_t i = 0; i < kGatherBlock; ++i) {
      ASSERT_EQ(got[i], c.values[begin + i])
          << EncodingName(c.encoding) << " width " << int(c.width);
    }
  }
}

// ---------------------------------------------------------------------------
// FilterBlockCodes (code-space key filter)

// Only FoR chunks of width 0, 8, 16 and 32 filter in code space; every
// other encoding and width falls back to decode-then-filter.
TEST(CodeFilterTest, CodePathExactlyForFoRAtByteWidths) {
  int code_paths = 0;
  for (const EncodedCase& c : GatherCases()) {
    const bool want = c.encoding == Encoding::kFor &&
                      (c.width == 0 || c.width == 8 || c.width == 16 ||
                       c.width == 32);
    for (std::size_t row = 0; row < c.col.size(); row += kGatherChunkRows) {
      EXPECT_EQ(c.col.HasCodeFilter(row), want)
          << EncodingName(c.encoding) << " width " << int(c.width);
    }
    code_paths += want;
  }
  EXPECT_EQ(code_paths, 4);
}

// A key filter over [lo, hi] holding lo, hi and about half the keys
// between.
KeyFilter MakeFilter(std::uint64_t lo, std::uint64_t hi, Rng& rng) {
  KeyFilter filter(lo, hi);
  filter.Insert(lo);
  filter.Insert(hi);
  for (std::uint64_t k = lo + 1; k < hi; ++k) {
    if (rng.Next() % 2 == 0) filter.Insert(k);
  }
  return filter;
}

// Every width the code path reads, every compiled (v, s, p) point, and
// filters placed so that lo - reference is positive (A, D), wraps below
// zero (B), or leaves every code outside the span (C): each row's flag
// must equal KeyFilter::Contains on its decoded value. The columns hold
// every filter's lo, hi and guard key (hi + 1), so the span edges and
// the guard bit are tested in every block.
TEST(CodeFilterTest, MatchesDecodeThenContainsEveryWidthAndConfig) {
  constexpr std::uint64_t kBase = 19920101;
  for (const std::uint8_t width : {8, 16, 32}) {
    SCOPED_TRACE(::testing::Message() << "width " << int(width));
    Rng rng(width);
    const std::uint64_t max = kBase + (1ULL << width) - 1;
    const std::uint64_t mid = kBase + (1ULL << (width - 1));
    std::vector<KeyFilter> filters;
    filters.push_back(MakeFilter(mid - 40, mid + 59, rng));        // A
    filters.push_back(MakeFilter(kBase - 50, kBase + 49, rng));    // B
    filters.push_back(MakeFilter(max + 1, max + 100, rng));        // C
    filters.push_back(MakeFilter(max - 30, max - 1, rng));         // D
    // Keys worth testing: each filter's edges and guard key, where the
    // chunk's frame can hold them, then random keys inside the spans.
    std::vector<std::uint64_t> edges;
    for (const KeyFilter& f : filters) {
      const std::uint64_t lo = f.lo();
      const std::uint64_t hi = f.lo() + f.span() - 1;
      for (const std::uint64_t k : {lo - 1, lo, lo + 1, hi - 1, hi, hi + 1}) {
        if (k >= kBase && k <= max) edges.push_back(k);
      }
    }
    std::vector<std::uint64_t> values(kGatherRows);
    for (std::size_t i = 0; i < kGatherRows; ++i) {
      const std::size_t r = i % kGatherChunkRows;
      if (r == 0) {
        values[i] = kBase;  // every chunk's reference...
      } else if (r == 1) {
        values[i] = max;    // ...and full code width
      } else if (rng.Next() % 4 == 0) {
        values[i] = edges[rng.Next() % edges.size()];
      } else if (rng.Next() % 2 == 0) {
        const KeyFilter& f = filters[rng.Next() % 2 == 0 ? 0 : 1];
        values[i] = std::max(kBase, f.lo() + rng.Next() % f.span());
      } else {
        values[i] = kBase + (rng.Next() & ((1ULL << width) - 1));
      }
    }
    const ChunkedColumn col = ChunkedColumn::Encode(
        values.data(), values.size(), kGatherChunkRows, EncodingPolicy::kFor);
    ASSERT_EQ(col.num_chunks(), 3u);
    for (std::size_t k = 0; k < col.num_chunks(); ++k) {
      ASSERT_EQ(col.chunk(k).width, width);
      ASSERT_EQ(col.chunk(k).reference, kBase);
    }
    // A chunk-start block, a block at an odd offset inside a chunk (an
    // unaligned code address), and the whole short last chunk.
    const struct { std::size_t begin, rows; } blocks[] = {
        {0, kGatherBlock},
        {kGatherChunkRows + 13, 1001},
        {2 * kGatherChunkRows, 1500}};
    for (const auto& block : blocks) {
      for (const KeyFilter& f : filters) {
        std::vector<std::uint64_t> want(block.rows);
        std::uint64_t passed = 0;
        for (std::size_t i = 0; i < block.rows; ++i) {
          want[i] = f.Contains(values[block.begin + i]) ? 1 : 0;
          passed += want[i];
        }
        // A and B must pass some keys and reject others; C none.
        if (f.lo() <= max) {
          ASSERT_GT(passed, 0u) << "filter lo " << f.lo();
          ASSERT_LT(passed, block.rows) << "filter lo " << f.lo();
        } else {
          ASSERT_EQ(passed, 0u);
        }
        for (const HybridConfig& cfg : CodeKeyFilterSupportedConfigs()) {
          std::vector<std::uint64_t> flags(block.rows + 1, 0xdeadULL);
          ASSERT_EQ(col.FilterBlockCodes(cfg, block.begin, block.rows, f,
                                         flags.data()),
                    ChunkedColumn::CodeFilter::kPerRow);
          for (std::size_t i = 0; i < block.rows; ++i) {
            ASSERT_EQ(flags[i], want[i])
                << cfg.ToString() << " block " << block.begin << " row "
                << i << " value " << values[block.begin + i]
                << " filter lo " << f.lo();
          }
          ASSERT_EQ(flags[block.rows], 0xdeadULL) << cfg.ToString();
        }
      }
    }
  }
}

// A single-value chunk answers the whole block with one test.
TEST(CodeFilterTest, SingleValueChunkAnswersWholeBlock) {
  const std::vector<std::uint64_t> values(kGatherChunkRows + 100, 500);
  const ChunkedColumn col = ChunkedColumn::Encode(
      values.data(), values.size(), kGatherChunkRows, EncodingPolicy::kFor);
  ASSERT_EQ(col.chunk(1).width, 0);
  ASSERT_TRUE(col.HasCodeFilter(kGatherChunkRows));
  KeyFilter holds(400, 600);
  holds.Insert(500);
  KeyFilter misses(400, 600);
  misses.Insert(499);
  misses.Insert(501);
  const KeyFilter below(501, 600);
  std::vector<std::uint64_t> flags(kGatherBlock, 0xdeadULL);
  const HybridConfig cfg{1, 1, 1};
  using CodeFilter = ChunkedColumn::CodeFilter;
  EXPECT_EQ(col.FilterBlockCodes(cfg, 0, kGatherBlock, holds, flags.data()),
            CodeFilter::kAll);
  EXPECT_EQ(col.FilterBlockCodes(cfg, kGatherChunkRows, 100, misses,
                                 flags.data()),
            CodeFilter::kNone);
  EXPECT_EQ(col.FilterBlockCodes(cfg, 0, kGatherBlock, below, flags.data()),
            CodeFilter::kNone);
  // The verdict needs no flags.
  EXPECT_EQ(flags[0], 0xdeadULL);
}

TEST(DecodeScratchTest, GrowsAndKeepsIota) {
  DecodeScratch scratch;
  scratch.EnsureCapacity(100);
  ASSERT_GE(scratch.capacity(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(scratch.iota()[i], i);
  const std::size_t before = scratch.capacity();
  scratch.EnsureCapacity(10);  // never shrinks
  EXPECT_EQ(scratch.capacity(), before);
  scratch.EnsureCapacity(5000);
  ASSERT_GE(scratch.capacity(), 5000u);
  for (std::size_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(scratch.iota()[i], i);
  }
}

}  // namespace
}  // namespace hef::storage
