#include "table/key_filter.h"

#include <cstdio>

#include "common/macros.h"
#include "hybrid/hybrid_grid.h"

namespace hef {

namespace {

using KeyFilterGrid = HybridGrid<KeyFilterKernel, /*MaxV=*/2, /*MaxS=*/4,
                                 /*MaxP=*/3>;

}  // namespace

KeyFilter::KeyFilter(std::uint64_t lo, std::uint64_t hi)
    : lo_(lo), span_(hi >= lo ? hi - lo + 1 : 0) {
  HEF_CHECK_MSG(span_ < (1ULL << 40), "key span %llu too large",
                static_cast<unsigned long long>(span_));
  // Words for bits [0, span] — the last one holds the guard bit.
  words_.Allocate(static_cast<std::size_t>((span_ >> 6) + 1),
                  /*padding_elems=*/8);
}

void KeyFilter::Insert(std::uint64_t key) {
  const std::uint64_t d = key - lo_;
  HEF_CHECK_MSG(d < span_, "key %llu outside the filter's span",
                static_cast<unsigned long long>(key));
  words_[d >> 6] |= 1ULL << (d & 63);
}

std::size_t KeyFilter::Popcount() const {
  std::size_t bits = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    bits += static_cast<std::size_t>(__builtin_popcountll(words_[w]));
  }
  return bits;
}

void KeyFilterArray(const HybridConfig& cfg, const KeyFilter& filter,
                    const std::uint64_t* keys, std::uint64_t* out,
                    std::size_t n) {
  KeyFilterKernel kernel;
  kernel.words = filter.words();
  kernel.lo = filter.lo();
  kernel.span = filter.span();
  KeyFilterGrid::Run(cfg, kernel, keys, out, n);
}

const std::vector<HybridConfig>& KeyFilterSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(KeyFilterGrid::Supported());
  return *configs;
}

std::string KeyFilterTemplateText(std::uint64_t span) {
  // d = min(key - lo, span) <= span, so the word index d >> 6 stays below
  // (span >> 6) + 1 — the word count KeyFilter allocates.
  const std::uint64_t words = (span >> 6) + 1;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "operator key_filter\n"
                "ptr bits [%llu]\n"
                "range IN 0..18446744073709551615\n"
                "range OUT 0..1\n"
                "const lo = 1\n"
                "const span = %llu\n"
                "const c63 = 63\n"
                "const one = 1\n"
                "var d\n"
                "var w\n"
                "var sh\n"
                "body:\n"
                "d = hi_load_epi64(IN)\n"
                "d = hi_sub_epi64(d, lo)\n"
                "d = hi_min_epu64(d, span)\n"
                "w = hi_srli_epi64(d, 6)\n"
                "w = hi_gather_epi64(bits, w)\n"
                "sh = hi_and_epi64(d, c63)\n"
                "w = hi_srlv_epi64(w, sh)\n"
                "w = hi_and_epi64(w, one)\n"
                "hi_store_epi64(OUT, w)\n",
                static_cast<unsigned long long>(words),
                static_cast<unsigned long long>(span));
  return buf;
}

}  // namespace hef
