#include "table/key_filter.h"

#include <cstdio>

#include "common/macros.h"
#include "hybrid/hybrid_grid.h"

namespace hef {

namespace {

using KeyFilterGrid = HybridGrid<KeyFilterKernel, /*MaxV=*/2, /*MaxS=*/4,
                                 /*MaxP=*/3>;
template <typename Code>
using CodeKeyFilterGrid = HybridGrid<CodeKeyFilterKernel<Code>, /*MaxV=*/2,
                                     /*MaxS=*/4, /*MaxP=*/3>;

KeyFilterKernel MakeKernel(const KeyFilter& filter) {
  KeyFilterKernel kernel;
  kernel.words = filter.words();
  kernel.lo = filter.lo();
  kernel.span = filter.span();
  return kernel;
}

template <typename Code>
void RunCodeKernel(const HybridConfig& cfg, const KeyFilterKernel& base,
                   const std::uint64_t* packed, std::size_t first,
                   std::uint64_t* out, std::size_t n) {
  CodeKeyFilterKernel<Code> kernel;
  static_cast<KeyFilterKernel&>(kernel) = base;
  CodeKeyFilterGrid<Code>::Run(
      cfg, kernel, reinterpret_cast<const Code*>(packed) + first, out, n);
}

// The template text shared by both kernels: `load` reads IN (declared
// 0..in_hi), then subtract, clamp onto the guard bit, word gather, bit
// test. d = min(key - lo, span) <= span, so the word index d >> 6 stays
// below (span >> 6) + 1 — the word count KeyFilter allocates.
std::string FilterTemplateText(const char* name, const char* load,
                               std::uint64_t in_hi, std::uint64_t span) {
  const std::uint64_t words = (span >> 6) + 1;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "operator %s\n"
                "ptr bits [%llu]\n"
                "range IN 0..%llu\n"
                "range OUT 0..1\n"
                "const lo = 1\n"
                "const span = %llu\n"
                "const c63 = 63\n"
                "const one = 1\n"
                "var d\n"
                "var w\n"
                "var sh\n"
                "body:\n"
                "d = %s(IN)\n"
                "d = hi_sub_epi64(d, lo)\n"
                "d = hi_min_epu64(d, span)\n"
                "w = hi_srli_epi64(d, 6)\n"
                "w = hi_gather_epi64(bits, w)\n"
                "sh = hi_and_epi64(d, c63)\n"
                "w = hi_srlv_epi64(w, sh)\n"
                "w = hi_and_epi64(w, one)\n"
                "hi_store_epi64(OUT, w)\n",
                name, static_cast<unsigned long long>(words),
                static_cast<unsigned long long>(in_hi),
                static_cast<unsigned long long>(span), load);
  return buf;
}

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
  KeyFilterGrid::Run(cfg, MakeKernel(filter), keys, out, n);
}

void CodeKeyFilterArray(const HybridConfig& cfg, const KeyFilter& filter,
                        std::uint64_t reference, const std::uint64_t* packed,
                        std::uint8_t width, std::size_t first,
                        std::uint64_t* out, std::size_t n) {
  KeyFilterKernel kernel = MakeKernel(filter);
  kernel.lo = filter.lo() - reference;  // wraps when reference > lo
  switch (width) {
    case 8:
      RunCodeKernel<std::uint8_t>(cfg, kernel, packed, first, out, n);
      return;
    case 16:
      RunCodeKernel<std::uint16_t>(cfg, kernel, packed, first, out, n);
      return;
    case 32:
      RunCodeKernel<std::uint32_t>(cfg, kernel, packed, first, out, n);
      return;
    default:
      HEF_CHECK_MSG(false, "code key filter: width %u has no widening load",
                    static_cast<unsigned>(width));
  }
}

const std::vector<HybridConfig>& KeyFilterSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(KeyFilterGrid::Supported());
  return *configs;
}

const std::vector<HybridConfig>& CodeKeyFilterSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(
          CodeKeyFilterGrid<std::uint16_t>::Supported());
  return *configs;
}

std::string KeyFilterTemplateText(std::uint64_t span) {
  return FilterTemplateText("key_filter", "hi_load_epi64", ~0ULL, span);
}

std::string CodeKeyFilterTemplateText(std::uint8_t width,
                                      std::uint64_t span) {
  HEF_CHECK_MSG(width == 8 || width == 16 || width == 32,
                "code key filter: width %u has no widening load",
                static_cast<unsigned>(width));
  char load[16];
  std::snprintf(load, sizeof(load), "hi_load_epu%u",
                static_cast<unsigned>(width));
  // lo stands for the rebased lo - reference, any 64-bit value at run
  // time; 1 makes code 0 wrap, the case the clamp exists for.
  return FilterTemplateText("code_key_filter", load, (1ULL << width) - 1,
                            span);
}

}  // namespace hef
