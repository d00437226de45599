// Exact key-domain semi-join filter: a membership bitmap over a dense key
// span [lo, lo + span), with scalar / SIMD / hybrid test kernels.
//
// SSB dimension keys are dense surrogates, so a filtered dimension table's
// keys fit a small bitmap over [key_lo, key_hi]. Testing a fact key is one
// subtract, one clamp, one word gather and a shift-and-mask — an order of
// magnitude cheaper than the Murmur chain plus bucket gathers of a hash
// probe miss, and, unlike a Bloom filter, exact: every key it passes hits
// the hash table. The star pipeline runs it before each selective join so
// the hash probe only sees keys that match.
//
// Out-of-span keys (below lo, above the span, ~0ULL) clamp onto bit
// `span`, a guard bit that is never set, so the kernel needs no branch and
// no bounds check. The matching HID template (KeyFilterTemplateText,
// examples/templates/key_filter.hid) lets the prover show the gather stays
// inside the bitmap for every 64-bit key.

#ifndef HEF_TABLE_KEY_FILTER_H_
#define HEF_TABLE_KEY_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "hid/hid.h"
#include "hybrid/hybrid_config.h"

namespace hef {

class KeyFilter {
 public:
  // An empty filter over the keys [lo, hi]; lo > hi gives a filter that
  // rejects every key. Bitmap: (hi - lo + 1) bits plus the guard bit.
  KeyFilter(std::uint64_t lo, std::uint64_t hi);

  // Adds a key inside [lo, hi].
  void Insert(std::uint64_t key);

  // Scalar reference test (the kernel's semantics, one key at a time).
  bool Contains(std::uint64_t key) const {
    std::uint64_t d = key - lo_;
    d = d < span_ ? d : span_;
    return ((words_[d >> 6] >> (d & 63)) & 1) != 0;
  }

  std::uint64_t lo() const { return lo_; }
  // Keys covered; bit `span` is the always-zero guard.
  std::uint64_t span() const { return span_; }
  const std::uint64_t* words() const { return words_.data(); }
  std::size_t word_count() const { return words_.size(); }
  // Keys present (bits set).
  std::size_t Popcount() const;

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t span_ = 0;
  AlignedBuffer<std::uint64_t> words_;
};

// Map kernel: out[i] = 1 if the filter contains in[i], else 0.
//   d = in[i] - lo (wrapping); d = min(d, span); out = (words[d >> 6] >>
//   (d & 63)) & 1. Mirrors examples/templates/key_filter.hid.
struct KeyFilterKernel {
  const std::uint64_t* words = nullptr;
  std::uint64_t lo = 0;
  std::uint64_t span = 0;

  template <typename B>
  struct State {
    typename B::Reg v;
  };

  template <typename B>
  HEF_INLINE void Load(State<B>& st, const std::uint64_t* in) const {
    st.v = B::LoadU(in);
  }
  template <typename B>
  HEF_INLINE void Compute(State<B>& st) const {
    const auto guard = B::Set1(span);
    auto d = B::Sub(st.v, B::Set1(lo));
    d = hi_min_epu64<B>(d, guard);
    const auto word = B::Gather(words, B::template Srli<6>(d));
    st.v = B::And(B::SrlVar(word, B::And(d, B::Set1(63))), B::Set1(1));
  }
  template <typename B>
  HEF_INLINE void Store(std::uint64_t* out, const State<B>& st) const {
    B::StoreU(out, st.v);
  }
};

// Tests keys[0..n) against `filter` under implementation `cfg`, writing
// 1 (present) / 0 (absent) into out[0..n).
void KeyFilterArray(const HybridConfig& cfg, const KeyFilter& filter,
                    const std::uint64_t* keys, std::uint64_t* out,
                    std::size_t n);

// All (v, s, p) coordinates precompiled for the key-filter kernel: the
// same grid as the hash probe, since it runs at the join's probe point.
const std::vector<HybridConfig>& KeyFilterSupportedConfigs();

// HID template text of the kernel for a filter of `span` keys: IN is the
// full 64-bit key domain, `ptr bits` declares exactly the words the
// filter allocates for that span, OUT is 0..1. Text only; callers parse
// it (hef_table does not link the codegen library).
std::string KeyFilterTemplateText(std::uint64_t span);

}  // namespace hef

#endif  // HEF_TABLE_KEY_FILTER_H_
