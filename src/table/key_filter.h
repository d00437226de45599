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

// The same test on frame-of-reference codes, for a chunk storing
// key = reference + code. Modulo 2^64,
//   key - lo = code - (lo - reference),
// so running the kernel with lo rebased to lo - reference tests exactly
// the decoded keys, and the clamp still sends every out-of-span value —
// including codes whose rebased offset wraps — to the guard bit. Codes
// come in through a widening load of the chunk's packed words: a width
// W in {8, 16, 32} packs values little-endian, one after another, so the
// words read as a plain array of W-bit integers and nothing is unpacked.
// Mirrors examples/templates/code_key_filter.hid.
template <typename Code>
struct CodeKeyFilterKernel : KeyFilterKernel {
  using InElem = Code;

  template <typename B>
  HEF_INLINE void Load(State<B>& st, const Code* in) const {
    st.v = B::template LoadZx<8 * static_cast<int>(sizeof(Code))>(in);
  }
};

// Tests keys[0..n) against `filter` under implementation `cfg`, writing
// 1 (present) / 0 (absent) into out[0..n).
void KeyFilterArray(const HybridConfig& cfg, const KeyFilter& filter,
                    const std::uint64_t* keys, std::uint64_t* out,
                    std::size_t n);

// Code-space form: out[i] = filter.Contains(reference + code(first + i)),
// i in [0, n), where code(r) is the r-th `width`-bit value packed into
// `packed` (the layout of storage::PackBits). width must be 8, 16 or 32.
void CodeKeyFilterArray(const HybridConfig& cfg, const KeyFilter& filter,
                        std::uint64_t reference, const std::uint64_t* packed,
                        std::uint8_t width, std::size_t first,
                        std::uint64_t* out, std::size_t n);

// All (v, s, p) coordinates precompiled for the key-filter kernel: the
// same grid as the hash probe, since it runs at the join's probe point.
// The code-space kernel compiles the same grid at every code width.
const std::vector<HybridConfig>& KeyFilterSupportedConfigs();
const std::vector<HybridConfig>& CodeKeyFilterSupportedConfigs();

// HID template text of the kernel for a filter of `span` keys: IN is the
// full 64-bit key domain, `ptr bits` declares exactly the words the
// filter allocates for that span, OUT is 0..1. Text only; callers parse
// it (hef_table does not link the codegen library).
std::string KeyFilterTemplateText(std::uint64_t span);

// HID template text of the code-space kernel over `width`-bit codes
// (8, 16 or 32): the key filter's body behind a widening load, with IN
// declared as the code domain 0..2^width-1.
std::string CodeKeyFilterTemplateText(std::uint8_t width, std::uint64_t span);

}  // namespace hef

#endif  // HEF_TABLE_KEY_FILTER_H_
