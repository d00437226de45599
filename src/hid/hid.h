// Umbrella header for the hybrid intermediate description (HID).
//
// The HID is the paper's central abstraction: a set of intrinsic-like
// operations (`hi_add_epi64`, `hi_gather_epi64`, ...) that lower to scalar
// statements, AVX2 or AVX-512 depending on the backend type parameter
// (paper Table I / Table II). Kernels written against the HID run on any
// backend; the hybrid runner (src/hybrid) instantiates them with a mix of
// vector and scalar backends to co-utilize both pipeline families.
//
// Two equivalent spellings are provided:
//   * backend-member style, used by the kernels:   B::Add(a, b)
//   * paper style free functions:                  hi_add_epi64<B>(a, b)

#ifndef HEF_HID_HID_H_
#define HEF_HID_HID_H_

#include <cstdint>

#include "hid/avx2_backend.h"
#include "hid/avx512_backend.h"
#include "hid/scalar_backend.h"
#include "procinfo/cpu_features.h"

namespace hef {

// The widest vector backend this translation unit was compiled for.
#if HEF_HAVE_AVX512
using DefaultVectorBackend = Avx512Backend;
#elif HEF_HAVE_AVX2
using DefaultVectorBackend = Avx2Backend;
#else
using DefaultVectorBackend = ScalarBackend;
#endif

// `hi_uint64<B>` is the paper's `vuint64` variable type (Table II): the
// register type of backend B.
template <typename B>
using hi_uint64 = typename B::Reg;

template <typename B>
using hi_mask = typename B::Mask;

// ---- Paper-style free-function veneer (Table I naming) ----

template <typename B>
HEF_INLINE hi_uint64<B> hi_load_epi64(const std::uint64_t* p) {
  return B::LoadU(p);
}

// Widening loads (vpmovzxbq / wq / dq): kLanes consecutive 8/16/32-bit
// unsigned values, each zero-extended into a 64-bit lane. The code-space
// key filter reads bit-packed chunk codes with them, no unpack needed.
template <typename B>
HEF_INLINE hi_uint64<B> hi_load_epu8(const std::uint8_t* p) {
  return B::template LoadZx<8>(p);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_load_epu16(const std::uint16_t* p) {
  return B::template LoadZx<16>(p);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_load_epu32(const std::uint32_t* p) {
  return B::template LoadZx<32>(p);
}

template <typename B>
HEF_INLINE void hi_store_epi64(std::uint64_t* p, hi_uint64<B> v) {
  B::StoreU(p, v);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_set1_epi64(std::uint64_t x) {
  return B::Set1(x);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_gather_epi64(const std::uint64_t* base,
                                        hi_uint64<B> idx) {
  return B::Gather(base, idx);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_add_epi64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::Add(a, b);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_sub_epi64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::Sub(a, b);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_mullo_epi64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::Mul(a, b);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_and_epi64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::And(a, b);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_or_epi64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::Or(a, b);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_xor_epi64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::Xor(a, b);
}

// Unsigned minimum (vpminuq on AVX-512; compare + blend elsewhere).
template <typename B>
HEF_INLINE hi_uint64<B> hi_min_epu64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::Blend(B::CmpGt(a, b), a, b);
}

template <typename B, int kShift>
HEF_INLINE hi_uint64<B> hi_srli_epi64(hi_uint64<B> a) {
  return B::template Srli<kShift>(a);
}

template <typename B, int kShift>
HEF_INLINE hi_uint64<B> hi_slli_epi64(hi_uint64<B> a) {
  return B::template Slli<kShift>(a);
}

// Per-lane variable shifts (vpsrlvq/vpsllvq family); used by the chunk
// decode kernels to align bit-packed values within their word.
template <typename B>
HEF_INLINE hi_uint64<B> hi_srlv_epi64(hi_uint64<B> a, hi_uint64<B> counts) {
  return B::SrlVar(a, counts);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_sllv_epi64(hi_uint64<B> a, hi_uint64<B> counts) {
  return B::SllVar(a, counts);
}

template <typename B>
HEF_INLINE hi_mask<B> hi_cmpeq_epi64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::CmpEq(a, b);
}

template <typename B>
HEF_INLINE hi_mask<B> hi_cmpgt_epu64(hi_uint64<B> a, hi_uint64<B> b) {
  return B::CmpGt(a, b);
}

template <typename B>
HEF_INLINE hi_uint64<B> hi_blend_epi64(hi_mask<B> m, hi_uint64<B> a,
                                       hi_uint64<B> b) {
  return B::Blend(m, a, b);
}

template <typename B>
HEF_INLINE int hi_compressstore_epi64(std::uint64_t* dst, hi_mask<B> m,
                                      hi_uint64<B> v) {
  return B::CompressStoreU(dst, m, v);
}

}  // namespace hef

#endif  // HEF_HID_HID_H_
