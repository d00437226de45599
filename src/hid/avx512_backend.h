// AVX-512 lowering of the hybrid intermediate description (paper Table I,
// "AVX-512" column): one Reg is a zmm register holding eight 64-bit lanes,
// predicates are the k-mask registers. Requires AVX-512F + DQ (vpmullq).

#ifndef HEF_HID_AVX512_BACKEND_H_
#define HEF_HID_AVX512_BACKEND_H_

#include <cstdint>

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define HEF_HAVE_AVX512 1

#include <immintrin.h>

#include "common/macros.h"
#include "hid/scalar_backend.h"
#include "procinfo/cpu_features.h"

namespace hef {

struct Avx512Backend {
  using Elem = std::uint64_t;
  using Reg = __m512i;
  using Mask = __mmask8;
  using ScalarCompanion = ScalarBackend;

  static constexpr int kLanes = 8;
  static constexpr Isa kIsa = Isa::kAvx512;

  // The unmasked gather and shift intrinsics seed their result from
  // _mm512_undefined_epi32(), which GCC 12 reports as -Wmaybe-uninitialized
  // at every inlined use. The all-lanes masked forms below take a zero
  // vector instead and lower to the same instructions.
  static constexpr __mmask8 kAllLanes = 0xFF;

  static HEF_INLINE Reg LoadU(const std::uint64_t* p) {
    return _mm512_loadu_si512(p);
  }
  // Widening load (vpmovzx{b,w,d}q): eight kBits-bit unsigned values,
  // zero-extended into the 64-bit lanes. Reads exactly 8 * kBits bits.
  template <int kBits>
  static HEF_INLINE Reg LoadZx(const void* p) {
    static_assert(kBits == 8 || kBits == 16 || kBits == 32);
    if constexpr (kBits == 8) {
      return _mm512_maskz_cvtepu8_epi64(
          kAllLanes, _mm_loadl_epi64(static_cast<const __m128i*>(p)));
    } else if constexpr (kBits == 16) {
      return _mm512_maskz_cvtepu16_epi64(
          kAllLanes, _mm_loadu_si128(static_cast<const __m128i*>(p)));
    } else {
      return _mm512_maskz_cvtepu32_epi64(
          kAllLanes, _mm256_loadu_si256(static_cast<const __m256i*>(p)));
    }
  }
  static HEF_INLINE void StoreU(std::uint64_t* p, Reg v) {
    _mm512_storeu_si512(p, v);
  }
  static HEF_INLINE Reg Set1(std::uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }

  static HEF_INLINE Reg Gather(const std::uint64_t* base, Reg idx) {
    return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), kAllLanes, idx,
                                       base, 8);
  }

  static HEF_INLINE Reg Add(Reg a, Reg b) { return _mm512_add_epi64(a, b); }
  static HEF_INLINE Reg Sub(Reg a, Reg b) { return _mm512_sub_epi64(a, b); }
  static HEF_INLINE Reg Mul(Reg a, Reg b) { return _mm512_mullo_epi64(a, b); }
  static HEF_INLINE Reg And(Reg a, Reg b) { return _mm512_and_si512(a, b); }
  static HEF_INLINE Reg Or(Reg a, Reg b) { return _mm512_or_si512(a, b); }
  static HEF_INLINE Reg Xor(Reg a, Reg b) { return _mm512_xor_si512(a, b); }

  template <int kShift>
  static HEF_INLINE Reg Srli(Reg a) {
    return _mm512_maskz_srli_epi64(kAllLanes, a, kShift);
  }
  template <int kShift>
  static HEF_INLINE Reg Slli(Reg a) {
    return _mm512_maskz_slli_epi64(kAllLanes, a, kShift);
  }

  static HEF_INLINE Reg SrlVar(Reg a, Reg counts) {
    return _mm512_maskz_srlv_epi64(kAllLanes, a, counts);
  }
  static HEF_INLINE Reg SllVar(Reg a, Reg counts) {
    return _mm512_maskz_sllv_epi64(kAllLanes, a, counts);
  }

  static HEF_INLINE Mask CmpEq(Reg a, Reg b) {
    return _mm512_cmpeq_epi64_mask(a, b);
  }
  static HEF_INLINE Mask CmpGt(Reg a, Reg b) {
    return _mm512_cmpgt_epu64_mask(a, b);
  }

  static HEF_INLINE Mask MaskAnd(Mask a, Mask b) { return a & b; }
  static HEF_INLINE Mask MaskOr(Mask a, Mask b) { return a | b; }
  static HEF_INLINE Mask MaskNot(Mask a) {
    return static_cast<Mask>(~a);
  }
  static HEF_INLINE std::uint32_t MaskBits(Mask m) { return m; }
  static HEF_INLINE int MaskCount(Mask m) {
    return __builtin_popcount(static_cast<unsigned>(m));
  }
  static HEF_INLINE bool MaskNone(Mask m) { return m == 0; }

  static HEF_INLINE Reg Blend(Mask m, Reg a, Reg b) {
    return _mm512_mask_blend_epi64(m, a, b);
  }

  static HEF_INLINE int CompressStoreU(std::uint64_t* dst, Mask m, Reg v) {
    _mm512_mask_compressstoreu_epi64(dst, m, v);
    return MaskCount(m);
  }

  static HEF_INLINE std::uint64_t Lane(Reg v, int i) {
    alignas(64) std::uint64_t tmp[kLanes];
    _mm512_store_si512(tmp, v);
    HEF_DCHECK(i >= 0 && i < kLanes);
    return tmp[i];
  }
};

}  // namespace hef

#else
#define HEF_HAVE_AVX512 0
#endif  // __AVX512F__ && __AVX512DQ__

#endif  // HEF_HID_AVX512_BACKEND_H_
