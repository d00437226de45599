// AVX2 lowering of the hybrid intermediate description (paper Table I,
// "AVX2" column): one Reg is a ymm register holding four 64-bit lanes.
//
// AVX2 lacks three things the Table-I vocabulary needs, so this backend
// emulates them exactly the way the paper prescribes for ISAs missing an
// instruction ("we use multiple scalar instructions or a combination of
// other SIMD instructions to achieve interface consistency"):
//   * 64-bit low multiply (vpmullq is AVX-512DQ): three vpmuludq partial
//     products recombined with shifts/adds;
//   * unsigned 64-bit compare: signed vpcmpgtq after flipping sign bits;
//   * compress-store (vpcompressq is AVX-512F): a 16-entry permutation
//     table driving vpermd.

#ifndef HEF_HID_AVX2_BACKEND_H_
#define HEF_HID_AVX2_BACKEND_H_

#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#define HEF_HAVE_AVX2 1

#include <immintrin.h>

#include "common/macros.h"
#include "hid/scalar_backend.h"
#include "procinfo/cpu_features.h"

namespace hef {

struct Avx2Backend {
  using Elem = std::uint64_t;
  using Reg = __m256i;
  using Mask = __m256i;  // per-lane all-ones / all-zeros
  using ScalarCompanion = ScalarBackend;

  static constexpr int kLanes = 4;
  static constexpr Isa kIsa = Isa::kAvx2;

  static HEF_INLINE Reg LoadU(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  // Widening load (vpmovzx{b,w,d}q): four kBits-bit unsigned values,
  // zero-extended into the 64-bit lanes. Reads exactly 4 * kBits bits.
  template <int kBits>
  static HEF_INLINE Reg LoadZx(const void* p) {
    static_assert(kBits == 8 || kBits == 16 || kBits == 32);
    if constexpr (kBits == 8) {
      int v;
      std::memcpy(&v, p, sizeof(v));
      return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(v));
    } else if constexpr (kBits == 16) {
      return _mm256_cvtepu16_epi64(
          _mm_loadl_epi64(static_cast<const __m128i*>(p)));
    } else {
      return _mm256_cvtepu32_epi64(
          _mm_loadu_si128(static_cast<const __m128i*>(p)));
    }
  }
  static HEF_INLINE void StoreU(std::uint64_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static HEF_INLINE Reg Set1(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }

  static HEF_INLINE Reg Gather(const std::uint64_t* base, Reg idx) {
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(base),
                                  idx, 8);
  }

  static HEF_INLINE Reg Add(Reg a, Reg b) { return _mm256_add_epi64(a, b); }
  static HEF_INLINE Reg Sub(Reg a, Reg b) { return _mm256_sub_epi64(a, b); }

  static HEF_INLINE Reg Mul(Reg a, Reg b) {
    // 64x64 -> low 64: ll + ((lh + hl) << 32), all lanewise.
    const Reg a_hi = _mm256_srli_epi64(a, 32);
    const Reg b_hi = _mm256_srli_epi64(b, 32);
    const Reg ll = _mm256_mul_epu32(a, b);
    const Reg lh = _mm256_mul_epu32(a, b_hi);
    const Reg hl = _mm256_mul_epu32(a_hi, b);
    const Reg cross = _mm256_add_epi64(lh, hl);
    return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
  }

  static HEF_INLINE Reg And(Reg a, Reg b) { return _mm256_and_si256(a, b); }
  static HEF_INLINE Reg Or(Reg a, Reg b) { return _mm256_or_si256(a, b); }
  static HEF_INLINE Reg Xor(Reg a, Reg b) { return _mm256_xor_si256(a, b); }

  template <int kShift>
  static HEF_INLINE Reg Srli(Reg a) {
    return _mm256_srli_epi64(a, kShift);
  }
  template <int kShift>
  static HEF_INLINE Reg Slli(Reg a) {
    return _mm256_slli_epi64(a, kShift);
  }

  static HEF_INLINE Reg SrlVar(Reg a, Reg counts) {
    return _mm256_srlv_epi64(a, counts);
  }
  static HEF_INLINE Reg SllVar(Reg a, Reg counts) {
    return _mm256_sllv_epi64(a, counts);
  }

  static HEF_INLINE Mask CmpEq(Reg a, Reg b) {
    return _mm256_cmpeq_epi64(a, b);
  }
  static HEF_INLINE Mask CmpGt(Reg a, Reg b) {
    // Unsigned compare via sign-bit flip + signed vpcmpgtq.
    const Reg bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                              _mm256_xor_si256(b, bias));
  }

  static HEF_INLINE Mask MaskAnd(Mask a, Mask b) {
    return _mm256_and_si256(a, b);
  }
  static HEF_INLINE Mask MaskOr(Mask a, Mask b) {
    return _mm256_or_si256(a, b);
  }
  static HEF_INLINE Mask MaskNot(Mask a) {
    return _mm256_xor_si256(a, _mm256_set1_epi64x(-1));
  }
  static HEF_INLINE std::uint32_t MaskBits(Mask m) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
  static HEF_INLINE int MaskCount(Mask m) {
    return __builtin_popcount(MaskBits(m));
  }
  static HEF_INLINE bool MaskNone(Mask m) { return MaskBits(m) == 0; }

  static HEF_INLINE Reg Blend(Mask m, Reg a, Reg b) {
    return _mm256_blendv_epi8(a, b, m);
  }

  static HEF_INLINE int CompressStoreU(std::uint64_t* dst, Mask m, Reg v) {
    // Permutation table over 32-bit lanes: entry for mask bits `b` moves
    // the selected 64-bit lanes (as 32-bit pairs) to the front.
    alignas(32) static const std::uint32_t kPermute[16][8] = {
        {0, 1, 2, 3, 4, 5, 6, 7},  // 0000
        {0, 1, 2, 3, 4, 5, 6, 7},  // 0001
        {2, 3, 0, 1, 4, 5, 6, 7},  // 0010
        {0, 1, 2, 3, 4, 5, 6, 7},  // 0011
        {4, 5, 0, 1, 2, 3, 6, 7},  // 0100
        {0, 1, 4, 5, 2, 3, 6, 7},  // 0101
        {2, 3, 4, 5, 0, 1, 6, 7},  // 0110
        {0, 1, 2, 3, 4, 5, 6, 7},  // 0111
        {6, 7, 0, 1, 2, 3, 4, 5},  // 1000
        {0, 1, 6, 7, 2, 3, 4, 5},  // 1001
        {2, 3, 6, 7, 0, 1, 4, 5},  // 1010
        {0, 1, 2, 3, 6, 7, 4, 5},  // 1011
        {4, 5, 6, 7, 0, 1, 2, 3},  // 1100
        {0, 1, 4, 5, 6, 7, 2, 3},  // 1101
        {2, 3, 4, 5, 6, 7, 0, 1},  // 1110
        {0, 1, 2, 3, 4, 5, 6, 7},  // 1111
    };
    const std::uint32_t bits = MaskBits(m);
    const __m256i idx = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPermute[bits]));
    const Reg packed = _mm256_permutevar8x32_epi32(v, idx);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), packed);
    return __builtin_popcount(bits);
  }

  static HEF_INLINE std::uint64_t Lane(Reg v, int i) {
    alignas(32) std::uint64_t tmp[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    HEF_DCHECK(i >= 0 && i < kLanes);
    return tmp[i];
  }
};

}  // namespace hef

#else
#define HEF_HAVE_AVX2 0
#endif  // __AVX2__

#endif  // HEF_HID_AVX2_BACKEND_H_
