// 32-bit-lane lowerings of the hybrid intermediate description.
//
// Paper Table II lists 16/32/64-bit integer variable types; analytics
// columns are frequently 32-bit dictionary codes, and VIP-style engines
// (which the paper builds on) are 32-bit oriented. These backends expose
// the identical static interface as the 64-bit ones with Elem = uint32_t:
// a zmm register holds sixteen lanes, a ymm eight. They compose with the
// same HybridRunner/HybridGrid machinery through the Elem/ScalarCompanion
// traits.

#ifndef HEF_HID_BACKEND32_H_
#define HEF_HID_BACKEND32_H_

#include <cstdint>

#include "common/macros.h"
#include "hid/avx2_backend.h"
#include "hid/avx512_backend.h"
#include "hid/scalar_backend.h"
#include "procinfo/cpu_features.h"

namespace hef {

struct ScalarBackend32 {
  using Elem = std::uint32_t;
  using Reg = std::uint32_t;
  using Mask = std::uint8_t;  // 0 or 1
  using ScalarCompanion = ScalarBackend32;

  static constexpr int kLanes = 1;
  static constexpr Isa kIsa = Isa::kScalar;

  static HEF_INLINE Reg LoadU(const std::uint32_t* p) { return *p; }
  static HEF_INLINE void StoreU(std::uint32_t* p, Reg v) { *p = v; }
  static HEF_INLINE Reg Set1(std::uint32_t x) { return x; }
  static HEF_INLINE Reg Gather(const std::uint32_t* base, Reg idx) {
    return base[idx];
  }

  static HEF_INLINE Reg Add(Reg a, Reg b) { return a + b; }
  static HEF_INLINE Reg Sub(Reg a, Reg b) { return a - b; }
  static HEF_INLINE Reg Mul(Reg a, Reg b) { return a * b; }
  static HEF_INLINE Reg And(Reg a, Reg b) { return a & b; }
  static HEF_INLINE Reg Or(Reg a, Reg b) { return a | b; }
  static HEF_INLINE Reg Xor(Reg a, Reg b) { return a ^ b; }

  template <int kShift>
  static HEF_INLINE Reg Srli(Reg a) {
    static_assert(kShift >= 0 && kShift < 32);
    return a >> kShift;
  }
  template <int kShift>
  static HEF_INLINE Reg Slli(Reg a) {
    static_assert(kShift >= 0 && kShift < 32);
    return a << kShift;
  }

  static HEF_INLINE Mask CmpEq(Reg a, Reg b) { return a == b ? 1 : 0; }
  static HEF_INLINE Mask CmpGt(Reg a, Reg b) { return a > b ? 1 : 0; }

  static HEF_INLINE Mask MaskAnd(Mask a, Mask b) { return a & b; }
  static HEF_INLINE Mask MaskOr(Mask a, Mask b) { return a | b; }
  static HEF_INLINE Mask MaskNot(Mask a) { return a ^ 1; }
  static HEF_INLINE std::uint32_t MaskBits(Mask m) { return m; }
  static HEF_INLINE int MaskCount(Mask m) { return m; }
  static HEF_INLINE bool MaskNone(Mask m) { return m == 0; }

  static HEF_INLINE Reg Blend(Mask m, Reg a, Reg b) { return m ? b : a; }

  static HEF_INLINE int CompressStoreU(std::uint32_t* dst, Mask m, Reg v) {
    *dst = v;
    return m;
  }

  static HEF_INLINE std::uint32_t Lane(Reg v, int i) {
    HEF_DCHECK(i == 0);
    (void)i;
    return v;
  }
};

#if HEF_HAVE_AVX512

struct Avx512Backend32 {
  using Elem = std::uint32_t;
  using Reg = __m512i;
  using Mask = __mmask16;
  using ScalarCompanion = ScalarBackend32;

  static constexpr int kLanes = 16;
  static constexpr Isa kIsa = Isa::kAvx512;
  // All-lanes mask for the masked gather/shift forms, which (unlike the
  // unmasked intrinsics) do not trip GCC 12's -Wmaybe-uninitialized.
  static constexpr __mmask16 kAllLanes = 0xFFFF;

  static HEF_INLINE Reg LoadU(const std::uint32_t* p) {
    return _mm512_loadu_si512(p);
  }
  static HEF_INLINE void StoreU(std::uint32_t* p, Reg v) {
    _mm512_storeu_si512(p, v);
  }
  static HEF_INLINE Reg Set1(std::uint32_t x) {
    return _mm512_set1_epi32(static_cast<int>(x));
  }
  static HEF_INLINE Reg Gather(const std::uint32_t* base, Reg idx) {
    return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), kAllLanes,
                                       idx, base, 4);
  }

  static HEF_INLINE Reg Add(Reg a, Reg b) { return _mm512_add_epi32(a, b); }
  static HEF_INLINE Reg Sub(Reg a, Reg b) { return _mm512_sub_epi32(a, b); }
  static HEF_INLINE Reg Mul(Reg a, Reg b) {
    return _mm512_mullo_epi32(a, b);
  }
  static HEF_INLINE Reg And(Reg a, Reg b) { return _mm512_and_si512(a, b); }
  static HEF_INLINE Reg Or(Reg a, Reg b) { return _mm512_or_si512(a, b); }
  static HEF_INLINE Reg Xor(Reg a, Reg b) { return _mm512_xor_si512(a, b); }

  template <int kShift>
  static HEF_INLINE Reg Srli(Reg a) {
    return _mm512_maskz_srli_epi32(kAllLanes, a, kShift);
  }
  template <int kShift>
  static HEF_INLINE Reg Slli(Reg a) {
    return _mm512_maskz_slli_epi32(kAllLanes, a, kShift);
  }

  static HEF_INLINE Mask CmpEq(Reg a, Reg b) {
    return _mm512_cmpeq_epi32_mask(a, b);
  }
  static HEF_INLINE Mask CmpGt(Reg a, Reg b) {
    return _mm512_cmpgt_epu32_mask(a, b);
  }

  static HEF_INLINE Mask MaskAnd(Mask a, Mask b) { return a & b; }
  static HEF_INLINE Mask MaskOr(Mask a, Mask b) { return a | b; }
  static HEF_INLINE Mask MaskNot(Mask a) { return static_cast<Mask>(~a); }
  static HEF_INLINE std::uint32_t MaskBits(Mask m) { return m; }
  static HEF_INLINE int MaskCount(Mask m) {
    return __builtin_popcount(static_cast<unsigned>(m));
  }
  static HEF_INLINE bool MaskNone(Mask m) { return m == 0; }

  static HEF_INLINE Reg Blend(Mask m, Reg a, Reg b) {
    return _mm512_mask_blend_epi32(m, a, b);
  }

  static HEF_INLINE int CompressStoreU(std::uint32_t* dst, Mask m, Reg v) {
    _mm512_mask_compressstoreu_epi32(dst, m, v);
    return MaskCount(m);
  }

  static HEF_INLINE std::uint32_t Lane(Reg v, int i) {
    alignas(64) std::uint32_t tmp[kLanes];
    _mm512_store_si512(tmp, v);
    HEF_DCHECK(i >= 0 && i < kLanes);
    return tmp[i];
  }
};

#endif  // HEF_HAVE_AVX512

#if HEF_HAVE_AVX2

struct Avx2Backend32 {
  using Elem = std::uint32_t;
  using Reg = __m256i;
  using Mask = __m256i;
  using ScalarCompanion = ScalarBackend32;

  static constexpr int kLanes = 8;
  static constexpr Isa kIsa = Isa::kAvx2;

  static HEF_INLINE Reg LoadU(const std::uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static HEF_INLINE void StoreU(std::uint32_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static HEF_INLINE Reg Set1(std::uint32_t x) {
    return _mm256_set1_epi32(static_cast<int>(x));
  }
  static HEF_INLINE Reg Gather(const std::uint32_t* base, Reg idx) {
    return _mm256_i32gather_epi32(reinterpret_cast<const int*>(base), idx,
                                  4);
  }

  static HEF_INLINE Reg Add(Reg a, Reg b) { return _mm256_add_epi32(a, b); }
  static HEF_INLINE Reg Sub(Reg a, Reg b) { return _mm256_sub_epi32(a, b); }
  static HEF_INLINE Reg Mul(Reg a, Reg b) {
    return _mm256_mullo_epi32(a, b);
  }
  static HEF_INLINE Reg And(Reg a, Reg b) { return _mm256_and_si256(a, b); }
  static HEF_INLINE Reg Or(Reg a, Reg b) { return _mm256_or_si256(a, b); }
  static HEF_INLINE Reg Xor(Reg a, Reg b) { return _mm256_xor_si256(a, b); }

  template <int kShift>
  static HEF_INLINE Reg Srli(Reg a) {
    return _mm256_srli_epi32(a, kShift);
  }
  template <int kShift>
  static HEF_INLINE Reg Slli(Reg a) {
    return _mm256_slli_epi32(a, kShift);
  }

  static HEF_INLINE Mask CmpEq(Reg a, Reg b) {
    return _mm256_cmpeq_epi32(a, b);
  }
  static HEF_INLINE Mask CmpGt(Reg a, Reg b) {
    const Reg bias = _mm256_set1_epi32(
        static_cast<int>(0x80000000U));
    return _mm256_cmpgt_epi32(_mm256_xor_si256(a, bias),
                              _mm256_xor_si256(b, bias));
  }

  static HEF_INLINE Mask MaskAnd(Mask a, Mask b) {
    return _mm256_and_si256(a, b);
  }
  static HEF_INLINE Mask MaskOr(Mask a, Mask b) {
    return _mm256_or_si256(a, b);
  }
  static HEF_INLINE Mask MaskNot(Mask a) {
    return _mm256_xor_si256(a, _mm256_set1_epi32(-1));
  }
  static HEF_INLINE std::uint32_t MaskBits(Mask m) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(m)));
  }
  static HEF_INLINE int MaskCount(Mask m) {
    return __builtin_popcount(MaskBits(m));
  }
  static HEF_INLINE bool MaskNone(Mask m) { return MaskBits(m) == 0; }

  static HEF_INLINE Reg Blend(Mask m, Reg a, Reg b) {
    return _mm256_blendv_epi8(a, b, m);
  }

  static HEF_INLINE int CompressStoreU(std::uint32_t* dst, Mask m, Reg v) {
    // No vpcompressd below AVX-512: scalar extraction of selected lanes.
    alignas(32) std::uint32_t tmp[kLanes];
    StoreU(tmp, v);
    std::uint32_t bits = MaskBits(m);
    int count = 0;
    while (bits != 0) {
      const int lane = __builtin_ctz(bits);
      bits &= bits - 1;
      dst[count++] = tmp[lane];
    }
    return count;
  }

  static HEF_INLINE std::uint32_t Lane(Reg v, int i) {
    alignas(32) std::uint32_t tmp[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    HEF_DCHECK(i >= 0 && i < kLanes);
    return tmp[i];
  }
};

#endif  // HEF_HAVE_AVX2

// The widest 32-bit-lane vector backend compiled into this binary.
#if HEF_HAVE_AVX512
using DefaultVectorBackend32 = Avx512Backend32;
#elif HEF_HAVE_AVX2
using DefaultVectorBackend32 = Avx2Backend32;
#else
using DefaultVectorBackend32 = ScalarBackend32;
#endif

}  // namespace hef

#endif  // HEF_HID_BACKEND32_H_
