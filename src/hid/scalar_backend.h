// Scalar lowering of the hybrid intermediate description (paper Table I,
// "Scalar" column). A register is one 64-bit GPR value; every HID op maps
// to plain integer C++ that GCC compiles to single scalar instructions.
//
// All three backends expose the same static interface:
//
//   using Reg   = ...;           // one SIMD register's worth of lanes
//   using Mask  = ...;           // per-lane predicate
//   static constexpr int kLanes; // 64-bit lanes per Reg
//   static constexpr Isa kIsa;
//   Reg  LoadU(const uint64_t* p);         void StoreU(uint64_t* p, Reg v);
//   Reg  LoadZx<bits>(const void* p);      (kLanes 8/16/32-bit unsigned
//                                           values, zero-extended)
//   Reg  Set1(uint64_t x);                 Reg  Gather(const uint64_t* base, Reg idx);
//   Reg  Add/Sub/Mul/And/Or/Xor(Reg, Reg);
//   Reg  Srli<k>(Reg); Reg Slli<k>(Reg);   (compile-time shift counts)
//   Mask CmpEq/CmpGt(Reg, Reg);            (CmpGt is unsigned)
//   Mask MaskAnd/MaskOr/MaskNot(Mask...);
//   uint32_t MaskBits(Mask);  int MaskCount(Mask);  bool MaskNone(Mask);
//   Reg  Blend(Mask m, Reg a, Reg b);      // lane i = m[i] ? b[i] : a[i]
//   int  CompressStoreU(uint64_t* dst, Mask m, Reg v);
//   uint64_t Lane(Reg, int i);             // extraction for tests/tails

#ifndef HEF_HID_SCALAR_BACKEND_H_
#define HEF_HID_SCALAR_BACKEND_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/macros.h"
#include "procinfo/cpu_features.h"

namespace hef {

struct ScalarBackend {
  using Elem = std::uint64_t;
  using Reg = std::uint64_t;
  using Mask = std::uint8_t;  // 0 or 1
  // The backend hybrid runners pair with this one for scalar statements.
  using ScalarCompanion = ScalarBackend;

  static constexpr int kLanes = 1;
  static constexpr Isa kIsa = Isa::kScalar;

  static HEF_INLINE Reg LoadU(const std::uint64_t* p) { return *p; }
  // Widening load: one kBits-bit unsigned value, zero-extended. memcpy
  // keeps the narrow read legal over storage typed as 64-bit words.
  template <int kBits>
  static HEF_INLINE Reg LoadZx(const void* p) {
    static_assert(kBits == 8 || kBits == 16 || kBits == 32);
    using Narrow = std::conditional_t<
        kBits == 8, std::uint8_t,
        std::conditional_t<kBits == 16, std::uint16_t, std::uint32_t>>;
    Narrow v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static HEF_INLINE void StoreU(std::uint64_t* p, Reg v) { *p = v; }
  static HEF_INLINE Reg Set1(std::uint64_t x) { return x; }

  static HEF_INLINE Reg Gather(const std::uint64_t* base, Reg idx) {
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
    static_assert(kShift >= 0 && kShift < 64);
    return a >> kShift;
  }
  template <int kShift>
  static HEF_INLINE Reg Slli(Reg a) {
    static_assert(kShift >= 0 && kShift < 64);
    return a << kShift;
  }

  // Per-lane variable shift (vpsrlvq family); counts must be < 64.
  static HEF_INLINE Reg SrlVar(Reg a, Reg counts) { return a >> counts; }
  static HEF_INLINE Reg SllVar(Reg a, Reg counts) { return a << counts; }

  static HEF_INLINE Mask CmpEq(Reg a, Reg b) { return a == b ? 1 : 0; }
  static HEF_INLINE Mask CmpGt(Reg a, Reg b) { return a > b ? 1 : 0; }

  static HEF_INLINE Mask MaskAnd(Mask a, Mask b) { return a & b; }
  static HEF_INLINE Mask MaskOr(Mask a, Mask b) { return a | b; }
  static HEF_INLINE Mask MaskNot(Mask a) { return a ^ 1; }
  static HEF_INLINE std::uint32_t MaskBits(Mask m) { return m; }
  static HEF_INLINE int MaskCount(Mask m) { return m; }
  static HEF_INLINE bool MaskNone(Mask m) { return m == 0; }

  static HEF_INLINE Reg Blend(Mask m, Reg a, Reg b) { return m ? b : a; }

  // Branch-free conditional append: always writes, advances by the mask.
  static HEF_INLINE int CompressStoreU(std::uint64_t* dst, Mask m, Reg v) {
    *dst = v;
    return m;
  }

  static HEF_INLINE std::uint64_t Lane(Reg v, int i) {
    HEF_DCHECK(i == 0);
    (void)i;
    return v;
  }
};

}  // namespace hef

#endif  // HEF_HID_SCALAR_BACKEND_H_
