// Value-range abstract interpreter — propagates [lo, hi] intervals plus
// a known-bits ("maybe-ones") mask through an HID template's straight-
// line body, one abstract element at a time. The domain is deliberately
// simple (no relational facts), but it is exactly enough to prove the
// properties the storage decode kernels and gather templates need:
//
//   HID013  every gather index stays below the ptr's declared extent
//           ("ptr dict [4096]")
//   HID014  no unsigned wraparound under a `nowrap` declaration
//           (frame-of-reference reconstruction must not overflow)
//   HID015  stored values stay inside the declared `range OUT`
//           (pack widths / zone-map consistency)
//   HID016  variable shift counts stay < 64 (the scalar lowering's
//           `>>` is undefined at 64 and diverges from the intrinsics)
//   HID017  (warning, prove tier) a gather through a ptr with no
//           declared extent cannot be bounds-proven
//
// Soundness invariant: for every reachable concrete execution, each
// variable's value v satisfies lo <= v <= hi and (v & ~bits) == 0.
// Wrapping arithmetic widens to the full range unless `nowrap` turns the
// possibility into an HID014 error.

#ifndef HEF_ANALYSIS_VALUE_RANGE_H_
#define HEF_ANALYSIS_VALUE_RANGE_H_

#include <cstdint>
#include <vector>

#include "analysis/hid_verifier.h"
#include "codegen/operator_template.h"

namespace hef {
namespace analysis {

struct ValueRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = ~0ULL;
  std::uint64_t bits = ~0ULL;  // bits that may be 1 in any value

  static ValueRange Exact(std::uint64_t v);
  static ValueRange Between(std::uint64_t lo, std::uint64_t hi);
  static ValueRange Full();

  // Tightens hi against the bits mask and vice versa (the two halves of
  // the domain inform each other).
  ValueRange Refined() const;

  bool Contains(std::uint64_t lo_bound, std::uint64_t hi_bound) const {
    return lo >= lo_bound && hi <= hi_bound;
  }
  // "[0, 4095] bits 0xfff".
  std::string ToString() const;
};

// Transfer functions (pure; wrap flags report possible mod-2^64
// wraparound so the caller can decide between widening and HID014).
ValueRange RangeAdd(const ValueRange& a, const ValueRange& b, bool* wrap);
ValueRange RangeSub(const ValueRange& a, const ValueRange& b, bool* wrap);
ValueRange RangeMul(const ValueRange& a, const ValueRange& b, bool* wrap);
ValueRange RangeAnd(const ValueRange& a, const ValueRange& b);
ValueRange RangeOr(const ValueRange& a, const ValueRange& b);
ValueRange RangeXor(const ValueRange& a, const ValueRange& b);
// Unsigned minimum: the clamp that bounds an otherwise unbounded index
// (key_filter clamps out-of-span keys onto a guard bit).
ValueRange RangeMinU(const ValueRange& a, const ValueRange& b);
// Shift counts come in as a range too (srlv/sllv); counts >= 64 follow
// the intrinsics (result 0) — HID016 reports them separately.
ValueRange RangeShr(const ValueRange& a, const ValueRange& count);
ValueRange RangeShl(const ValueRange& a, const ValueRange& count,
                    bool* wrap);

struct RangeAnalysis {
  std::vector<Diagnostic> diagnostics;
  bool has_output = false;
  ValueRange output;  // abstract range of the stored OUT values
};

// Runs the interpreter over a structurally valid template (callers gate
// on the structural rules first; statements with unresolved names are
// conservatively skipped). `require_bounded_gathers` enables HID017.
RangeAnalysis AnalyzeValueRanges(const OperatorTemplate& op,
                                 bool require_bounded_gathers);

}  // namespace analysis
}  // namespace hef

#endif  // HEF_ANALYSIS_VALUE_RANGE_H_
