#include "analysis/value_range.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace hef {
namespace analysis {

namespace {

// Smallest all-ones mask covering every value in [0, hi].
std::uint64_t MaskFor(std::uint64_t hi) {
  std::uint64_t m = hi;
  m |= m >> 1;
  m |= m >> 2;
  m |= m >> 4;
  m |= m >> 8;
  m |= m >> 16;
  m |= m >> 32;
  return m;
}

}  // namespace

ValueRange ValueRange::Exact(std::uint64_t v) { return {v, v, v}; }

ValueRange ValueRange::Between(std::uint64_t lo, std::uint64_t hi) {
  return ValueRange{lo, hi, MaskFor(hi)};
}

ValueRange ValueRange::Full() { return {0, ~0ULL, ~0ULL}; }

ValueRange ValueRange::Refined() const {
  ValueRange r = *this;
  // hi cannot exceed the largest value the bits mask admits, and bits
  // cannot be set above hi's leading bit.
  if (r.hi > r.bits) r.hi = r.bits;
  r.bits &= MaskFor(r.hi);
  if (r.lo > r.hi) r.lo = r.hi;  // degenerate; stay sound for hi checks
  return r;
}

std::string ValueRange::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%llu, %llu] bits 0x%llx",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(bits));
  return buf;
}

ValueRange RangeAdd(const ValueRange& a, const ValueRange& b, bool* wrap) {
  const unsigned __int128 hi =
      static_cast<unsigned __int128>(a.hi) + b.hi;
  if (hi > ~0ULL) {
    *wrap = true;
    return ValueRange::Full();
  }
  return ValueRange::Between(a.lo + b.lo, static_cast<std::uint64_t>(hi));
}

ValueRange RangeSub(const ValueRange& a, const ValueRange& b, bool* wrap) {
  if (a.lo < b.hi) {
    *wrap = true;
    return ValueRange::Full();
  }
  return ValueRange::Between(a.lo - b.hi, a.hi - b.lo);
}

ValueRange RangeMul(const ValueRange& a, const ValueRange& b, bool* wrap) {
  const unsigned __int128 hi =
      static_cast<unsigned __int128>(a.hi) * b.hi;
  if (hi > ~0ULL) {
    *wrap = true;
    return ValueRange::Full();
  }
  return ValueRange::Between(a.lo * b.lo, static_cast<std::uint64_t>(hi));
}

ValueRange RangeAnd(const ValueRange& a, const ValueRange& b) {
  ValueRange r;
  r.lo = 0;
  r.bits = a.bits & b.bits;
  r.hi = a.hi < b.hi ? a.hi : b.hi;
  return r.Refined();
}

ValueRange RangeOr(const ValueRange& a, const ValueRange& b) {
  ValueRange r;
  r.lo = a.lo > b.lo ? a.lo : b.lo;  // a|b >= max(a, b)
  r.bits = a.bits | b.bits;
  r.hi = r.bits;  // a|b never sets a bit neither side may have
  return r.Refined();
}

ValueRange RangeXor(const ValueRange& a, const ValueRange& b) {
  ValueRange r;
  r.lo = 0;
  r.bits = a.bits | b.bits;
  r.hi = r.bits;
  return r.Refined();
}

ValueRange RangeMinU(const ValueRange& a, const ValueRange& b) {
  // min(a, b) is bounded by either operand's upper bound, and is one of
  // the two values, so it can only set bits one side may set.
  ValueRange r;
  r.lo = a.lo < b.lo ? a.lo : b.lo;
  r.hi = a.hi < b.hi ? a.hi : b.hi;
  r.bits = a.bits | b.bits;
  return r.Refined();
}

ValueRange RangeShr(const ValueRange& a, const ValueRange& count) {
  ValueRange r;
  // Largest result: smallest shift; counts >= 64 zero the lane.
  r.hi = count.lo >= 64 ? 0 : a.hi >> count.lo;
  r.lo = count.hi >= 64 ? 0 : a.lo >> count.hi;
  r.bits = count.lo >= 64 ? 0 : a.bits >> count.lo;
  return r.Refined();
}

ValueRange RangeShl(const ValueRange& a, const ValueRange& count,
                    bool* wrap) {
  if (count.hi >= 64) {
    // Mixed semantics territory (intrinsics zero, scalar is UB): HID016
    // reports it; the abstract value stays conservatively full.
    return ValueRange::Full();
  }
  const unsigned __int128 hi = static_cast<unsigned __int128>(a.hi)
                               << count.hi;
  if (hi > ~0ULL) {
    *wrap = true;
    return ValueRange::Full();
  }
  ValueRange r;
  r.lo = a.lo << count.lo;
  r.hi = static_cast<std::uint64_t>(hi);
  r.bits = MaskFor(r.hi);
  return r;
}

RangeAnalysis AnalyzeValueRanges(const OperatorTemplate& op,
                                 bool require_bounded_gathers) {
  RangeAnalysis result;
  auto error = [&result](int line, const char* rule,
                         const std::string& msg) {
    result.diagnostics.push_back(
        Diagnostic{rule, Severity::kError, line, msg});
  };
  auto warn = [&result](int line, const char* rule,
                        const std::string& msg) {
    result.diagnostics.push_back(
        Diagnostic{rule, Severity::kWarning, line, msg});
  };

  const ValueRange input =
      op.input_range.declared
          ? ValueRange::Between(op.input_range.lo, op.input_range.hi)
          : ValueRange::Full();

  std::map<std::string, ValueRange> env;
  auto operand = [&](const std::string& name) -> ValueRange {
    if (op.IsConstant(name)) return ValueRange::Exact(op.constants.at(name));
    auto it = env.find(name);
    // Structurally invalid reads were already flagged (HID001/HID003);
    // stay sound with the full range.
    return it == env.end() ? ValueRange::Full() : it->second;
  };
  // HID014 wording shared by every wrapping site.
  auto check_wrap = [&](bool wrap, const TemplateStatement& st,
                        const ValueRange& a, const ValueRange& b) {
    if (wrap && op.nowrap) {
      error(st.line, "HID014",
            "op '" + st.op + "' may wrap modulo 2^64 (" + a.ToString() +
                " vs " + b.ToString() +
                ") but the template declares nowrap");
    }
  };

  for (const TemplateStatement& st : op.body) {
    if (IsLoadOp(st.op)) {
      // A widening load zero-extends W-bit elements: 0..2^W-1 whatever
      // IN declares.
      const int bits = LoadOpBits(st.op);
      ValueRange loaded = input;
      if (bits < 64) {
        const std::uint64_t max = (1ULL << bits) - 1;
        loaded = ValueRange::Between(input.lo <= max ? input.lo : 0,
                                     std::min(input.hi, max));
      }
      if (!st.dst.empty()) env[st.dst] = loaded;
      continue;
    }
    if (st.op == "hi_store_epi64") {
      if (st.args.size() != 2) continue;
      const ValueRange v = operand(st.args[1]);
      result.has_output = true;
      result.output = v;
      if (op.output_range.declared &&
          !v.Contains(op.output_range.lo, op.output_range.hi)) {
        error(st.line, "HID015",
              "stored value range " + v.ToString() +
                  " is not contained in the declared range OUT " +
                  std::to_string(op.output_range.lo) + ".." +
                  std::to_string(op.output_range.hi));
      }
      continue;
    }
    if (st.op == "hi_gather_epi64") {
      if (st.args.size() != 2 || st.dst.empty()) continue;
      const ValueRange idx = operand(st.args[1]);
      auto extent = op.pointer_extents.find(st.args[0]);
      if (extent == op.pointer_extents.end()) {
        if (require_bounded_gathers) {
          warn(st.line, "HID017",
               "gather through ptr '" + st.args[0] +
                   "' has no declared extent; index bounds (" +
                   idx.ToString() + ") cannot be proven");
        }
      } else if (idx.hi >= extent->second) {
        error(st.line, "HID013",
              "gather index range " + idx.ToString() +
                  " may exceed ptr '" + st.args[0] +
                  "' declared extent " +
                  std::to_string(extent->second));
      }
      env[st.dst] = ValueRange::Full();  // pointee values are opaque
      continue;
    }
    if (st.dst.empty() || st.args.empty()) continue;

    const ValueRange a = operand(st.args[0]);
    const ValueRange b = st.has_immediate
                             ? ValueRange::Exact(st.immediate)
                             : (st.args.size() > 1 ? operand(st.args[1])
                                                   : ValueRange::Exact(0));
    bool wrap = false;
    ValueRange out = ValueRange::Full();
    if (st.op == "hi_add_epi64") {
      out = RangeAdd(a, b, &wrap);
    } else if (st.op == "hi_sub_epi64") {
      out = RangeSub(a, b, &wrap);
    } else if (st.op == "hi_mullo_epi64") {
      out = RangeMul(a, b, &wrap);
    } else if (st.op == "hi_and_epi64") {
      out = RangeAnd(a, b);
    } else if (st.op == "hi_or_epi64") {
      out = RangeOr(a, b);
    } else if (st.op == "hi_xor_epi64") {
      out = RangeXor(a, b);
    } else if (st.op == "hi_min_epu64") {
      out = RangeMinU(a, b);
    } else if (st.op == "hi_srli_epi64" || st.op == "hi_srlv_epi64") {
      out = RangeShr(a, b);
      if (!st.has_immediate && b.hi >= 64) {
        error(st.line, "HID016",
              "variable shift count range " + b.ToString() +
                  " reaches 64; the scalar lowering is undefined there "
                  "and diverges from the vector semantics");
      }
    } else if (st.op == "hi_slli_epi64" || st.op == "hi_sllv_epi64") {
      out = RangeShl(a, b, &wrap);
      if (!st.has_immediate && b.hi >= 64) {
        error(st.line, "HID016",
              "variable shift count range " + b.ToString() +
                  " reaches 64; the scalar lowering is undefined there "
                  "and diverges from the vector semantics");
      }
    }
    check_wrap(wrap, st, a, b);
    env[st.dst] = out;
  }
  return result;
}

}  // namespace analysis
}  // namespace hef
