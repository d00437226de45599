// Operator templates: the paper's representation of an operator written
// once in the hybrid intermediate description (Fig. 6(a)), parsed from a
// small line-oriented language that the translator (Algorithm 1) expands
// into concrete hybrid code.
//
// Template grammar (one statement per line, '#' comments):
//
//   operator <name>
//   ptr <name> [<count>]            # optional pointer parameter (gathers);
//                                   # [<count>] declares the element count
//                                   # behind it for the bounds prover
//   const <name> = <integer>        # constant: one scalar + one SIMD copy
//   var <name>                      # hybrid variable: unrolled per instance
//   range IN <lo>..<hi>             # declared value range of the IN stream
//   range OUT <lo>..<hi>            # asserted value range of the OUT stream
//   nowrap                          # assert no unsigned wraparound (HID014)
//   body:
//   <dst> = hi_load_epi64(IN)       # stream load (offset per instance)
//   <dst> = hi_load_epu16(IN)       # widening load: IN holds 16-bit
//                                   # (or epu8 / epu32) unsigned values,
//                                   # each zero-extended to 64 bits
//   <dst> = hi_<op>(<a>[, <b>])     # computational statement
//   <dst> = hi_srli_epi64(<a>, <imm>)
//   <dst> = hi_gather_epi64(<ptr>, <idx>)
//   hi_store_epi64(OUT, <src>)      # stream store
//
// Declarations must precede the body (the translator's rule, §IV-B), and
// nested calls are not allowed — exactly one HID op per line.

#ifndef HEF_CODEGEN_OPERATOR_TEMPLATE_H_
#define HEF_CODEGEN_OPERATOR_TEMPLATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace hef {

struct TemplateStatement {
  std::string op;                  // "hi_mullo_epi64", ...
  std::string dst;                 // empty for stores
  std::vector<std::string> args;   // variable / constant / ptr names, or
                                   // "IN" / "OUT" stream markers
  std::uint64_t immediate = 0;     // shift counts
  bool has_immediate = false;
  int line = 0;                    // 1-based source line (diagnostics)
};

// Inclusive declared value range ([lo, hi]) of a stream, consumed by the
// value-range abstract interpreter (src/analysis/value_range).
struct DeclaredRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = ~0ULL;
  int line = 0;        // declaration line, for diagnostics
  bool declared = false;
};

struct OperatorTemplate {
  std::string name;
  std::vector<std::string> pointer_params;           // at most one
  std::map<std::string, std::uint64_t> constants;    // name -> value
  std::vector<std::string> variables;
  std::vector<TemplateStatement> body;
  // Source line of each declaration (ptr/const/var), for diagnostics.
  std::map<std::string, int> decl_lines;

  // Value-range metadata (all optional). `pointer_extents` holds the
  // declared element count of a "ptr <name> [<count>]" parameter — the
  // bounds the gather prover (HID013) checks indices against. `nowrap`
  // asserts the template's arithmetic never wraps modulo 2^64 (HID014);
  // hash templates intentionally wrap and leave it off.
  std::map<std::string, std::uint64_t> pointer_extents;
  DeclaredRange input_range;
  DeclaredRange output_range;
  bool nowrap = false;

  // Parses and validates a template. Errors carry the offending line.
  static Result<OperatorTemplate> Parse(const std::string& text);

  // Grammar-only parse: accepts templates that are syntactically well
  // formed but semantically wrong (undeclared names, reads before
  // assignment, malformed load/store/gather shapes, missing stream
  // traffic). The HID verifier (src/analysis) consumes this form so it
  // can report *all* semantic diagnostics with rule IDs instead of
  // stopping at the first, the way Parse() does.
  static Result<OperatorTemplate> ParseSyntaxOnly(const std::string& text);

  // Reads and parses a template file (IoError if unreadable).
  static Result<OperatorTemplate> ParseFile(const std::string& path);

  bool IsVariable(const std::string& n) const;
  bool IsConstant(const std::string& n) const;
  bool IsPointer(const std::string& n) const;
};

// Element width in bits of the IN stream a load op reads: 64 for
// hi_load_epi64, 8 / 16 / 32 for the widening hi_load_epu{8,16,32}, and
// 0 when `op` is not a stream load.
int LoadOpBits(const std::string& op);
inline bool IsLoadOp(const std::string& op) { return LoadOpBits(op) != 0; }

// Element width of a template's IN stream: that of its first load, 64
// when it has none. Every load of a template reads the same width (the
// parser and HID004 enforce it).
int InputBits(const OperatorTemplate& op);

// Templates for the paper's two synthetic operators.
std::string BuiltinMurmurTemplate();
std::string BuiltinCrc64Template();

}  // namespace hef

#endif  // HEF_CODEGEN_OPERATOR_TEMPLATE_H_
