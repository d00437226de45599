#include "analysis/hid_verifier.h"

#include <cstdlib>
#include <set>

#include "analysis/value_range.h"
#include "telemetry/metrics.h"

namespace hef {
namespace analysis {

namespace {

// Template operand count per op (the table's `arity` counts variable
// inputs of the lowering; the template-level count folds in the stream /
// pointer operand the translator synthesizes the address for).
int ExpectedTemplateArgs(const std::string& op, const OpPattern& pattern) {
  if (IsLoadOp(op)) return 1;            // (IN)
  if (op == "hi_store_epi64") return 2;  // (OUT, src)
  if (op == "hi_gather_epi64") return 2;  // (ptr, idx)
  return pattern.arity;
}

class Verifier {
 public:
  Verifier(const OperatorTemplate& op, const DescriptionTable& table,
           const VerifyOptions& options)
      : op_(op), table_(table), options_(options) {}

  std::vector<Diagnostic> Run() {
    CheckTablePatterns();
    CheckHostIsa();
    std::set<std::string> assigned;
    bool loaded = false;
    bool stored = false;
    for (const TemplateStatement& st : op_.body) {
      const bool is_load = IsLoadOp(st.op);
      const bool is_store = st.op == "hi_store_epi64";
      const bool is_gather = st.op == "hi_gather_epi64";

      // HID007: the op must exist and have a lowering for the requested
      // vector ISA and for scalar (the tail loop always runs scalar).
      Result<OpPattern> pattern = table_.Lookup(st.op);
      if (!pattern.ok()) {
        Error(st.line, "HID007",
              "op '" + st.op + "' is not in the description table");
        continue;  // every other rule needs the pattern
      }
      if (pattern.value().ForIsa(options_.vector_isa).empty()) {
        Error(st.line, "HID007",
              "op '" + st.op + "' has no pattern for vector ISA " +
                  IsaName(options_.vector_isa));
      }
      if (pattern.value().scalar.empty()) {
        Error(st.line, "HID007",
              "op '" + st.op +
                  "' has no scalar pattern (the tail loop requires one)");
      }

      // HID002: exactly the stores define nothing; everything else must
      // define a declared hybrid variable.
      if (is_store) {
        if (!st.dst.empty()) {
          Error(st.line, "HID002",
                "store must not assign a destination ('" + st.dst + "')");
        }
      } else if (st.dst.empty()) {
        Error(st.line, "HID002", "op '" + st.op + "' needs a destination");
      } else if (!op_.IsVariable(st.dst)) {
        Error(st.line, "HID002",
              "destination '" + st.dst + "' is not a declared var");
      }

      // HID003: every operand name must be declared (or be a stream
      // marker). Declarations precede the body by grammar; a name that
      // reaches here undeclared was never declared at all.
      for (const std::string& arg : st.args) {
        if (arg == "IN" || arg == "OUT") continue;
        if (!op_.IsVariable(arg) && !op_.IsConstant(arg) &&
            !op_.IsPointer(arg)) {
          Error(st.line, "HID003",
                "name '" + arg + "' is used but never declared");
        }
      }

      // HID004: stream discipline. IN may only be loaded, OUT only
      // stored, and the stream ops may touch nothing else.
      for (std::size_t i = 0; i < st.args.size(); ++i) {
        const std::string& arg = st.args[i];
        if (arg == "IN" && !(is_load && i == 0)) {
          Error(st.line, "HID004", "IN may only appear as the load source");
        }
        if (arg == "OUT" && !(is_store && i == 0)) {
          Error(st.line, "HID004",
                "OUT may only appear as the store target");
        }
      }
      if (is_load && (st.args.empty() || st.args[0] != "IN")) {
        Error(st.line, "HID004", "load must read the IN stream");
      }
      if (is_load && LoadOpBits(st.op) != InputBits(op_)) {
        Error(st.line, "HID004",
              "load '" + st.op +
                  "' disagrees with the template's first load on the IN "
                  "element width");
      }
      if (is_store && (st.args.empty() || st.args[0] != "OUT")) {
        Error(st.line, "HID004", "store must write the OUT stream");
      }

      // HID005: gathers go through the declared ptr, and the ptr goes
      // nowhere else.
      if (is_gather) {
        if (st.args.empty() || !op_.IsPointer(st.args[0])) {
          Error(st.line, "HID005",
                "gather base must be the declared ptr parameter");
        }
        if (st.args.size() > 1 && !op_.IsVariable(st.args[1])) {
          Error(st.line, "HID005",
                "gather index must be a hybrid var");
        }
      }
      for (std::size_t i = 0; i < st.args.size(); ++i) {
        if (op_.IsPointer(st.args[i]) && !(is_gather && i == 0)) {
          Error(st.line, "HID005",
                "ptr '" + st.args[i] +
                    "' may only appear as a gather base");
        }
      }

      // HID006: operand count and immediate use must agree with the
      // description table.
      const int expected = ExpectedTemplateArgs(st.op, pattern.value());
      if (static_cast<int>(st.args.size()) != expected) {
        Error(st.line, "HID006",
              "op '" + st.op + "' takes " + std::to_string(expected) +
                  " operand(s), got " + std::to_string(st.args.size()));
      }
      if (pattern.value().has_immediate && !st.has_immediate) {
        Error(st.line, "HID006",
              "op '" + st.op + "' requires an immediate");
      }
      if (!pattern.value().has_immediate && st.has_immediate) {
        Error(st.line, "HID006",
              "op '" + st.op + "' does not take an immediate");
      }

      // HID009: shift counts must stay inside the 64-bit lane.
      if (pattern.value().has_immediate && st.has_immediate &&
          st.immediate >= 64) {
        Error(st.line, "HID009",
              "immediate " + std::to_string(st.immediate) +
                  " is out of range for 64-bit lanes");
      }

      // HID001: definition before use. The store source is read like any
      // other operand.
      for (const std::string& arg : st.args) {
        if (op_.IsVariable(arg) && assigned.count(arg) == 0) {
          Error(st.line, "HID001",
                "var '" + arg + "' is read before any assignment");
        }
      }
      if (!st.dst.empty() && op_.IsVariable(st.dst)) {
        assigned.insert(st.dst);
      }
      if (is_load) loaded = true;
      if (is_store) stored = true;
    }

    // HID010: the kernel must be a stream map — at least one IN load and
    // one OUT store, or the generated loop reads/writes nothing.
    if (!loaded) {
      Error(0, "HID010", "body never loads the IN stream");
    }
    if (!stored) {
      Error(0, "HID010", "body never stores the OUT stream");
    }

    // HID008: declared vars that are never read are wasted registers per
    // instance (warning; a write-only var also trips this).
    for (const std::string& var : op_.variables) {
      bool read = false;
      for (const TemplateStatement& st : op_.body) {
        for (const std::string& arg : st.args) {
          if (arg == var) read = true;
        }
      }
      if (!read) {
        Warn(DeclLine(var), "HID008",
             "var '" + var + "' is never read");
      }
    }
    return std::move(diags_);
  }

 private:
  int DeclLine(const std::string& name) const {
    auto it = op_.decl_lines.find(name);
    return it == op_.decl_lines.end() ? 0 : it->second;
  }

  // HID012: the description table itself must be self-consistent for
  // every op the template uses (placeholders vs arity/immediate — the
  // table-load contract).
  void CheckTablePatterns() {
    std::set<std::string> checked;
    for (const TemplateStatement& st : op_.body) {
      if (!checked.insert(st.op).second) continue;
      Result<OpPattern> pattern = table_.Lookup(st.op);
      if (!pattern.ok()) continue;  // HID007 reports the missing op
      const Status valid =
          DescriptionTable::ValidatePattern(st.op, pattern.value());
      if (!valid.ok()) {
        Error(st.line, "HID012", valid.message());
      }
    }
  }

  // HID011 (opt-in): the requested vector ISA must run on this host.
  void CheckHostIsa() {
    if (!options_.check_host_isa) return;
    if (options_.vector_isa == Isa::kScalar) return;
    const Isa best = CpuFeatures::Get().BestIsa();
    const bool ok =
        options_.vector_isa == Isa::kAvx2
            ? best != Isa::kScalar
            : best == Isa::kAvx512;
    if (!ok) {
      Warn(0, "HID011",
           std::string("vector ISA ") + IsaName(options_.vector_isa) +
               " is not supported on this host (best: " + IsaName(best) +
               ")");
    }
  }

  void Error(int line, const char* rule, const std::string& msg) {
    diags_.push_back(Diagnostic{rule, Severity::kError, line, msg});
  }
  void Warn(int line, const char* rule, const std::string& msg) {
    diags_.push_back(Diagnostic{rule, Severity::kWarning, line, msg});
  }

  const OperatorTemplate& op_;
  const DescriptionTable& table_;
  const VerifyOptions& options_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

const char* SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::string Diagnostic::ToString() const {
  std::string out = "line " + std::to_string(line) + ": ";
  out += SeverityName(severity);
  out += " [" + rule_id + "] " + message;
  return out;
}

std::vector<Diagnostic> VerifyTemplate(const OperatorTemplate& op,
                                       const DescriptionTable& table,
                                       const VerifyOptions& options) {
  std::vector<Diagnostic> diags = Verifier(op, table, options).Run();
  // The range interpreter (HID013–HID017) assumes a structurally valid
  // body; run it only once the structural rules are clean.
  if (!HasErrors(diags)) {
    RangeAnalysis ranges =
        AnalyzeValueRanges(op, options.require_bounded_gathers);
    diags.insert(diags.end(), ranges.diagnostics.begin(),
                 ranges.diagnostics.end());
  }
  auto& registry = telemetry::MetricsRegistry::Get();
  registry.counter("analysis.templates_verified").Increment();
  for (const Diagnostic& d : diags) {
    registry
        .counter(d.severity == Severity::kError
                     ? "analysis.diagnostics_errors"
                     : "analysis.diagnostics_warnings")
        .Increment();
  }
  return diags;
}

std::vector<Diagnostic> LintTemplateText(const std::string& text,
                                         const DescriptionTable& table,
                                         const VerifyOptions& options,
                                         OperatorTemplate* parsed) {
  Result<OperatorTemplate> op = OperatorTemplate::ParseSyntaxOnly(text);
  if (!op.ok()) {
    telemetry::MetricsRegistry::Get()
        .counter("analysis.diagnostics_errors")
        .Increment();
    // Parser messages carry the location as a "template line N:" prefix;
    // lift it into the diagnostic so multi-file lint runs attribute the
    // finding to a real line instead of line 0.
    const std::string& msg = op.status().message();
    int line = 0;
    const std::string prefix = "template line ";
    if (msg.compare(0, prefix.size(), prefix) == 0) {
      line = std::atoi(msg.c_str() + prefix.size());
    }
    return {Diagnostic{"HID000", Severity::kError, line, msg}};
  }
  if (parsed != nullptr) *parsed = op.value();
  return VerifyTemplate(op.value(), table, options);
}

bool HasErrors(const std::vector<Diagnostic>& diagnostics) {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

Status DiagnosticsToStatus(const std::string& operator_name,
                           const std::vector<Diagnostic>& diagnostics) {
  int errors = 0;
  const Diagnostic* first = nullptr;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (first == nullptr) first = &d;
    ++errors;
  }
  if (first == nullptr) return Status::OK();
  return Status::InvalidArgument(
      "template '" + operator_name + "' failed verification (" +
      std::to_string(errors) + " error(s)); first: " + first->ToString());
}

}  // namespace analysis
}  // namespace hef
