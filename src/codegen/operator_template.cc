#include "codegen/operator_template.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "algo/murmur.h"

namespace hef {

namespace {

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// Strips a '#' comment and trims.
std::string CleanLine(const std::string& line) {
  const auto hash = line.find('#');
  return Trim(hash == std::string::npos ? line : line.substr(0, hash));
}

bool IsIdentifier(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return !std::isdigit(static_cast<unsigned char>(s[0]));
}

bool ParseUint(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 0);  // 0: handles 0x... and decimal
  return end != nullptr && *end == '\0';
}

// Splits "hi_op(a, b)" -> op name + raw args.
bool SplitCall(const std::string& expr, std::string* op,
               std::vector<std::string>* args) {
  const auto open = expr.find('(');
  if (open == std::string::npos || expr.back() != ')') return false;
  *op = Trim(expr.substr(0, open));
  const std::string inner = expr.substr(open + 1, expr.size() - open - 2);
  args->clear();
  std::string current;
  for (char c : inner) {
    if (c == ',') {
      args->push_back(Trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  const std::string last = Trim(current);
  if (!last.empty()) args->push_back(last);
  return !op->empty();
}

}  // namespace

bool OperatorTemplate::IsVariable(const std::string& n) const {
  return std::find(variables.begin(), variables.end(), n) != variables.end();
}
bool OperatorTemplate::IsConstant(const std::string& n) const {
  return constants.count(n) != 0;
}
bool OperatorTemplate::IsPointer(const std::string& n) const {
  return std::find(pointer_params.begin(), pointer_params.end(), n) !=
         pointer_params.end();
}

namespace {

// Shared parser. `strict` adds the semantic layer Parse() has always
// enforced (declared names only, definition-before-use, load/store/gather
// shapes, required stream traffic); ParseSyntaxOnly() turns it off so the
// HID verifier can collect every semantic diagnostic itself.
Result<OperatorTemplate> ParseTemplate(const std::string& text,
                                       bool strict) {
  OperatorTemplate t;
  bool in_body = false;
  bool loaded = false;
  bool stored = false;
  // Variables assigned so far — reading an unassigned hybrid variable
  // would generate C++ reading indeterminate registers.
  std::set<std::string> assigned;

  std::istringstream stream(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    const std::string line = CleanLine(raw);
    if (line.empty()) continue;
    auto fail = [&](const std::string& msg) {
      return Status::InvalidArgument("template line " +
                                     std::to_string(line_no) + ": " + msg +
                                     " ('" + line + "')");
    };

    if (!in_body) {
      if (line.rfind("operator ", 0) == 0) {
        t.name = Trim(line.substr(9));
        if (!IsIdentifier(t.name)) return fail("bad operator name");
        continue;
      }
      if (line.rfind("ptr ", 0) == 0) {
        std::string rest = Trim(line.substr(4));
        // Optional "[<count>]" extent suffix: the declared element count
        // behind the pointer, for the gather bounds prover (HID013).
        std::uint64_t extent = 0;
        bool has_extent = false;
        const auto open = rest.find('[');
        if (open != std::string::npos) {
          if (rest.back() != ']') return fail("unterminated ptr extent");
          const std::string inside =
              Trim(rest.substr(open + 1, rest.size() - open - 2));
          if (!ParseUint(inside, &extent) || extent == 0) {
            return fail("ptr extent must be a positive integer");
          }
          has_extent = true;
          rest = Trim(rest.substr(0, open));
        }
        const std::string name = rest;
        if (!IsIdentifier(name)) return fail("bad ptr name");
        t.pointer_params.push_back(name);
        t.decl_lines.emplace(name, line_no);
        if (has_extent) t.pointer_extents[name] = extent;
        if (t.pointer_params.size() > 1) {
          return fail("at most one ptr parameter is supported");
        }
        continue;
      }
      if (line.rfind("range ", 0) == 0) {
        // "range IN <lo>..<hi>" / "range OUT <lo>..<hi>".
        const std::string rest = Trim(line.substr(6));
        const auto space = rest.find_first_of(" \t");
        if (space == std::string::npos) return fail("range needs a stream");
        const std::string stream = Trim(rest.substr(0, space));
        if (stream != "IN" && stream != "OUT") {
          return fail("range stream must be IN or OUT");
        }
        const std::string bounds = Trim(rest.substr(space + 1));
        const auto dots = bounds.find("..");
        std::uint64_t lo = 0, hi = 0;
        if (dots == std::string::npos ||
            !ParseUint(Trim(bounds.substr(0, dots)), &lo) ||
            !ParseUint(Trim(bounds.substr(dots + 2)), &hi) || lo > hi) {
          return fail("range bounds must be '<lo>..<hi>' with lo <= hi");
        }
        DeclaredRange& r = stream == "IN" ? t.input_range : t.output_range;
        if (r.declared) return fail("duplicate range declaration");
        r = DeclaredRange{lo, hi, line_no, /*declared=*/true};
        continue;
      }
      if (line == "nowrap") {
        t.nowrap = true;
        continue;
      }
      if (line.rfind("const ", 0) == 0) {
        const auto eq = line.find('=');
        if (eq == std::string::npos) return fail("const needs '='");
        const std::string name = Trim(line.substr(6, eq - 6));
        std::uint64_t value = 0;
        if (!IsIdentifier(name) || !ParseUint(Trim(line.substr(eq + 1)),
                                              &value)) {
          return fail("bad const");
        }
        t.constants[name] = value;
        t.decl_lines.emplace(name, line_no);
        continue;
      }
      if (line.rfind("var ", 0) == 0) {
        const std::string name = Trim(line.substr(4));
        if (!IsIdentifier(name)) return fail("bad var name");
        t.variables.push_back(name);
        t.decl_lines.emplace(name, line_no);
        continue;
      }
      if (line == "body:") {
        in_body = true;
        continue;
      }
      return fail("unknown declaration");
    }

    // Body statement: "dst = hi_op(...)" or "hi_store_epi64(OUT, src)".
    TemplateStatement st;
    st.line = line_no;
    std::string expr = line;
    const auto eq = line.find('=');
    // '=' inside the call parens never happens in this grammar, so a
    // top-level '=' before '(' separates dst from the call.
    const auto paren = line.find('(');
    if (eq != std::string::npos && eq < paren) {
      st.dst = Trim(line.substr(0, eq));
      if (strict && !t.IsVariable(st.dst)) {
        return fail("assignment to undeclared variable '" + st.dst + "'");
      }
      if (!strict && !IsIdentifier(st.dst)) {
        return fail("bad destination name");
      }
      expr = Trim(line.substr(eq + 1));
    }
    std::vector<std::string> raw_args;
    if (!SplitCall(expr, &st.op, &raw_args)) return fail("malformed call");
    if (st.op.rfind("hi_", 0) != 0) return fail("ops must be hi_*");

    for (const std::string& arg : raw_args) {
      std::uint64_t imm = 0;
      if (arg == "IN" || arg == "OUT" || t.IsVariable(arg) ||
          t.IsConstant(arg) || t.IsPointer(arg)) {
        st.args.push_back(arg);
      } else if (ParseUint(arg, &imm)) {
        if (st.has_immediate) return fail("multiple immediates");
        st.immediate = imm;
        st.has_immediate = true;
      } else if (!strict && IsIdentifier(arg)) {
        // Undeclared name: kept for the verifier to flag (HID003).
        st.args.push_back(arg);
      } else {
        return fail("unknown argument '" + arg + "'");
      }
    }

    if (strict) {
      // Definition-before-use: every variable operand (beyond the store
      // source, checked below like any other) must have been assigned by
      // an earlier statement.
      for (const std::string& arg : st.args) {
        if (t.IsVariable(arg) && assigned.count(arg) == 0) {
          return fail("variable '" + arg + "' read before assignment");
        }
      }
    }
    if (!st.dst.empty()) assigned.insert(st.dst);

    // Structural checks.
    if (IsLoadOp(st.op)) {
      if (strict &&
          (st.args.size() != 1 || st.args[0] != "IN" || st.dst.empty())) {
        return fail("load must be '<var> = " + st.op + "(IN)'");
      }
      if (strict && loaded && LoadOpBits(st.op) != InputBits(t)) {
        return fail("loads disagree on the IN element width");
      }
      loaded = true;
    } else if (st.op == "hi_store_epi64") {
      if (strict &&
          (st.args.size() != 2 || st.args[0] != "OUT" || !st.dst.empty())) {
        return fail("store must be 'hi_store_epi64(OUT, <var>)'");
      }
      stored = true;
    } else if (st.op == "hi_gather_epi64") {
      if (strict && (st.args.size() != 2 || !t.IsPointer(st.args[0]) ||
                     st.dst.empty())) {
        return fail("gather must be '<var> = hi_gather_epi64(<ptr>, <var>)'");
      }
    } else if (strict) {
      if (st.dst.empty()) return fail("computational op needs a dst");
      for (const std::string& arg : st.args) {
        if (arg == "IN" || arg == "OUT" || t.IsPointer(arg)) {
          return fail("bad operand '" + arg + "'");
        }
      }
    }
    t.body.push_back(std::move(st));
  }

  if (t.name.empty()) return Status::InvalidArgument("missing operator name");
  if (!in_body || (strict && t.body.empty())) {
    return Status::InvalidArgument("missing body");
  }
  if (strict && (!loaded || !stored)) {
    return Status::InvalidArgument(
        "body must load from IN and store to OUT");
  }
  return t;
}

}  // namespace

Result<OperatorTemplate> OperatorTemplate::Parse(const std::string& text) {
  return ParseTemplate(text, /*strict=*/true);
}

int LoadOpBits(const std::string& op) {
  if (op == "hi_load_epi64") return 64;
  if (op == "hi_load_epu8") return 8;
  if (op == "hi_load_epu16") return 16;
  if (op == "hi_load_epu32") return 32;
  return 0;
}

int InputBits(const OperatorTemplate& op) {
  for (const TemplateStatement& st : op.body) {
    if (IsLoadOp(st.op)) return LoadOpBits(st.op);
  }
  return 64;
}

Result<OperatorTemplate> OperatorTemplate::ParseSyntaxOnly(
    const std::string& text) {
  return ParseTemplate(text, /*strict=*/false);
}

Result<OperatorTemplate> OperatorTemplate::ParseFile(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::IoError("cannot read template file '" + path + "'");
  }
  std::ostringstream text;
  text << file.rdbuf();
  return Parse(text.str());
}

std::string BuiltinMurmurTemplate() {
  char buf[1400];
  const std::uint64_t h0 = kMurmurDefaultSeed ^ (8ULL * kMurmurM);
  std::snprintf(buf, sizeof(buf),
                "operator murmur\n"
                "const m = 0x%llx\n"
                "const h0 = 0x%llx\n"
                "var data\n"
                "var k\n"
                "var h\n"
                "body:\n"
                "data = hi_load_epi64(IN)\n"
                "k = hi_mullo_epi64(data, m)\n"
                "data = hi_srli_epi64(k, 47)\n"
                "k = hi_xor_epi64(data, k)\n"
                "k = hi_mullo_epi64(k, m)\n"
                "h = hi_xor_epi64(h0, k)\n"
                "h = hi_mullo_epi64(h, m)\n"
                "data = hi_srli_epi64(h, 47)\n"
                "h = hi_xor_epi64(h, data)\n"
                "h = hi_mullo_epi64(h, m)\n"
                "data = hi_srli_epi64(h, 47)\n"
                "h = hi_xor_epi64(h, data)\n"
                "hi_store_epi64(OUT, h)\n",
                static_cast<unsigned long long>(kMurmurM),
                static_cast<unsigned long long>(h0));
  return buf;
}

std::string BuiltinCrc64Template() {
  std::string t =
      "operator crc64\n"
      "ptr table [256]\n"
      "const bytemask = 0xff\n"
      "var data\n"
      "var crc\n"
      "var idx\n"
      "body:\n"
      "data = hi_load_epi64(IN)\n"
      "crc = hi_xor_epi64(data, data)\n";  // crc = 0
  for (int round = 0; round < 8; ++round) {
    t +=
        "idx = hi_xor_epi64(crc, data)\n"
        "idx = hi_and_epi64(idx, bytemask)\n"
        "idx = hi_gather_epi64(table, idx)\n"
        "crc = hi_srli_epi64(crc, 8)\n"
        "crc = hi_xor_epi64(idx, crc)\n"
        "data = hi_srli_epi64(data, 8)\n";
  }
  t += "hi_store_epi64(OUT, crc)\n";
  return t;
}

}  // namespace hef
