#include "codegen/description_table.h"

#include <set>
#include <utility>

#include "common/macros.h"

namespace hef {

namespace {

// Placeholder names referenced by one pattern string ("{dst}" -> "dst").
// Malformed braces ("{x" with no close) are reported as-is so the error
// message shows what the table actually contains.
Result<std::set<std::string>> Placeholders(const std::string& pattern) {
  std::set<std::string> found;
  std::size_t at = 0;
  while ((at = pattern.find('{', at)) != std::string::npos) {
    const std::size_t close = pattern.find('}', at + 1);
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated placeholder");
    }
    found.insert(pattern.substr(at + 1, close - at - 1));
    at = close + 1;
  }
  return found;
}

}  // namespace

DescriptionTable DescriptionTable::Builtin() {
  DescriptionTable t;
  t.AddOp("hi_add_epi64",
          {2, false, "{dst} = {a} + {b};",
           "{dst} = _mm256_add_epi64({a}, {b});",
           "{dst} = _mm512_add_epi64({a}, {b});"});
  t.AddOp("hi_sub_epi64",
          {2, false, "{dst} = {a} - {b};",
           "{dst} = _mm256_sub_epi64({a}, {b});",
           "{dst} = _mm512_sub_epi64({a}, {b});"});
  t.AddOp("hi_mullo_epi64",
          {2, false, "{dst} = {a} * {b};",
           // AVX2 lacks vpmullq; the table lowers to the helper emitted in
           // the generated prelude (see translator).
           "{dst} = hef_mullo_epi64_avx2({a}, {b});",
           "{dst} = _mm512_mullo_epi64({a}, {b});"});
  t.AddOp("hi_and_epi64",
          {2, false, "{dst} = {a} & {b};",
           "{dst} = _mm256_and_si256({a}, {b});",
           "{dst} = _mm512_and_si512({a}, {b});"});
  t.AddOp("hi_or_epi64",
          {2, false, "{dst} = {a} | {b};",
           "{dst} = _mm256_or_si256({a}, {b});",
           "{dst} = _mm512_or_si512({a}, {b});"});
  t.AddOp("hi_xor_epi64",
          {2, false, "{dst} = {a} ^ {b};",
           "{dst} = _mm256_xor_si256({a}, {b});",
           "{dst} = _mm512_xor_si512({a}, {b});"});
  // Unsigned 64-bit minimum. AVX2 has no vpminuq; the table lowers to the
  // helper emitted in the generated prelude (see translator).
  t.AddOp("hi_min_epu64",
          {2, false, "{dst} = {a} < {b} ? {a} : {b};",
           "{dst} = hef_min_epu64_avx2({a}, {b});",
           "{dst} = _mm512_min_epu64({a}, {b});"});
  t.AddOp("hi_srli_epi64",
          {1, true, "{dst} = {a} >> {imm};",
           "{dst} = _mm256_srli_epi64({a}, {imm});",
           "{dst} = _mm512_srli_epi64({a}, {imm});"});
  t.AddOp("hi_slli_epi64",
          {1, true, "{dst} = {a} << {imm};",
           "{dst} = _mm256_slli_epi64({a}, {imm});",
           "{dst} = _mm512_slli_epi64({a}, {imm});"});
  t.AddOp("hi_srlv_epi64",
          {2, false, "{dst} = {a} >> {b};",
           "{dst} = _mm256_srlv_epi64({a}, {b});",
           "{dst} = _mm512_srlv_epi64({a}, {b});"});
  t.AddOp("hi_sllv_epi64",
          {2, false, "{dst} = {a} << {b};",
           "{dst} = _mm256_sllv_epi64({a}, {b});",
           "{dst} = _mm512_sllv_epi64({a}, {b});"});
  t.AddOp("hi_load_epi64",
          {1, false, "{dst} = *({a});",
           "{dst} = _mm256_loadu_si256((const __m256i*)({a}));",
           "{dst} = _mm512_loadu_si512({a});"});
  // Widening loads: IN holds 8/16/32-bit unsigned values, each
  // zero-extended into a 64-bit lane (vpmovzx{b,w,d}q; the translator
  // types the kernel's `in` pointer to match). The AVX-512 forms are the
  // all-lanes masked ones, which seed no undefined register.
  t.AddOp("hi_load_epu8",
          {1, false, "{dst} = (uint64_t)*({a});",
           "{dst} = _mm256_cvtepu8_epi64(_mm_loadu_si32({a}));",
           "{dst} = _mm512_maskz_cvtepu8_epi64((__mmask8)0xFF, "
           "_mm_loadl_epi64((const __m128i*)({a})));"});
  t.AddOp("hi_load_epu16",
          {1, false, "{dst} = (uint64_t)*({a});",
           "{dst} = _mm256_cvtepu16_epi64("
           "_mm_loadl_epi64((const __m128i*)({a})));",
           "{dst} = _mm512_maskz_cvtepu16_epi64((__mmask8)0xFF, "
           "_mm_loadu_si128((const __m128i*)({a})));"});
  t.AddOp("hi_load_epu32",
          {1, false, "{dst} = (uint64_t)*({a});",
           "{dst} = _mm256_cvtepu32_epi64("
           "_mm_loadu_si128((const __m128i*)({a})));",
           "{dst} = _mm512_maskz_cvtepu32_epi64((__mmask8)0xFF, "
           "_mm256_loadu_si256((const __m256i*)({a})));"});
  t.AddOp("hi_store_epi64",
          {2, false, "*({a}) = {b};",
           "_mm256_storeu_si256((__m256i*)({a}), {b});",
           "_mm512_storeu_si512({a}, {b});"});
  t.AddOp("hi_gather_epi64",
          {2, false, "{dst} = ({a})[{b}];",
           "{dst} = _mm256_i64gather_epi64((const long long*)({a}), {b}, "
           "8);",
           "{dst} = _mm512_i64gather_epi64({b}, {a}, 8);"});
  // The shipped table must satisfy its own load-time contract.
  HEF_CHECK_MSG(t.Validate().ok(), "builtin description table invalid");
  return t;
}

void DescriptionTable::AddOp(const std::string& name, OpPattern pattern) {
  ops_[name] = std::move(pattern);
}

Status DescriptionTable::AddOpChecked(const std::string& name,
                                      OpPattern pattern) {
  HEF_RETURN_NOT_OK(ValidatePattern(name, pattern));
  ops_[name] = std::move(pattern);
  return Status::OK();
}

Status DescriptionTable::ValidatePattern(const std::string& name,
                                         const OpPattern& pattern) {
  auto fail = [&name](const std::string& isa, const std::string& msg) {
    return Status::InvalidArgument("description table op '" + name + "' " +
                                   isa + " pattern " + msg);
  };
  if (pattern.arity != 1 && pattern.arity != 2) {
    return Status::InvalidArgument("description table op '" + name +
                                   "' has arity " +
                                   std::to_string(pattern.arity) +
                                   "; only 1 or 2 are supported");
  }
  // -1: not yet seen a non-empty pattern; afterwards 0/1 and every other
  // non-empty ISA pattern must agree on whether the op produces {dst}.
  int produces_dst = -1;
  const std::pair<const char*, const std::string*> columns[] = {
      {"scalar", &pattern.scalar},
      {"avx2", &pattern.avx2},
      {"avx512", &pattern.avx512},
  };
  for (const auto& [isa, text] : columns) {
    if (text->empty()) continue;
    Result<std::set<std::string>> ph = Placeholders(*text);
    if (!ph.ok()) return fail(isa, "has an unterminated '{' placeholder");
    for (const std::string& p : ph.value()) {
      if (p != "dst" && p != "a" && p != "b" && p != "imm") {
        return fail(isa, "references unknown placeholder '{" + p + "}'");
      }
    }
    if (ph.value().count("a") == 0) {
      return fail(isa, "never references {a}");
    }
    const bool has_b = ph.value().count("b") != 0;
    if (pattern.arity == 2 && !has_b) {
      return fail(isa, "never references {b} despite arity 2");
    }
    if (pattern.arity == 1 && has_b) {
      return fail(isa, "references {b} despite arity 1");
    }
    const bool has_imm = ph.value().count("imm") != 0;
    if (pattern.has_immediate && !has_imm) {
      return fail(isa, "never references {imm} despite has_immediate");
    }
    if (!pattern.has_immediate && has_imm) {
      return fail(isa, "references {imm} without has_immediate");
    }
    const int dst = ph.value().count("dst") != 0 ? 1 : 0;
    if (produces_dst == -1) {
      produces_dst = dst;
    } else if (produces_dst != dst) {
      return fail(isa, "disagrees with the other ISA patterns on {dst}");
    }
  }
  if (produces_dst == -1) {
    return Status::InvalidArgument("description table op '" + name +
                                   "' has no pattern for any ISA");
  }
  return Status::OK();
}

Status DescriptionTable::Validate() const {
  for (const auto& [name, pattern] : ops_) {
    HEF_RETURN_NOT_OK(ValidatePattern(name, pattern));
  }
  return Status::OK();
}

bool DescriptionTable::Contains(const std::string& name) const {
  return ops_.count(name) != 0;
}

Result<OpPattern> DescriptionTable::Lookup(const std::string& name) const {
  auto it = ops_.find(name);
  if (it == ops_.end()) {
    return Status::NotFound("no description table entry for '" + name + "'");
  }
  return it->second;
}

const char* DescriptionTable::RegType(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "uint64_t";
    case Isa::kAvx2:
      return "__m256i";
    case Isa::kAvx512:
      return "__m512i";
  }
  return "uint64_t";
}

int DescriptionTable::Lanes(Isa isa) { return IsaLanes64(isa); }

}  // namespace hef
