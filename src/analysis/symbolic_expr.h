// Symbolic expression DAGs — the term language of the translation
// validator (symbolic_executor). Every node is hash-consed inside an
// ExprArena and kept in a normal form, so two HID computations are
// semantically equal (under the normalizer's theory) exactly when their
// roots are the *same pointer*. The theory:
//
//   * 64-bit wrapping unsigned arithmetic (the HID lane model);
//   * constant folding for every op;
//   * commutative/associative flattening + canonical operand order for
//     add / mul / and / or / xor;
//   * identity and annihilator simplification (x+0, x*1, x*0, x&0,
//     x&~0, x|0, x^0, x^x, x&x, x|x, shift-by-0);
//   * xor pair cancellation inside flattened operand lists;
//   * subtraction normalized to a + (2^64-1)*b, and constant left shifts
//     to multiplication by 2^imm, so "x << 1" and "x + x" and "x * 2"
//     all normalize to one node.
//
// The base terms are Input(k) (element k of the IN stream slice being
// verified, tagged with the width it is loaded at), Const, Gather(ptr, idx) (an uninterpreted function per ptr
// parameter), and Undef (a read of a never-written register — never equal
// to anything but itself, so broken schedules refute instead of proving).
//
// Variable shifts keep their own node kinds; like the intrinsics they
// model, the semantics assumed here is "shift count < 64" (HID016 in the
// value-range pass proves that side condition separately).

#ifndef HEF_ANALYSIS_SYMBOLIC_EXPR_H_
#define HEF_ANALYSIS_SYMBOLIC_EXPR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hef {
namespace analysis {

enum class ExprKind {
  kConst,   // value
  kInput,   // input_offset: in[slice_base + k]; value: element bits
  kUndef,   // input_offset doubles as the undef id
  kGather,  // ptr[operands[0]]
  kAdd,     // n-ary, flattened + sorted
  kMul,     // n-ary, flattened + sorted
  kAnd,     // n-ary, flattened + sorted
  kOr,      // n-ary, flattened + sorted
  kXor,     // n-ary, flattened + sorted
  kMinU,    // n-ary unsigned minimum, flattened + sorted
  kShr,     // operands[0] >> operands[1]
  kShl,     // operands[0] << operands[1] (variable count only; constant
            // counts normalize to kMul)
};

struct Expr {
  ExprKind kind = ExprKind::kConst;
  std::uint64_t value = 0;  // kConst payload; kInput element bits
  int input_offset = 0;     // kInput / kUndef payload
  std::string ptr;          // kGather base name
  std::vector<const Expr*> operands;
  // Arena-assigned creation index; the canonical operand order of the
  // AC ops (stable because operands are themselves interned first).
  int id = 0;
};

// Hash-consing factory. All Expr pointers it returns live as long as the
// arena and are canonical: structural equality == pointer equality.
// Proofs must build both sides in the *same* arena.
class ExprArena {
 public:
  ExprArena() = default;
  ExprArena(const ExprArena&) = delete;
  ExprArena& operator=(const ExprArena&) = delete;

  const Expr* Const(std::uint64_t v);
  // Element k of the IN slice, read `bits` wide (64, or 8/16/32 for a
  // widening load's zero-extended lane). Different widths are different
  // symbols: a kernel loading the wrong width cannot prove.
  const Expr* Input(int offset, int bits = 64);
  // A fresh-per-id opaque value; reads of never-written registers map
  // here so they cannot accidentally prove equal to real data.
  const Expr* Undef(int id);
  const Expr* Gather(const std::string& ptr, const Expr* index);

  const Expr* Add(const Expr* a, const Expr* b);
  const Expr* Sub(const Expr* a, const Expr* b);
  const Expr* Mul(const Expr* a, const Expr* b);
  const Expr* And(const Expr* a, const Expr* b);
  const Expr* Or(const Expr* a, const Expr* b);
  const Expr* Xor(const Expr* a, const Expr* b);
  const Expr* MinU(const Expr* a, const Expr* b);
  const Expr* Shr(const Expr* a, const Expr* amount);
  const Expr* Shl(const Expr* a, const Expr* amount);

  std::size_t size() const { return nodes_.size(); }

 private:
  struct Key {
    ExprKind kind;
    std::uint64_t value;
    int input_offset;
    std::string ptr;
    std::vector<const Expr*> operands;
    bool operator<(const Key& o) const;
  };

  const Expr* Intern(Key key);
  const Expr* AcOp(ExprKind kind, const Expr* a, const Expr* b);

  std::map<Key, std::unique_ptr<Expr>> nodes_;
};

// Debug / counterexample rendering ("(add in[0] (mul in[1] 0x3)) ...").
// Shared subtrees print in full; depth is capped to keep messages sane.
std::string ExprToString(const Expr* e, int max_depth = 12);

}  // namespace analysis
}  // namespace hef

#endif  // HEF_ANALYSIS_SYMBOLIC_EXPR_H_
