#include "analysis/symbolic_expr.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

namespace hef {
namespace analysis {

namespace {

// Fold two constants under an AC op.
std::uint64_t FoldConst(ExprKind kind, std::uint64_t a, std::uint64_t b) {
  switch (kind) {
    case ExprKind::kAdd:
      return a + b;
    case ExprKind::kMul:
      return a * b;
    case ExprKind::kAnd:
      return a & b;
    case ExprKind::kOr:
      return a | b;
    case ExprKind::kXor:
      return a ^ b;
    case ExprKind::kMinU:
      return a < b ? a : b;
    default:
      return 0;
  }
}

// Neutral element of an AC op (folding seed; also the droppable operand).
std::uint64_t Identity(ExprKind kind) {
  switch (kind) {
    case ExprKind::kAdd:
    case ExprKind::kOr:
    case ExprKind::kXor:
      return 0;
    case ExprKind::kMul:
      return 1;
    case ExprKind::kAnd:
    case ExprKind::kMinU:
      return ~0ULL;
    default:
      return 0;
  }
}

bool Idempotent(ExprKind kind) {
  return kind == ExprKind::kAnd || kind == ExprKind::kOr ||
         kind == ExprKind::kMinU;
}

// Absorbing constant, if the op has one (x op absorber == absorber).
bool Absorber(ExprKind kind, std::uint64_t* out) {
  switch (kind) {
    case ExprKind::kMul:
    case ExprKind::kAnd:
    case ExprKind::kMinU:
      *out = 0;
      return true;
    case ExprKind::kOr:
      *out = ~0ULL;
      return true;
    default:
      return false;
  }
}

}  // namespace

bool ExprArena::Key::operator<(const Key& o) const {
  return std::tie(kind, value, input_offset, ptr, operands) <
         std::tie(o.kind, o.value, o.input_offset, o.ptr, o.operands);
}

const Expr* ExprArena::Intern(Key key) {
  auto it = nodes_.find(key);
  if (it != nodes_.end()) return it->second.get();
  auto node = std::make_unique<Expr>();
  node->kind = key.kind;
  node->value = key.value;
  node->input_offset = key.input_offset;
  node->ptr = key.ptr;
  node->operands = key.operands;
  node->id = static_cast<int>(nodes_.size());
  const Expr* raw = node.get();
  nodes_.emplace(std::move(key), std::move(node));
  return raw;
}

const Expr* ExprArena::Const(std::uint64_t v) {
  return Intern(Key{ExprKind::kConst, v, 0, "", {}});
}

const Expr* ExprArena::Input(int offset, int bits) {
  return Intern(Key{ExprKind::kInput, static_cast<std::uint64_t>(bits),
                    offset, "", {}});
}

const Expr* ExprArena::Undef(int id) {
  return Intern(Key{ExprKind::kUndef, 0, id, "", {}});
}

const Expr* ExprArena::Gather(const std::string& ptr, const Expr* index) {
  return Intern(Key{ExprKind::kGather, 0, 0, ptr, {index}});
}

// Shared normalizer of the six AC ops: flatten nested same-kind nodes,
// fold every constant operand, drop identities, apply the absorber,
// cancel xor pairs / dedupe idempotent operands, sort canonically.
const Expr* ExprArena::AcOp(ExprKind kind, const Expr* a, const Expr* b) {
  std::vector<const Expr*> flat;
  std::uint64_t folded = Identity(kind);
  auto absorb = [&](const Expr* e) {
    if (e->kind == kind) {
      for (const Expr* op : e->operands) {
        if (op->kind == ExprKind::kConst) {
          folded = FoldConst(kind, folded, op->value);
        } else {
          flat.push_back(op);
        }
      }
    } else if (e->kind == ExprKind::kConst) {
      folded = FoldConst(kind, folded, e->value);
    } else {
      flat.push_back(e);
    }
  };
  absorb(a);
  absorb(b);

  std::uint64_t absorber = 0;
  if (Absorber(kind, &absorber) && folded == absorber) {
    return Const(absorber);
  }

  // Distribute a constant factor over a sum — c*(x+y) == c*x + c*y mod
  // 2^64 — so "x << 1" and "x + x" normalize to the same node. Only the
  // single-sum, constant-coefficient case; general products stay opaque.
  if (kind == ExprKind::kMul && folded != 1 && flat.size() == 1 &&
      flat[0]->kind == ExprKind::kAdd) {
    const Expr* acc = Const(0);
    for (const Expr* term : flat[0]->operands) {
      acc = Add(acc, Mul(term, Const(folded)));
    }
    return acc;
  }

  // Collect like terms in a sum: x + x -> 2x, 3x + (2^64-1)x -> 2x, and
  // a - a (encoded as a + (2^64-1)*a) cancels to 0. Coefficients live on
  // each product's folded constant operand.
  if (kind == ExprKind::kAdd) {
    std::vector<const Expr*> bases;           // first-seen order
    std::map<const Expr*, std::uint64_t> coeff;
    for (const Expr* e : flat) {
      const Expr* base = e;
      std::uint64_t c = 1;
      if (e->kind == ExprKind::kMul) {
        std::vector<const Expr*> rest;
        for (const Expr* op : e->operands) {
          if (op->kind == ExprKind::kConst) {
            c = op->value;  // a normalized product holds at most one
          } else {
            rest.push_back(op);
          }
        }
        if (rest.size() == 1) {
          base = rest[0];
        } else if (c != 1) {
          const Expr* prod = rest[0];
          for (std::size_t i = 1; i < rest.size(); ++i) {
            prod = Mul(prod, rest[i]);
          }
          base = prod;
        }
      }
      auto [it, fresh] = coeff.emplace(base, 0);
      if (fresh) bases.push_back(base);
      it->second += c;  // mod 2^64, exactly the lane arithmetic
    }
    flat.clear();
    for (const Expr* base : bases) {
      const std::uint64_t c = coeff[base];
      if (c == 0) continue;
      flat.push_back(c == 1 ? base : Mul(base, Const(c)));
    }
  }

  std::sort(flat.begin(), flat.end(),
            [](const Expr* x, const Expr* y) { return x->id < y->id; });
  if (kind == ExprKind::kXor) {
    // x ^ x cancels: drop operands appearing an even number of times.
    std::vector<const Expr*> kept;
    for (std::size_t i = 0; i < flat.size();) {
      std::size_t j = i;
      while (j < flat.size() && flat[j] == flat[i]) ++j;
      if ((j - i) % 2 == 1) kept.push_back(flat[i]);
      i = j;
    }
    flat = std::move(kept);
  } else if (Idempotent(kind)) {
    flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  }

  if (folded != Identity(kind)) {
    flat.push_back(Const(folded));
    std::sort(flat.begin(), flat.end(),
              [](const Expr* x, const Expr* y) { return x->id < y->id; });
  }
  if (flat.empty()) return Const(Identity(kind));
  if (flat.size() == 1) return flat[0];
  return Intern(Key{kind, 0, 0, "", std::move(flat)});
}

const Expr* ExprArena::Add(const Expr* a, const Expr* b) {
  return AcOp(ExprKind::kAdd, a, b);
}
const Expr* ExprArena::Mul(const Expr* a, const Expr* b) {
  return AcOp(ExprKind::kMul, a, b);
}
const Expr* ExprArena::And(const Expr* a, const Expr* b) {
  return AcOp(ExprKind::kAnd, a, b);
}
const Expr* ExprArena::Or(const Expr* a, const Expr* b) {
  return AcOp(ExprKind::kOr, a, b);
}
const Expr* ExprArena::Xor(const Expr* a, const Expr* b) {
  return AcOp(ExprKind::kXor, a, b);
}
const Expr* ExprArena::MinU(const Expr* a, const Expr* b) {
  return AcOp(ExprKind::kMinU, a, b);
}

const Expr* ExprArena::Sub(const Expr* a, const Expr* b) {
  // a - b == a + (2^64 - 1) * b under wrapping arithmetic; normalizing
  // through Add/Mul lets subtraction chains reassociate and fold.
  return Add(a, Mul(b, Const(~0ULL)));
}

const Expr* ExprArena::Shr(const Expr* a, const Expr* amount) {
  if (amount->kind == ExprKind::kConst) {
    const std::uint64_t c = amount->value;
    if (c >= 64) return Const(0);  // the intrinsics' semantics
    if (c == 0) return a;
    if (a->kind == ExprKind::kConst) return Const(a->value >> c);
  }
  return Intern(Key{ExprKind::kShr, 0, 0, "", {a, amount}});
}

const Expr* ExprArena::Shl(const Expr* a, const Expr* amount) {
  if (amount->kind == ExprKind::kConst) {
    const std::uint64_t c = amount->value;
    if (c >= 64) return Const(0);
    // x << c == x * 2^c: route through Mul so "x << 1" == "x + x".
    return Mul(a, Const(1ULL << c));
  }
  return Intern(Key{ExprKind::kShl, 0, 0, "", {a, amount}});
}

std::string ExprToString(const Expr* e, int max_depth) {
  if (e == nullptr) return "<null>";
  if (max_depth <= 0) return "...";
  char buf[32];
  switch (e->kind) {
    case ExprKind::kConst:
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(e->value));
      return buf;
    case ExprKind::kInput:
      return (e->value == 64 ? std::string("in[")
                             : "in_u" + std::to_string(e->value) + "[") +
             std::to_string(e->input_offset) + "]";
    case ExprKind::kUndef:
      return "undef#" + std::to_string(e->input_offset);
    case ExprKind::kGather:
      return e->ptr + "[" + ExprToString(e->operands[0], max_depth - 1) +
             "]";
    default:
      break;
  }
  const char* name = "?";
  switch (e->kind) {
    case ExprKind::kAdd: name = "add"; break;
    case ExprKind::kMul: name = "mul"; break;
    case ExprKind::kAnd: name = "and"; break;
    case ExprKind::kOr: name = "or"; break;
    case ExprKind::kXor: name = "xor"; break;
    case ExprKind::kMinU: name = "minu"; break;
    case ExprKind::kShr: name = "shr"; break;
    case ExprKind::kShl: name = "shl"; break;
    default: break;
  }
  std::string out = std::string("(") + name;
  for (const Expr* op : e->operands) {
    out += ' ';
    out += ExprToString(op, max_depth - 1);
  }
  return out + ")";
}

}  // namespace analysis
}  // namespace hef
