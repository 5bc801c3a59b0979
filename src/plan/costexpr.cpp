#include "src/plan/costexpr.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/support/checked.h"
#include "src/support/error.h"

namespace incflat {

namespace {

/// A float binop or comparison (1.0 / 0.0): a build-time fold of two
/// constants, and the sweep's value of the node.
inline double eval_f2(COp op, double x, double y) {
  switch (op) {
    case COp::AddF: return x + y;
    case COp::MulF: return x * y;
    case COp::DivF: return x / y;
    case COp::MinF: return std::min(x, y);
    case COp::MaxF: return std::max(x, y);
    case COp::GeF: return x >= y ? 1.0 : 0.0;
    case COp::GtF: return x > y ? 1.0 : 0.0;
    default: INCFLAT_FAIL("costexpr: not a float binop");
  }
}

/// An int binop, for a build-time fold and the sweep alike: `*out = x op
/// y`; false when the result does not fit in int64 (the walker's
/// EvalError, src/support/checked.h).
inline bool eval_i2(COp op, int64_t x, int64_t y, int64_t* out) {
  switch (op) {
    case COp::AddI: return checked_add(x, y, out);
    case COp::SubI: return checked_sub(x, y, out);
    case COp::MulI: return checked_mul(x, y, out);
    case COp::DivI: return checked_div(x, y, out);
    case COp::MinI: *out = std::min(x, y); return true;
    case COp::MaxI: *out = std::max(x, y); return true;
    default: INCFLAT_FAIL("costexpr: not an int binop");
  }
}

bool float_op(COp op) {
  switch (op) {
    case COp::AddF: case COp::MulF: case COp::DivF: case COp::MinF:
    case COp::MaxF: case COp::GeF: case COp::GtF:
      return true;
    default:
      return false;
  }
}

}  // namespace

int CostArena::push(CNode n) {
  nodes_.push_back(n);
  return static_cast<int>(nodes_.size()) - 1;
}

bool CostArena::is_constf(int id, double* v) const {
  const CNode& n = nodes_[static_cast<size_t>(id)];
  if (n.op != COp::ConstF) return false;
  *v = n.f;
  return true;
}

bool CostArena::is_consti(int id, int64_t* v) const {
  const CNode& n = nodes_[static_cast<size_t>(id)];
  if (n.op != COp::ConstI) return false;
  *v = n.i;
  return true;
}

int CostArena::intern(const CNode& n, uint64_t bits) {
  const auto [it, fresh] = consts_.try_emplace(ConstKey{n.op, bits}, 0);
  if (fresh) it->second = push(n);
  return it->second;
}

int CostArena::constf(double v) {
  CNode n;
  n.op = COp::ConstF;
  n.f = v;
  return intern(n, v == 0.0 ? 0 : std::bit_cast<uint64_t>(v));
}

int CostArena::consti(int64_t v) {
  CNode n;
  n.op = COp::ConstI;
  n.i = v;
  return intern(n, static_cast<uint64_t>(v));
}

int CostArena::size_var(const std::string& name) {
  const auto [it, fresh] = vars_.try_emplace(name, 0);
  if (fresh) {
    CNode n;
    n.op = COp::SizeVar;
    n.i = static_cast<int64_t>(var_names_.size());
    it->second = push(n);
    var_names_.push_back(name);
  }
  return it->second;
}

int CostArena::dev_tile_f() { return push(CNode{COp::DevTileF}); }
int CostArena::dev_max_group_i() { return push(CNode{COp::DevMaxGroupI}); }
int CostArena::dev_local_mem_f() { return push(CNode{COp::DevLocalMemF}); }
int CostArena::invalid() { return push(CNode{COp::Invalid}); }

int CostArena::fold2(COp op, int a, int b) {
  double fa, fb;
  int64_t ia, ib;
  if (float_op(op)) {
    if (is_constf(a, &fa) && is_constf(b, &fb)) {
      return op == COp::GeF || op == COp::GtF
                 ? consti(static_cast<int64_t>(eval_f2(op, fa, fb)))
                 : constf(eval_f2(op, fa, fb));
    }
    // Cost quantities are non-negative and finite, so these identities are
    // bitwise-exact (x + 0.0 == x unless x is -0.0; x * 1.0 == x).
    if (op == COp::AddF && is_constf(b, &fb) && fb == 0.0) return a;
    if (op == COp::AddF && is_constf(a, &fa) && fa == 0.0) return b;
    if (op == COp::MulF && is_constf(b, &fb) && fb == 1.0) return a;
    if (op == COp::MulF && is_constf(a, &fa) && fa == 1.0) return b;
  } else {
    int64_t v = 0;
    if (is_consti(a, &ia) && is_consti(b, &ib)) {
      return eval_i2(op, ia, ib, &v) ? consti(v) : invalid();
    }
  }
  CNode n;
  n.op = op;
  n.a = a;
  n.b = b;
  return push(n);
}

int CostArena::addf(int a, int b) { return fold2(COp::AddF, a, b); }
int CostArena::mulf(int a, int b) { return fold2(COp::MulF, a, b); }
int CostArena::divf(int a, int b) { return fold2(COp::DivF, a, b); }
int CostArena::minf(int a, int b) { return fold2(COp::MinF, a, b); }
int CostArena::maxf(int a, int b) { return fold2(COp::MaxF, a, b); }
int CostArena::addi(int a, int b) { return fold2(COp::AddI, a, b); }
int CostArena::subi(int a, int b) { return fold2(COp::SubI, a, b); }
int CostArena::muli(int a, int b) { return fold2(COp::MulI, a, b); }
int CostArena::divi(int a, int b) { return fold2(COp::DivI, a, b); }
int CostArena::mini(int a, int b) { return fold2(COp::MinI, a, b); }
int CostArena::maxi(int a, int b) { return fold2(COp::MaxI, a, b); }
int CostArena::gef(int a, int b) { return fold2(COp::GeF, a, b); }
int CostArena::gtf(int a, int b) { return fold2(COp::GtF, a, b); }

int CostArena::i2f(int a) {
  int64_t v;
  if (is_consti(a, &v)) return constf(static_cast<double>(v));
  CNode n;
  n.op = COp::IntToF;
  n.a = a;
  return push(n);
}

int CostArena::self(int cond, int a, int b) {
  int64_t c;
  if (is_consti(cond, &c)) return c ? a : b;
  if (a == b) return a;
  CNode n;
  n.op = COp::SelF;
  n.a = cond;
  n.b = a;
  n.c = b;
  return push(n);
}

int CostArena::seli(int cond, int a, int b) {
  int64_t c;
  if (is_consti(cond, &c)) return c ? a : b;
  if (a == b) return a;
  CNode n;
  n.op = COp::SelI;
  n.a = cond;
  n.b = a;
  n.c = b;
  return push(n);
}

int CostArena::ceilf_(int a) {
  double v;
  if (is_constf(a, &v)) return constf(std::ceil(v));
  CNode n;
  n.op = COp::CeilF;
  n.a = a;
  return push(n);
}

int CostArena::log2f_(int a) {
  double v;
  if (is_constf(a, &v)) return constf(std::log2(v));
  CNode n;
  n.op = COp::Log2F;
  n.a = a;
  return push(n);
}

CostValues::CostValues(const CostArena& arena, const DeviceProfile& dev,
                       const SizeEnv& sizes) {
  const std::vector<CNode>& ns = arena.nodes();
  vals_.resize(ns.size());
  valid_.assign(ns.size(), 1);
  for (size_t k = 0; k < ns.size(); ++k) {
    const CNode& n = ns[k];
    Val& v = vals_[k];
    const auto a = [&]() -> const Val& {
      return vals_[static_cast<size_t>(n.a)];
    };
    const auto b = [&]() -> const Val& {
      return vals_[static_cast<size_t>(n.b)];
    };
    const auto ok = [&](int id) { return valid_[static_cast<size_t>(id)]; };
    const auto ok2 = [&] { return static_cast<uint8_t>(ok(n.a) & ok(n.b)); };
    // Each op as the build-time folds compute it; with `op` a literal, the
    // inlined switch folds away, so every node dispatches once.
    const auto f2 = [&](COp op) {
      v.f = eval_f2(op, a().f, b().f);
      valid_[k] = ok2();
    };
    const auto cmp2 = [&](COp op) {
      v.i = static_cast<int64_t>(eval_f2(op, a().f, b().f));
      valid_[k] = ok2();
    };
    const auto i2 = [&](COp op) {
      valid_[k] = eval_i2(op, a().i, b().i, &v.i) && ok2();
    };
    switch (n.op) {
      case COp::ConstF: v.f = n.f; break;
      case COp::ConstI: v.i = n.i; break;
      case COp::SizeVar: {  // one node per size variable
        const auto it =
            sizes.find(arena.size_vars()[static_cast<size_t>(n.i)]);
        v.i = it == sizes.end() ? 0 : it->second;
        valid_[k] = it != sizes.end();
        break;
      }
      case COp::DevTileF: v.f = static_cast<double>(dev.tile_size); break;
      case COp::DevMaxGroupI: v.i = dev.max_group_size; break;
      case COp::DevLocalMemF:
        v.f = static_cast<double>(dev.local_mem_bytes);
        break;
      case COp::AddF: f2(COp::AddF); break;
      case COp::MulF: f2(COp::MulF); break;
      case COp::DivF: f2(COp::DivF); break;
      case COp::MinF: f2(COp::MinF); break;
      case COp::MaxF: f2(COp::MaxF); break;
      case COp::GeF: cmp2(COp::GeF); break;
      case COp::GtF: cmp2(COp::GtF); break;
      case COp::AddI: i2(COp::AddI); break;
      case COp::SubI: i2(COp::SubI); break;
      case COp::MulI: i2(COp::MulI); break;
      case COp::DivI: i2(COp::DivI); break;
      case COp::MinI: i2(COp::MinI); break;
      case COp::MaxI: i2(COp::MaxI); break;
      case COp::IntToF:
        v.f = static_cast<double>(a().i);
        valid_[k] = ok(n.a);
        break;
      case COp::SelF:
        v.f = a().i ? b().f : vals_[static_cast<size_t>(n.c)].f;
        valid_[k] = ok(n.a) && (a().i ? ok(n.b) : ok(n.c));
        break;
      case COp::SelI:
        v.i = a().i ? b().i : vals_[static_cast<size_t>(n.c)].i;
        valid_[k] = ok(n.a) && (a().i ? ok(n.b) : ok(n.c));
        break;
      case COp::CeilF:
        v.f = std::ceil(a().f);
        valid_[k] = ok(n.a);
        break;
      case COp::Log2F:
        v.f = std::log2(a().f);
        valid_[k] = ok(n.a);
        break;
      case COp::Invalid: valid_[k] = 0; break;
    }
  }
}

double CostValues::get_f(int id) const {
  if (!valid_[static_cast<size_t>(id)]) {
    throw EvalError(
        "plan: cost expression uses an unbound or overflowing size");
  }
  return vals_[static_cast<size_t>(id)].f;
}

int64_t CostValues::get_i(int id) const {
  if (!valid_[static_cast<size_t>(id)]) {
    throw EvalError(
        "plan: cost expression uses an unbound or overflowing size");
  }
  return vals_[static_cast<size_t>(id)].i;
}

}  // namespace incflat
