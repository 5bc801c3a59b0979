#include "src/plan/costexpr.h"

#include <cmath>

#include "src/support/checked.h"
#include "src/support/error.h"

namespace incflat {

namespace {

double eval_f2(COp op, double x, double y) {
  switch (op) {
    case COp::AddF: return x + y;
    case COp::SubF: return x - y;
    case COp::MulF: return x * y;
    case COp::DivF: return x / y;
    case COp::MinF: return std::min(x, y);
    case COp::MaxF: return std::max(x, y);
    case COp::GeF: return x >= y ? 1.0 : 0.0;
    case COp::GtF: return x > y ? 1.0 : 0.0;
    default: INCFLAT_FAIL("costexpr: not a float binop");
  }
}

/// `*out = x op y`; false when a sum or product does not fit in int64 (the
/// walker's EvalError, src/support/checked.h).
bool eval_i2(COp op, int64_t x, int64_t y, int64_t* out) {
  switch (op) {
    case COp::AddI: return checked_add(x, y, out);
    case COp::SubI: return checked_sub(x, y, out);
    case COp::MulI: return checked_mul(x, y, out);
    case COp::DivI: *out = y == 0 ? 0 : x / y; return true;
    case COp::MinI: *out = std::min(x, y); return true;
    case COp::MaxI: *out = std::max(x, y); return true;
    default: INCFLAT_FAIL("costexpr: not an int binop");
  }
}

bool float_op(COp op) {
  switch (op) {
    case COp::AddF: case COp::SubF: case COp::MulF: case COp::DivF:
    case COp::MinF: case COp::MaxF:
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

int CostArena::constf(double v) {
  auto it = constf_cache_.find(v);
  if (it != constf_cache_.end()) return it->second;
  CNode n;
  n.op = COp::ConstF;
  n.f = v;
  const int id = push(n);
  constf_cache_[v] = id;
  return id;
}

int CostArena::consti(int64_t v) {
  auto it = consti_cache_.find(v);
  if (it != consti_cache_.end()) return it->second;
  CNode n;
  n.op = COp::ConstI;
  n.i = v;
  const int id = push(n);
  consti_cache_[v] = id;
  return id;
}

int CostArena::size_var(const std::string& name) {
  auto it = var_index_.find(name);
  if (it != var_index_.end()) return it->second;
  CNode n;
  n.op = COp::SizeVar;
  n.i = static_cast<int64_t>(var_names_.size());
  var_names_.push_back(name);
  const int id = push(n);
  var_index_[name] = id;
  return id;
}

int CostArena::dev_tile_f() { return push(CNode{COp::DevTileF}); }
int CostArena::dev_max_group_i() { return push(CNode{COp::DevMaxGroupI}); }
int CostArena::dev_local_mem_f() { return push(CNode{COp::DevLocalMemF}); }
int CostArena::invalid() { return push(CNode{COp::Invalid}); }

int CostArena::fold2(COp op, int a, int b) {
  double fa, fb;
  int64_t ia, ib;
  if (float_op(op) || op == COp::GeF || op == COp::GtF) {
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
int CostArena::subf(int a, int b) { return fold2(COp::SubF, a, b); }
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

int CostArena::f2i(int a) {
  double v;
  if (is_constf(a, &v)) return consti(static_cast<int64_t>(v));
  CNode n;
  n.op = COp::FToInt;
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
  // Resolve the size-variable table once.
  std::vector<std::pair<int64_t, bool>> var_vals;
  var_vals.reserve(arena.size_vars().size());
  for (const auto& name : arena.size_vars()) {
    auto it = sizes.find(name);
    var_vals.emplace_back(it == sizes.end() ? 0 : it->second,
                          it != sizes.end());
  }
  for (size_t k = 0; k < ns.size(); ++k) {
    const CNode& n = ns[k];
    Val& v = vals_[k];
    auto va = [&](int id) -> const Val& {
      return vals_[static_cast<size_t>(id)];
    };
    auto ok = [&](int id) { return valid_[static_cast<size_t>(id)]; };
    switch (n.op) {
      case COp::ConstF: v.f = n.f; break;
      case COp::ConstI: v.i = n.i; break;
      case COp::SizeVar: {
        const auto& [val, bound] = var_vals[static_cast<size_t>(n.i)];
        v.i = val;
        valid_[k] = bound;
        break;
      }
      case COp::DevTileF: v.f = static_cast<double>(dev.tile_size); break;
      case COp::DevMaxGroupI: v.i = dev.max_group_size; break;
      case COp::DevLocalMemF:
        v.f = static_cast<double>(dev.local_mem_bytes);
        break;
      case COp::AddF: case COp::SubF: case COp::MulF: case COp::DivF:
      case COp::MinF: case COp::MaxF:
        v.f = eval_f2(n.op, va(n.a).f, va(n.b).f);
        valid_[k] = ok(n.a) && ok(n.b);
        break;
      case COp::GeF: case COp::GtF:
        v.i = static_cast<int64_t>(eval_f2(n.op, va(n.a).f, va(n.b).f));
        valid_[k] = ok(n.a) && ok(n.b);
        break;
      case COp::AddI: case COp::SubI: case COp::MulI: case COp::DivI:
      case COp::MinI: case COp::MaxI:
        valid_[k] = eval_i2(n.op, va(n.a).i, va(n.b).i, &v.i) && ok(n.a) &&
                    ok(n.b);
        break;
      case COp::IntToF:
        v.f = static_cast<double>(va(n.a).i);
        valid_[k] = ok(n.a);
        break;
      case COp::FToInt:
        v.i = static_cast<int64_t>(va(n.a).f);
        valid_[k] = ok(n.a);
        break;
      case COp::SelF:
        v.f = va(n.a).i ? va(n.b).f : va(n.c).f;
        valid_[k] = ok(n.a) && (va(n.a).i ? ok(n.b) : ok(n.c));
        break;
      case COp::SelI:
        v.i = va(n.a).i ? va(n.b).i : va(n.c).i;
        valid_[k] = ok(n.a) && (va(n.a).i ? ok(n.b) : ok(n.c));
        break;
      case COp::CeilF:
        v.f = std::ceil(va(n.a).f);
        valid_[k] = ok(n.a);
        break;
      case COp::Log2F:
        v.f = std::log2(va(n.a).f);
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
