#include "src/ir/size.h"

#include <algorithm>
#include <sstream>

#include "src/support/checked.h"
#include "src/support/str.h"

namespace incflat {

SizeProd SizeProd::of(const Dim& d) {
  SizeProd p;
  p *= d;
  return p;
}

SizeProd& SizeProd::operator*=(const Dim& d) {
  if (d.is_const()) {
    konst *= d.cval;
  } else {
    vars.push_back(d);
  }
  return *this;
}

SizeProd& SizeProd::operator*=(const SizeProd& o) {
  konst *= o.konst;
  vars.insert(vars.end(), o.vars.begin(), o.vars.end());
  return *this;
}

int64_t SizeProd::eval(const SizeEnv& env) const {
  int64_t n = konst;
  for (const auto& d : vars) n = size_mul(n, d.eval(env));
  return n;
}

std::string SizeProd::str() const {
  if (vars.empty()) return std::to_string(konst);
  std::string s;
  if (konst != 1) s = std::to_string(konst) + "*";
  return s + join_map(vars, "*", [](const Dim& d) { return d.str(); });
}

bool SizeProd::operator==(const SizeProd& o) const {
  if (konst != o.konst || vars.size() != o.vars.size()) return false;
  auto a = vars, b = o.vars;
  auto lt = [](const Dim& x, const Dim& y) { return x.var < y.var; };
  std::sort(a.begin(), a.end(), lt);
  std::sort(b.begin(), b.end(), lt);
  return a == b;
}

SizeExpr SizeExpr::one() { return of(SizeProd::one()); }

SizeExpr SizeExpr::of(const SizeProd& p) {
  SizeExpr e;
  e.alts.push_back(p);
  return e;
}

SizeExpr SizeExpr::of(const Dim& d) { return of(SizeProd::of(d)); }

SizeExpr SizeExpr::times(const SizeProd& p) const {
  SizeExpr out;
  if (alts.empty()) {
    out.alts.push_back(p);
    return out;
  }
  for (const auto& a : alts) {
    SizeProd q = a;
    q *= p;
    out.alts.push_back(q);
  }
  return out;
}

SizeExpr SizeExpr::max_with(const SizeExpr& o) const {
  SizeExpr out = *this;
  for (const auto& a : o.alts) {
    if (std::find(out.alts.begin(), out.alts.end(), a) == out.alts.end()) {
      out.alts.push_back(a);
    }
  }
  if (out.alts.empty()) out.alts.push_back(SizeProd::one());
  return out;
}

int64_t SizeExpr::eval(const SizeEnv& env) const {
  int64_t best = 1;
  for (const auto& a : alts) best = std::max(best, a.eval(env));
  return best;
}

std::string SizeExpr::str() const {
  if (alts.empty()) return "1";
  if (alts.size() == 1) return alts[0].str();
  return "max(" +
         join_map(alts, ", ", [](const SizeProd& p) { return p.str(); }) + ")";
}

bool SizeExpr::operator==(const SizeExpr& o) const { return alts == o.alts; }

}  // namespace incflat
