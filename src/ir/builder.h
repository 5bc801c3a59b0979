// Terse construction DSL for source-language programs.
//
// Benchmark programs and tests build IR through these helpers rather than a
// parser; the names mirror the paper's surface syntax.  All constructors
// produce *untyped* nodes — run typecheck_program/typecheck_expr to annotate
// result types before flattening or interpretation.  compile() and flatten()
// reject a program whose body carries no types; no pass re-annotates one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/expr.h"

namespace incflat::ib {

// -- atoms ------------------------------------------------------------------
ExprP var(const std::string& name);
ExprP ci64(int64_t v);
ExprP ci32(int64_t v);
ExprP cf32(double v);
ExprP cf64(double v);
ExprP cbool(bool v);

// -- scalar operators ---------------------------------------------------------
ExprP bin(const std::string& op, ExprP a, ExprP b);
ExprP add(ExprP a, ExprP b);
ExprP sub(ExprP a, ExprP b);
ExprP mul(ExprP a, ExprP b);
ExprP divide(ExprP a, ExprP b);
ExprP min_(ExprP a, ExprP b);
ExprP max_(ExprP a, ExprP b);
ExprP lt(ExprP a, ExprP b);
ExprP le(ExprP a, ExprP b);
ExprP eq(ExprP a, ExprP b);
ExprP un(const std::string& op, ExprP e);
ExprP exp_(ExprP e);
ExprP sqrt_(ExprP e);
ExprP abs_(ExprP e);
ExprP neg(ExprP e);

// -- control ------------------------------------------------------------------
ExprP iff(ExprP c, ExprP t, ExprP f);
ExprP let1(const std::string& v, ExprP rhs, ExprP body);
ExprP letn(std::vector<std::string> vs, ExprP rhs, ExprP body);
ExprP loop(std::vector<std::string> params, std::vector<ExprP> inits,
           const std::string& ivar, ExprP count, ExprP body);

// -- lambdas ------------------------------------------------------------------
Param p(const std::string& name, Type t);
Lambda lam(std::vector<Param> params, ExprP body);
/// Binary scalar operator lambda over `t`, e.g. binlam("+", f32) is λx y→x+y.
Lambda binlam(const std::string& op, Scalar t);

// -- SOACs --------------------------------------------------------------------
ExprP map(Lambda f, std::vector<ExprP> arrays);
ExprP map1(Lambda f, ExprP array);
ExprP reduce(Lambda op, std::vector<ExprP> neutral, std::vector<ExprP> arrays);
ExprP scan(Lambda op, std::vector<ExprP> neutral, std::vector<ExprP> arrays);
ExprP redomap(Lambda red, Lambda mapf, std::vector<ExprP> neutral,
              std::vector<ExprP> arrays);
ExprP scanomap(Lambda red, Lambda mapf, std::vector<ExprP> neutral,
               std::vector<ExprP> arrays);

// -- array operations ----------------------------------------------------------
ExprP replicate(Dim count, ExprP e);
ExprP rearrange(std::vector<int> perm, ExprP e);
ExprP transpose(ExprP e);
ExprP iota(Dim count);
ExprP index(ExprP arr, std::vector<ExprP> idxs);
ExprP tuple(std::vector<ExprP> elems);

/// Fresh-name supply; deterministic per instance.
class NameGen {
 public:
  std::string fresh(const std::string& base);

 private:
  int counter_ = 0;
};

}  // namespace incflat::ib
