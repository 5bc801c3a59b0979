#include "src/ir/typecheck.h"

#include <algorithm>

#include "src/ir/print.h"
#include "src/ir/traverse.h"
#include "src/support/error.h"
#include "src/support/str.h"

namespace incflat {

namespace {

[[noreturn]] void type_fail(const std::string& what, const ExprP& e) {
  INCFLAT_FAIL("type error: " + what + "\n  in: " + pretty(e).substr(0, 400));
}

struct Checker {
  // Re-annotate a list of expressions, each required to have one result.
  std::vector<ExprP> check_each(const std::vector<ExprP>& es,
                                const TypeEnv& env, std::vector<Type>* tys) {
    std::vector<ExprP> out;
    for (const auto& e : es) {
      ExprP a = check(e, env);
      if (a->types.size() != 1) type_fail("expected single-result operand", e);
      if (tys) tys->push_back(a->type());
      out.push_back(a);
    }
    return out;
  }

  // Check a lambda against given parameter types; returns annotated lambda
  // and its result types.
  Lambda check_lambda(const Lambda& l, const std::vector<Type>& param_tys,
                      const TypeEnv& env, std::vector<Type>* result_tys) {
    if (l.params.size() != param_tys.size()) {
      INCFLAT_FAIL("lambda arity mismatch: has " +
                   std::to_string(l.params.size()) + " params, applied to " +
                   std::to_string(param_tys.size()) + " values");
    }
    TypeEnv env2 = env;
    Lambda out;
    out.params = l.params;
    for (size_t i = 0; i < l.params.size(); ++i) {
      out.params[i].type = param_tys[i];
      env2[l.params[i].name] = param_tys[i];
    }
    out.body = check(l.body, env2);
    if (result_tys) *result_tys = out.body->types;
    return out;
  }

  // Types of lambda results for a reduction operator over element types tys:
  // op : tys -> tys -> tys.
  Lambda check_reduce_op(const Lambda& op, const std::vector<Type>& tys,
                         const TypeEnv& env, const ExprP& site) {
    std::vector<Type> double_tys = tys;
    double_tys.insert(double_tys.end(), tys.begin(), tys.end());
    std::vector<Type> res;
    Lambda out = check_lambda(op, double_tys, env, &res);
    if (res != tys) {
      type_fail("reduction operator result types do not match element types",
                site);
    }
    return out;
  }

  void require_equal_outer(const std::vector<Type>& arr_tys, const ExprP& e,
                           Dim* outer) {
    if (arr_tys.empty()) type_fail("SOAC with no arrays", e);
    for (const auto& t : arr_tys) {
      if (t.rank() < 1) type_fail("SOAC over non-array operand", e);
      if (t.shape[0] != arr_tys[0].shape[0]) {
        type_fail("SOAC arrays disagree on outer dimension (" +
                      t.shape[0].str() + " vs " + arr_tys[0].shape[0].str() +
                      ")",
                  e);
      }
    }
    *outer = arr_tys[0].shape[0];
  }

  std::vector<Type> rows_of(const std::vector<Type>& arr_tys) {
    std::vector<Type> out;
    for (const auto& t : arr_tys) out.push_back(t.row());
    return out;
  }

  ExprP check(const ExprP& e, const TypeEnv& env) {
    if (!e) INCFLAT_FAIL("null expression");

    if (auto* v = e->as<VarE>()) {
      auto it = env.find(v->name);
      if (it == env.end()) type_fail("unbound variable " + v->name, e);
      return mk(*v, {it->second});
    }

    if (auto* c = e->as<ConstE>()) {
      return mk(*c, {Type::scalar(c->tag)});
    }

    if (auto* b = e->as<BinOpE>()) {
      ExprP l = check(b->lhs, env), r = check(b->rhs, env);
      if (l->types.size() != 1 || r->types.size() != 1) {
        type_fail("binop on tuple", e);
      }
      const Type &tl = l->type(), &tr = r->type();
      if (!tl.is_scalar() || !tr.is_scalar() || tl.elem != tr.elem) {
        type_fail("binop '" + b->op + "' operand mismatch: " + tl.str() +
                      " vs " + tr.str(),
                  e);
      }
      Type res = tl;
      if (b->op == "<" || b->op == "<=" || b->op == "==") {
        res = Type::scalar(Scalar::Bool);
      } else if (b->op == "&&" || b->op == "||") {
        if (tl.elem != Scalar::Bool) type_fail("logic op on non-bool", e);
        res = Type::scalar(Scalar::Bool);
      } else if (b->op == "+" || b->op == "-" || b->op == "*" ||
                 b->op == "/" || b->op == "min" || b->op == "max" ||
                 b->op == "pow" || b->op == "%") {
        if (tl.elem == Scalar::Bool) type_fail("arith on bool", e);
      } else {
        type_fail("unknown binop '" + b->op + "'", e);
      }
      return mk(BinOpE{b->op, l, r}, {res});
    }

    if (auto* u = e->as<UnOpE>()) {
      ExprP x = check(u->e, env);
      if (x->types.size() != 1 || !x->type().is_scalar()) {
        type_fail("unop on non-scalar", e);
      }
      Scalar s = x->type().elem;
      Type res = x->type();
      if (u->op == "!") {
        if (s != Scalar::Bool) type_fail("! on non-bool", e);
      } else if (u->op == "i2f") {
        if (!scalar_is_int(s)) type_fail("i2f on non-int", e);
        res = Type::scalar(Scalar::F32);
      } else if (u->op == "i2f64") {
        if (!scalar_is_int(s)) type_fail("i2f64 on non-int", e);
        res = Type::scalar(Scalar::F64);
      } else if (u->op == "f2i") {
        if (!scalar_is_float(s)) type_fail("f2i on non-float", e);
        res = Type::scalar(Scalar::I64);
      } else if (u->op == "exp" || u->op == "log" || u->op == "sqrt") {
        if (!scalar_is_float(s)) type_fail(u->op + " on non-float", e);
      } else if (u->op == "neg" || u->op == "abs") {
        if (s == Scalar::Bool) type_fail(u->op + " on bool", e);
      } else {
        type_fail("unknown unop '" + u->op + "'", e);
      }
      return mk(UnOpE{u->op, x}, {res});
    }

    if (auto* i = e->as<IfE>()) {
      ExprP c = check(i->cond, env);
      if (c->types.size() != 1 || c->type() != Type::scalar(Scalar::Bool)) {
        type_fail("if condition must be bool", e);
      }
      ExprP t = check(i->then_e, env), f = check(i->else_e, env);
      if (t->types != f->types) type_fail("if branches disagree on type", e);
      return mk(IfE{c, t, f}, t->types);
    }

    if (auto* l = e->as<LetE>()) {
      ExprP rhs = check(l->rhs, env);
      if (rhs->types.size() != l->vars.size()) {
        type_fail("let binds " + std::to_string(l->vars.size()) +
                      " names but rhs has " +
                      std::to_string(rhs->types.size()) + " results",
                  e);
      }
      TypeEnv env2 = env;
      for (size_t i2 = 0; i2 < l->vars.size(); ++i2) {
        env2[l->vars[i2]] = rhs->types[i2];
      }
      ExprP body = check(l->body, env2);
      return mk(LetE{l->vars, rhs, body}, body->types);
    }

    if (auto* lp = e->as<LoopE>()) {
      std::vector<Type> ptys;
      std::vector<ExprP> inits = check_each(lp->inits, env, &ptys);
      if (inits.size() != lp->params.size()) {
        type_fail("loop param/init arity mismatch", e);
      }
      ExprP count = check(lp->count, env);
      if (!count->type().is_scalar() || !scalar_is_int(count->type().elem)) {
        type_fail("loop count must be an integer scalar", e);
      }
      TypeEnv env2 = env;
      for (size_t i2 = 0; i2 < lp->params.size(); ++i2) {
        env2[lp->params[i2]] = ptys[i2];
      }
      env2[lp->ivar] = Type::scalar(Scalar::I64);
      ExprP body = check(lp->body, env2);
      if (body->types != ptys) {
        type_fail("loop body results do not match loop parameter types", e);
      }
      return mk(LoopE{lp->params, inits, lp->ivar, count, body}, ptys);
    }

    if (auto* m = e->as<MapE>()) {
      std::vector<Type> atys;
      std::vector<ExprP> arrays = check_each(m->arrays, env, &atys);
      Dim outer;
      require_equal_outer(atys, e, &outer);
      std::vector<Type> rtys;
      Lambda f = check_lambda(m->f, rows_of(atys), env, &rtys);
      std::vector<Type> out;
      for (const auto& t : rtys) out.push_back(t.expand({outer}));
      return mk(MapE{f, arrays}, out);
    }

    if (auto* r = e->as<ReduceE>()) {
      std::vector<Type> atys, ntys;
      std::vector<ExprP> arrays = check_each(r->arrays, env, &atys);
      std::vector<ExprP> neutral = check_each(r->neutral, env, &ntys);
      Dim outer;
      require_equal_outer(atys, e, &outer);
      std::vector<Type> etys = rows_of(atys);
      if (ntys != etys) type_fail("reduce neutral/element type mismatch", e);
      Lambda op = check_reduce_op(r->op, etys, env, e);
      return mk(ReduceE{op, neutral, arrays}, etys);
    }

    if (auto* s = e->as<ScanE>()) {
      std::vector<Type> atys, ntys;
      std::vector<ExprP> arrays = check_each(s->arrays, env, &atys);
      std::vector<ExprP> neutral = check_each(s->neutral, env, &ntys);
      Dim outer;
      require_equal_outer(atys, e, &outer);
      std::vector<Type> etys = rows_of(atys);
      if (ntys != etys) type_fail("scan neutral/element type mismatch", e);
      Lambda op = check_reduce_op(s->op, etys, env, e);
      std::vector<Type> out;
      for (const auto& t : etys) out.push_back(t.expand({outer}));
      return mk(ScanE{op, neutral, arrays}, out);
    }

    if (auto* rm = e->as<RedomapE>()) {
      std::vector<Type> atys, ntys;
      std::vector<ExprP> arrays = check_each(rm->arrays, env, &atys);
      std::vector<ExprP> neutral = check_each(rm->neutral, env, &ntys);
      Dim outer;
      require_equal_outer(atys, e, &outer);
      std::vector<Type> mtys;
      Lambda mapf = check_lambda(rm->mapf, rows_of(atys), env, &mtys);
      if (ntys != mtys) type_fail("redomap neutral/map-result mismatch", e);
      Lambda red = check_reduce_op(rm->red, mtys, env, e);
      return mk(RedomapE{red, mapf, neutral, arrays}, mtys);
    }

    if (auto* sm = e->as<ScanomapE>()) {
      std::vector<Type> atys, ntys;
      std::vector<ExprP> arrays = check_each(sm->arrays, env, &atys);
      std::vector<ExprP> neutral = check_each(sm->neutral, env, &ntys);
      Dim outer;
      require_equal_outer(atys, e, &outer);
      std::vector<Type> mtys;
      Lambda mapf = check_lambda(sm->mapf, rows_of(atys), env, &mtys);
      if (ntys != mtys) type_fail("scanomap neutral/map-result mismatch", e);
      Lambda red = check_reduce_op(sm->red, mtys, env, e);
      std::vector<Type> out;
      for (const auto& t : mtys) out.push_back(t.expand({outer}));
      return mk(ScanomapE{red, mapf, neutral, arrays}, out);
    }

    if (auto* rp = e->as<ReplicateE>()) {
      ExprP x = check(rp->elem, env);
      if (x->types.size() != 1) type_fail("replicate of tuple", e);
      return mk(ReplicateE{rp->count, x}, {x->type().expand({rp->count})});
    }

    if (auto* ra = e->as<RearrangeE>()) {
      ExprP x = check(ra->e, env);
      const Type& t = x->type();
      if (static_cast<int>(ra->perm.size()) != t.rank()) {
        type_fail("rearrange permutation rank mismatch", e);
      }
      std::vector<int> sorted = ra->perm;
      std::sort(sorted.begin(), sorted.end());
      for (int k = 0; k < static_cast<int>(sorted.size()); ++k) {
        if (sorted[k] != k) type_fail("rearrange: not a permutation", e);
      }
      std::vector<Dim> shape;
      for (int k : ra->perm) shape.push_back(t.shape[static_cast<size_t>(k)]);
      return mk(RearrangeE{ra->perm, x}, {Type(t.elem, shape)});
    }

    if (auto* io = e->as<IotaE>()) {
      return mk(*io, {Type::array(Scalar::I64, {io->count})});
    }

    if (auto* ix = e->as<IndexE>()) {
      ExprP arr = check(ix->arr, env);
      const Type& t = arr->type();
      if (static_cast<int>(ix->idxs.size()) > t.rank()) {
        type_fail("index rank exceeds array rank", e);
      }
      std::vector<Type> itys;
      std::vector<ExprP> idxs = check_each(ix->idxs, env, &itys);
      for (const auto& it : itys) {
        if (!it.is_scalar() || !scalar_is_int(it.elem)) {
          type_fail("non-integer index", e);
        }
      }
      return mk(IndexE{arr, idxs},
                {t.peel(static_cast<int>(ix->idxs.size()))});
    }

    if (auto* t = e->as<TupleE>()) {
      std::vector<Type> tys;
      std::vector<ExprP> elems = check_each(t->elems, env, &tys);
      return mk(TupleE{elems}, tys);
    }

    if (auto* so = e->as<SegOpE>()) {
      return check_segop(*so, env, e);
    }

    if (auto* tc = e->as<ThresholdCmpE>()) {
      return mk(*tc, {Type::scalar(Scalar::Bool)});
    }

    INCFLAT_FAIL("typecheck: unhandled node");
  }

  ExprP check_segop(const SegOpE& so, const TypeEnv& env, const ExprP& e) {
    if (so.space.empty()) type_fail("seg-op with empty space", e);
    TypeEnv env2 = env;
    std::vector<Dim> dims;
    SegSpace space = so.space;
    for (auto& lvl : space) {
      if (lvl.params.size() != lvl.arrays.size()) {
        type_fail("seg-space binder arity mismatch", e);
      }
      for (size_t i = 0; i < lvl.params.size(); ++i) {
        auto it = env2.find(lvl.arrays[i]);
        if (it == env2.end()) {
          type_fail("seg-space array " + lvl.arrays[i] + " unbound", e);
        }
        const Type& at = it->second;
        if (at.rank() < 1) type_fail("seg-space over scalar", e);
        if (at.shape[0] != lvl.dim) {
          type_fail("seg-space dim mismatch for " + lvl.arrays[i] + ": " +
                        at.shape[0].str() + " vs " + lvl.dim.str(),
                    e);
        }
        env2[lvl.params[i]] = at.row();
      }
      dims.push_back(lvl.dim);
    }
    SegOpE out = so;
    out.space = space;
    out.body = check(so.body, env2);
    const std::vector<Type>& btys = out.body->types;

    std::vector<Type> result;
    if (so.op == SegOpE::Op::Map) {
      for (const auto& t : btys) result.push_back(t.expand(dims));
    } else {
      std::vector<Type> ntys;
      out.neutral = check_each(so.neutral, env, &ntys);
      if (ntys != btys) {
        type_fail("seg-red/scan neutral/body type mismatch", e);
      }
      out.combine = check_reduce_op(so.combine, btys, env2, e);
      if (so.op == SegOpE::Op::Red) {
        // The innermost level is reduced away.
        std::vector<Dim> outer(dims.begin(), dims.end() - 1);
        for (const auto& t : btys) result.push_back(t.expand(outer));
      } else {
        for (const auto& t : btys) result.push_back(t.expand(dims));
      }
    }
    return mk(std::move(out), result);
  }
};

// Level-discipline walk: checks that seg-ops at level l contain only seg-ops
// at level l-1 and that level-0 bodies are fully sequential.
void level_walk(const ExprP& e, int enclosing) {
  if (!e) return;
  if (auto* so = e->as<SegOpE>()) {
    if (enclosing == -2) {
      // host level: any level allowed
    } else if (so->level != enclosing - 1) {
      INCFLAT_FAIL("level discipline violated: seg-op at level " +
                   std::to_string(so->level) +
                   " directly inside construct at level " +
                   std::to_string(enclosing));
    }
    if (so->level == 0 && has_segops(so->body)) {
      INCFLAT_FAIL("level-0 seg-op with parallel body");
    }
    // The body and combine operator run at this seg-op's level; the
    // neutral elements at the enclosing one.
    for_each_child(*e, [&](const Child& c) {
      level_walk(c.expr, c.step == Step::SegNeutral ? enclosing : so->level);
    });
    return;
  }
  for_each_child(*e, [&](const Child& c) { level_walk(c.expr, enclosing); });
}

}  // namespace

ExprP typecheck_expr(const ExprP& e, const TypeEnv& env) {
  Checker c;
  return c.check(e, env);
}

Program typecheck_program(Program p) {
  TypeEnv env;
  for (const auto& in : p.inputs) env[in.name] = in.type;
  for (const auto& sp : p.size_params()) env[sp] = Type::scalar(Scalar::I64);
  p.body = typecheck_expr(p.body, env);
  return p;
}

void check_level_discipline(const ExprP& e) { level_walk(e, -2); }

}  // namespace incflat
