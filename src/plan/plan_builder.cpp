// PlanBuilder: partial evaluation of the gpusim cost walker.
//
// This file replays src/gpusim/cost.cpp's CostWalker over the target IR
// exactly once, with every dataset-dependent quantity replaced by a
// CostArena node id.  Bit-identity with the walker is the contract
// (property-tested in tests/test_plan.cpp), so each function below mirrors
// its walker counterpart operation for operation: the same accumulation
// order, the same double/int64 conversions, the same lazy error points.
// When editing cost.cpp, edit the corresponding mirror here.
//
// Threshold guards fork the tree.  At host level the walk is structured
// enough that both branches can simply be built against the pre-branch
// environment; inside an intra-group walk a guard splits the *remainder* of
// the enclosing kernel's accumulation, so the walk is written in
// continuation-passing style and the continuation is run once per branch.
// Constructs whose walker semantics cannot be expressed as a tree (guards
// under data-dependent intra-group branches, branches that rebind names)
// fail the build with a CompilerError naming the construct.

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "src/ir/traverse.h"
#include "src/plan/plan.h"
#include "src/support/error.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

/// The program leaves the exactly-lowerable fragment.
[[noreturn]] void unsupported(const std::string& construct) {
  throw CompilerError("plan-build: unsupported construct: " + construct);
}

/// Work with symbolic components (arena node ids of F nodes).
struct SymWork {
  int flops = -1;
  int gbytes = -1;
  int lbytes = -1;
};

struct Builder {
  KernelPlan& plan;
  CostArena& A;
  TypeEnv env;

  using Privates = std::set<std::string>;

  explicit Builder(KernelPlan& p) : plan(p), A(p.arena) {}

  // ---------------------------------------------------------------- nodes

  int add_node(PlanNode n) {
    plan.nodes.push_back(std::move(n));
    return static_cast<int>(plan.nodes.size()) - 1;
  }

  int empty_ = -1;
  int empty_block() {
    if (empty_ < 0) empty_ = add_node(PlanNode{});
    return empty_;
  }

  int block(std::vector<PlanNode::Step> steps) {
    PlanNode n;
    n.steps = std::move(steps);
    return add_node(std::move(n));
  }

  static PlanNode::Step child_step(int node) { return {false, node}; }

  int add_kernel(std::string what, const SymWork& w, int threads, int launches,
                 int fallback) {
    KernelDesc d;
    d.what = std::move(what);
    d.flops = w.flops;
    d.gbytes = w.gbytes;
    d.lbytes = w.lbytes;
    d.threads = threads;
    d.launches = launches;
    d.fallback = fallback;
    plan.kernels.push_back(std::move(d));
    const int k = static_cast<int>(plan.kernels.size()) - 1;
    return block({PlanNode::Step{true, k}});
  }

  std::map<std::string, int> thr_ix_;
  int add_guard(const ThresholdCmpE& tc) {
    if (!thr_ix_.count(tc.threshold)) {
      thr_ix_[tc.threshold] = static_cast<int>(plan.thresholds.size());
      plan.thresholds.push_back(tc.threshold);
    }
    plan.guards.push_back(GuardInfo{tc.threshold, tc.par, tc.fit});
    return static_cast<int>(plan.guards.size()) - 1;
  }

  int guard_node(int gix, int tn, int en) {
    PlanNode n;
    n.kind = PlanNode::Kind::Guard;
    n.guard = gix;
    n.then_node = tn;
    n.else_node = en;
    return add_node(std::move(n));
  }

  int data_node(int tn, int en) {
    PlanNode n;
    n.kind = PlanNode::Kind::DataCond;
    n.then_node = tn;
    n.else_node = en;
    return add_node(std::move(n));
  }

  int scale_node(int count, int child) {
    PlanNode n;
    n.kind = PlanNode::Kind::Scale;
    n.count = count;
    n.child = child;
    return add_node(std::move(n));
  }

  // Device parameters appear at most once each in the arena.
  int dev_tile_ = -1, dev_maxg_ = -1, dev_lmem_ = -1;
  int dev_tile() { return dev_tile_ < 0 ? dev_tile_ = A.dev_tile_f() : dev_tile_; }
  int dev_maxg() {
    return dev_maxg_ < 0 ? dev_maxg_ = A.dev_max_group_i() : dev_maxg_;
  }
  int dev_lmem() {
    return dev_lmem_ < 0 ? dev_lmem_ = A.dev_local_mem_f() : dev_lmem_;
  }

  // ------------------------------------------------------------ arithmetic

  SymWork wzero() {
    const int z = A.constf(0.0);
    return {z, z, z};
  }

  /// Mirrors Work::operator+= (component-wise adds, in member order).
  SymWork wadd(const SymWork& a, const SymWork& b) {
    return {A.addf(a.flops, b.flops), A.addf(a.gbytes, b.gbytes),
            A.addf(a.lbytes, b.lbytes)};
  }

  /// Mirrors Work::operator*(double).
  SymWork wscale(const SymWork& a, int s) {
    return {A.mulf(a.flops, s), A.mulf(a.gbytes, s), A.mulf(a.lbytes, s)};
  }

  /// Mirrors work_max: weight = flops + gbytes + lbytes, pick a if wa >= wb.
  SymWork wmax(const SymWork& a, const SymWork& b) {
    const int wa = A.addf(A.addf(a.flops, a.gbytes), a.lbytes);
    const int wb = A.addf(A.addf(b.flops, b.gbytes), b.lbytes);
    const int c = A.gef(wa, wb);
    return {A.self(c, a.flops, b.flops), A.self(c, a.gbytes, b.gbytes),
            A.self(c, a.lbytes, b.lbytes)};
  }

  int dim_i(const Dim& d) {
    return d.is_const() ? A.consti(d.cval) : A.size_var(d.var);
  }

  /// Mirrors Type::count: n = 1; n *= each dim.
  int count_i(const Type& t) {
    int n = A.consti(1);
    for (const auto& d : t.shape) n = A.muli(n, dim_i(d));
    return n;
  }

  /// Mirrors bytes_of(Type): double(count) * scalar_bytes.
  int bytes_of_f(const Type& t) {
    return A.mulf(A.i2f(count_i(t)),
                  A.constf(static_cast<double>(scalar_bytes(t.elem))));
  }

  /// Mirrors bytes_of(vector<Type>): b = 0; b += each.
  int bytes_of_f(const std::vector<Type>& ts) {
    int b = A.constf(0.0);
    for (const auto& t : ts) b = A.addf(b, bytes_of_f(t));
    return b;
  }

  /// Mirrors CostWalker::bytes_of_rows.
  int bytes_of_rows_f(const std::vector<Type>& ts) {
    int b = A.constf(0.0);
    for (const auto& t : ts) {
      b = A.addf(b, t.rank() >= 1
                        ? bytes_of_f(t.row())
                        : A.constf(static_cast<double>(scalar_bytes(t.elem))));
    }
    return b;
  }

  /// Mirrors eval_size_scalar; unsupported shapes become Invalid nodes so
  /// the EvalError fires only if a traversal actually needs the value.
  int size_scalar_i(const ExprP& e) {
    if (auto* v = e->as<VarE>()) return A.size_var(v->name);
    if (auto* c = e->as<ConstE>()) return A.consti(c->i);
    if (auto* b = e->as<BinOpE>()) {
      const int x = size_scalar_i(b->lhs);
      const int y = size_scalar_i(b->rhs);
      if (b->op == "+") return A.addi(x, y);
      if (b->op == "-") return A.subi(x, y);
      if (b->op == "*") return A.muli(x, y);
      if (b->op == "/") return A.divi(x, y);
      if (b->op == "min") return A.mini(x, y);
      if (b->op == "max") return A.maxi(x, y);
    }
    return A.invalid();
  }

  /// Mirrors soac_len (as an I node; users convert with i2f).
  int soac_len_i(const std::vector<ExprP>& arrays) {
    INCFLAT_CHECK(!arrays.empty(), "SOAC with no arrays in plan build");
    return dim_i(arrays[0]->type().shape[0]);
  }

  /// Mirrors space_points: n = 1; n *= each level dim.
  int space_points_i(const SegSpace& space) {
    int n = A.consti(1);
    for (const auto& b : space) n = A.muli(n, dim_i(b.dim));
    return n;
  }

  // ------------------------------------------------- sequential (per-thread)

  /// Mirrors CostWalker::seqp.  `tile_div` is an F node.
  SymWork seqp(const ExprP& e, int tile_div, Privates priv) {
    if (!e) return wzero();
    SymWork w = wzero();
    if (e->is<VarE>() || e->is<ConstE>() || e->is<ThresholdCmpE>() ||
        e->is<IotaE>()) {
      return w;
    }
    if (auto* b = e->as<BinOpE>()) {
      w = wadd(w, seqp(b->lhs, tile_div, priv));
      w = wadd(w, seqp(b->rhs, tile_div, priv));
      w.flops = A.addf(w.flops, A.constf(binop_flop_cost(b->op)));
      return w;
    }
    if (auto* u = e->as<UnOpE>()) {
      w = seqp(u->e, tile_div, priv);
      w.flops = A.addf(w.flops, A.constf(unop_flop_cost(u->op)));
      return w;
    }
    if (auto* i = e->as<IfE>()) {
      w = seqp(i->cond, tile_div, priv);
      w = wadd(w, wmax(seqp(i->then_e, tile_div, priv),
                       seqp(i->else_e, tile_div, priv)));
      return w;
    }
    if (auto* l = e->as<LetE>()) {
      w = seqp(l->rhs, tile_div, priv);
      priv.insert(l->vars.begin(), l->vars.end());
      w = wadd(w, seqp(l->body, tile_div, priv));
      return w;
    }
    if (auto* lp = e->as<LoopE>()) {
      for (const auto& in : lp->inits) w = wadd(w, seqp(in, tile_div, priv));
      const int trips = A.i2f(size_scalar_i(lp->count));
      priv.insert(lp->params.begin(), lp->params.end());
      priv.insert(lp->ivar);
      w = wadd(w, wscale(seqp(lp->body, tile_div, priv), trips));
      return w;
    }
    if (auto* m = e->as<MapE>()) {
      const int n = A.i2f(soac_len_i(m->arrays));
      Privates priv2 = priv;
      for (const auto& p : m->f.params) priv2.insert(p.name);
      SymWork body = seqp(m->f.body, tile_div, priv2);
      body = wadd(body, read_work(m->arrays, priv, tile_div));
      body.gbytes = A.addf(body.gbytes, bytes_of_rows_f(e->types));
      return wscale(body, n);
    }
    if (auto* r = e->as<ReduceE>()) {
      const int n = A.i2f(soac_len_i(r->arrays));
      SymWork body = seqp(r->op.body, tile_div, priv);
      body = wadd(body, read_work(r->arrays, priv, tile_div));
      return wscale(body, n);
    }
    if (auto* s = e->as<ScanE>()) {
      const int n = A.i2f(soac_len_i(s->arrays));
      SymWork body = seqp(s->op.body, tile_div, priv);
      body = wadd(body, read_work(s->arrays, priv, tile_div));
      body.gbytes = A.addf(body.gbytes, bytes_of_rows_f(e->types));
      return wscale(body, n);
    }
    if (auto* rm = e->as<RedomapE>()) {
      const int n = A.i2f(soac_len_i(rm->arrays));
      Privates priv2 = priv;
      for (const auto& p : rm->mapf.params) priv2.insert(p.name);
      SymWork body = seqp(rm->mapf.body, tile_div, priv2);
      body = wadd(body, seqp(rm->red.body, tile_div, priv));
      body = wadd(body,
                  read_work(rm->arrays, priv,
                            A.minf(tile_div, A.maxf(n, A.constf(1.0)))));
      return wscale(body, n);
    }
    if (auto* sm = e->as<ScanomapE>()) {
      const int n = A.i2f(soac_len_i(sm->arrays));
      Privates priv2 = priv;
      for (const auto& p : sm->mapf.params) priv2.insert(p.name);
      SymWork body = seqp(sm->mapf.body, tile_div, priv2);
      body = wadd(body, seqp(sm->red.body, tile_div, priv));
      body = wadd(body, read_work(sm->arrays, priv, tile_div));
      body.gbytes = A.addf(body.gbytes, bytes_of_rows_f(e->types));
      return wscale(body, n);
    }
    if (auto* rp = e->as<ReplicateE>()) {
      w = seqp(rp->elem, tile_div, priv);
      w.gbytes = A.addf(w.gbytes, bytes_of_f(e->types));
      return w;
    }
    if (auto* ra = e->as<RearrangeE>()) {
      return seqp(ra->e, tile_div, priv);
    }
    if (auto* ix = e->as<IndexE>()) {
      w = seqp(ix->arr, tile_div, priv);
      for (const auto& i : ix->idxs) w = wadd(w, seqp(i, tile_div, priv));
      auto* av = ix->arr->as<VarE>();
      if (av && priv.count(av->name)) {
        w.gbytes = A.addf(w.gbytes, bytes_of_f(e->types));
      } else {
        w.gbytes = A.addf(w.gbytes, A.divf(bytes_of_f(e->types), tile_div));
      }
      return w;
    }
    if (auto* t = e->as<TupleE>()) {
      for (const auto& x : t->elems) w = wadd(w, seqp(x, tile_div, priv));
      return w;
    }
    INCFLAT_FAIL("plan seq cost: parallel construct in sequential context");
  }

  /// Mirrors CostWalker::read_work.
  SymWork read_work(const std::vector<ExprP>& arrays, const Privates& priv,
                    int tile_div) {
    SymWork w = wzero();
    for (const auto& a : arrays) {
      if (a->is<IotaE>()) continue;
      const int b = bytes_of_f(a->type().row());
      auto* av = a->as<VarE>();
      if (av && priv.count(av->name)) {
        w.gbytes = A.addf(w.gbytes, b);
      } else {
        w.gbytes = A.addf(w.gbytes, A.divf(b, tile_div));
      }
    }
    return w;
  }

  // ------------------------------------------------------------- host level

  /// A branch of the walk that rebinds an already-typed name to a different
  /// type would make later lookups branch-dependent, which a tree cannot
  /// express; the flattener never emits such programs, but guard against it.
  void check_no_rebind(const TypeEnv& saved) {
    for (const auto& [name, ty] : saved) {
      auto it = env.find(name);
      if (it == env.end() || !(it->second == ty)) {
        unsupported("branch rebinds name " + name);
      }
    }
  }

  /// Mirrors CostWalker::host; returns a plan node id.
  int build_host(const ExprP& e) {
    if (!e) return empty_block();
    if (e->is<VarE>() || e->is<ConstE>() || e->is<ThresholdCmpE>() ||
        e->is<IotaE>()) {
      return empty_block();
    }
    if (auto* l = e->as<LetE>()) {
      const int rhs_n = build_host(l->rhs);
      for (size_t i = 0; i < l->vars.size(); ++i) {
        env[l->vars[i]] = l->rhs->types[i];
      }
      const int body_n = build_host(l->body);
      return block({child_step(rhs_n), child_step(body_n)});
    }
    if (auto* lp = e->as<LoopE>()) {
      std::vector<PlanNode::Step> steps;
      for (size_t i = 0; i < lp->params.size(); ++i) {
        steps.push_back(child_step(build_host(lp->inits[i])));
        env[lp->params[i]] = lp->inits[i]->types.at(0);
      }
      env[lp->ivar] = Type::scalar(Scalar::I64);
      const int count = size_scalar_i(lp->count);
      const int body_n = build_host(lp->body);
      steps.push_back(child_step(scale_node(count, body_n)));
      return block(std::move(steps));
    }
    if (auto* i = e->as<IfE>()) {
      TypeEnv saved = env;
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        const int gix = add_guard(*tc);
        const int tn = build_host(i->then_e);
        check_no_rebind(saved);
        env = saved;
        const int en = build_host(i->else_e);
        check_no_rebind(saved);
        env = saved;
        return guard_node(gix, tn, en);
      }
      // Data-dependent host branch: the walker prices both sides with fresh
      // sub-walkers and merges the worse; the tree keeps both children.
      const int tn = build_host(i->then_e);
      env = saved;
      const int en = build_host(i->else_e);
      env = saved;
      return data_node(tn, en);
    }
    if (auto* so = e->as<SegOpE>()) return build_kernel(*so);
    if (auto* t = e->as<TupleE>()) {
      std::vector<PlanNode::Step> steps;
      for (const auto& x : t->elems) steps.push_back(child_step(build_host(x)));
      return block(std::move(steps));
    }
    if (e->is<ReplicateE>()) {
      SymWork w = wzero();
      w.gbytes = bytes_of_f(e->types);
      return add_kernel("replicate", w, sizes_threads_i(e->types), 1, -1);
    }
    if (e->is<RearrangeE>()) return empty_block();
    if (e->is<IndexE>() || e->is<BinOpE>() || e->is<UnOpE>()) {
      return empty_block();
    }
    // Residual sequential SOACs at host level.
    SymWork w = seqp(e, A.constf(1.0), Privates{});
    return add_kernel("sequential", w, A.consti(1), 1, -1);
  }

  /// Mirrors sizes_threads: n = 0; n += each count; max(n, 1).
  int sizes_threads_i(const std::vector<Type>& ts) {
    int n = A.consti(0);
    for (const auto& t : ts) n = A.addi(n, count_i(t));
    return A.maxi(n, A.consti(1));
  }

  // --------------------------------------------------------------- kernels

  /// Mirrors scalar_param_bytes — a build-time constant (depends on types
  /// only).  Computed with the walker's exact double accumulation.
  double scalar_param_bytes(const SegSpace& space) {
    double b = 0;
    TypeEnv scratch = env;
    for (const auto& lvl : space) {
      for (size_t i = 0; i < lvl.params.size(); ++i) {
        auto it = scratch.find(lvl.arrays[i]);
        INCFLAT_CHECK(it != scratch.end(),
                      "plan: seg array untyped: " + lvl.arrays[i]);
        const Type row = it->second.row();
        scratch[lvl.params[i]] = row;
        if (row.is_scalar()) b += scalar_bytes(row.elem);
      }
    }
    return b;
  }

  /// Mirrors array_param_bytes.
  int array_param_bytes_f(const SegSpace& space) {
    std::set<std::string> pass_through;
    for (const auto& lvl : space) {
      pass_through.insert(lvl.arrays.begin(), lvl.arrays.end());
    }
    int b = A.constf(0.0);
    TypeEnv scratch = env;
    for (const auto& lvl : space) {
      for (size_t i = 0; i < lvl.params.size(); ++i) {
        auto it = scratch.find(lvl.arrays[i]);
        INCFLAT_CHECK(it != scratch.end(), "plan: seg array untyped");
        const Type row = it->second.row();
        scratch[lvl.params[i]] = row;
        if (row.is_array() && !pass_through.count(lvl.params[i])) {
          b = A.addf(b, bytes_of_f(row));
        }
      }
    }
    return b;
  }

  void bind_space(const SegSpace& space) {
    for (const auto& lvl : space) {
      for (size_t i = 0; i < lvl.params.size(); ++i) {
        env[lvl.params[i]] = env.at(lvl.arrays[i]).row();
      }
    }
  }

  /// Mirrors bytes_per_point_results.
  int bytes_per_point_results_f(const SegOpE& so) {
    int b = A.constf(0.0);
    for (const auto& t : so.body->types) {
      b = A.addf(b, t.is_scalar()
                        ? A.constf(static_cast<double>(scalar_bytes(t.elem)))
                        : bytes_of_f(t));
    }
    return b;
  }

  /// Mirrors CostWalker::kernel.
  int build_kernel(const SegOpE& so) {
    TypeEnv saved = env;
    const int points = space_points_i(so.space);
    const bool has_inner = count_segops(so.body) > 0;
    int node;
    if (has_inner) {
      INCFLAT_CHECK(so.op == SegOpE::Op::Map,
                    "only segmap kernels may contain intra-group parallelism");
      node = build_group_kernel(so, points);
    } else {
      node = build_thread_kernel(so, points);
    }
    env = saved;
    return node;
  }

  /// Mirrors thread_kernel.
  int build_thread_kernel(const SegOpE& so, int points) {
    const int tile_div = so.block_tiled ? dev_tile() : A.constf(1.0);
    const double scalar_reads = scalar_param_bytes(so.space);
    bind_space(so.space);
    SymWork per = seqp(so.body, tile_div, Privates{});
    per.gbytes = A.addf(per.gbytes, A.constf(scalar_reads));

    std::string what;
    int launches = 1;
    const int points_f = A.i2f(points);
    SymWork total = wscale(per, points_f);
    if (so.op == SegOpE::Op::Map) {
      what = "segmap^" + std::to_string(so.level);
      total.gbytes = A.addf(
          total.gbytes, A.mulf(points_f, bytes_per_point_results_f(so)));
    } else if (so.op == SegOpE::Op::Red) {
      what = "segred^" + std::to_string(so.level);
      SymWork comb = seqp(so.combine.body, A.constf(1.0), Privates{});
      total = wadd(total, wscale(comb, points_f));
      const int segments =
          A.divi(points, A.maxi(dim_i(so.space.back().dim), A.consti(1)));
      total.gbytes = A.addf(
          total.gbytes, A.mulf(A.i2f(segments), bytes_per_point_results_f(so)));
      launches = 2;
    } else {
      what = "segscan^" + std::to_string(so.level);
      SymWork comb = seqp(so.combine.body, A.constf(1.0), Privates{});
      total = wadd(total, wscale(comb, A.mulf(A.constf(2.0), points_f)));
      total.gbytes =
          A.addf(total.gbytes, A.mulf(A.mulf(A.constf(3.0), points_f),
                                      bytes_per_point_results_f(so)));
      launches = 2;
    }
    if (so.block_tiled) what += "[tiled]";
    return add_kernel(what, total, points, launches, -1);
  }

  // --------------------------------------------------------- group kernels

  /// Mirrors GroupAcc, with symbolic quantities.
  struct SymGroupAcc {
    SymWork per_group;
    int max_inner = -1;   // I node
    int local_peak = -1;  // F node
    std::set<std::string> local_names;
  };

  /// Continuation receiving the accumulated group state; builds the rest of
  /// the enclosing kernel and returns a plan node id.
  using Cont = std::function<int(SymGroupAcc)>;

  /// > 0 while synchronously walking a data-dependent intra-group branch,
  /// where a forking guard has no tree representation.
  int fork_ban = 0;

  /// Mirrors group_walk in CPS: `k` consumes the final accumulator.  A
  /// guard builds both branches (running `k` once per branch) and returns a
  /// Guard node.
  int build_group_walk(const ExprP& e, SymGroupAcc acc, const Cont& k) {
    if (!e) return k(std::move(acc));
    if (auto* so = e->as<SegOpE>()) {
      const int pts = space_points_i(so->space);
      acc.max_inner = A.maxi(acc.max_inner, pts);
      TypeEnv saved = env;
      SymWork w = wzero();
      const int pts_f = A.i2f(pts);
      for (const auto& lvl : so->space) {
        for (size_t i = 0; i < lvl.params.size(); ++i) {
          const Type row = env.at(lvl.arrays[i]).row();
          env[lvl.params[i]] = row;
          const int b = A.mulf(pts_f, bytes_of_f(row));
          if (acc.local_names.count(lvl.arrays[i])) {
            w.lbytes = A.addf(w.lbytes, b);
          } else {
            w.gbytes = A.addf(w.gbytes, b);
          }
        }
      }
      SymWork body = seqp(so->body, A.constf(1.0), Privates{});
      env = saved;
      const int elem_bytes = bytes_per_point_results_f(*so);
      w = wadd(w, wscale(body, pts_f));
      if (so->op == SegOpE::Op::Scan) {
        const int logp =
            A.maxf(A.constf(1.0), A.ceilf_(A.log2f_(pts_f)));
        w.lbytes = A.addf(
            w.lbytes,
            A.mulf(A.mulf(A.mulf(A.constf(2.0), logp), pts_f), elem_bytes));
        w = wadd(w, wscale(seqp(so->combine.body, A.constf(1.0), Privates{}),
                           A.mulf(logp, pts_f)));
      } else if (so->op == SegOpE::Op::Red) {
        w.lbytes = A.addf(
            w.lbytes, A.mulf(A.mulf(A.constf(2.0), pts_f), elem_bytes));
        w = wadd(w, wscale(seqp(so->combine.body, A.constf(1.0), Privates{}),
                           pts_f));
      } else {
        w.lbytes = A.addf(w.lbytes, A.mulf(pts_f, elem_bytes));
      }
      acc.per_group = wadd(acc.per_group, w);
      acc.local_peak = A.maxf(
          acc.local_peak, A.mulf(A.mulf(A.constf(2.0), pts_f), elem_bytes));
      return k(std::move(acc));
    }
    if (auto* l = e->as<LetE>()) {
      const ExprP rhs = l->rhs, body = l->body;
      const std::vector<std::string> vars = l->vars;
      return build_group_walk(
          rhs, std::move(acc), Cont([this, rhs, body, vars, k](SymGroupAcc a) {
            for (size_t i = 0; i < vars.size(); ++i) {
              env[vars[i]] = rhs->types[i];
              a.local_names.insert(vars[i]);
            }
            return build_group_walk(body, std::move(a), k);
          }));
    }
    if (auto* lp = e->as<LoopE>()) {
      for (size_t i = 0; i < lp->params.size(); ++i) {
        env[lp->params[i]] = lp->inits[i]->types.at(0);
        acc.local_names.insert(lp->params[i]);
      }
      env[lp->ivar] = Type::scalar(Scalar::I64);
      const int trips = A.i2f(size_scalar_i(lp->count));
      SymGroupAcc inner;
      inner.per_group = wzero();
      inner.max_inner = acc.max_inner;
      inner.local_peak = A.constf(0.0);
      inner.local_names = acc.local_names;
      const SymGroupAcc outer = acc;
      return build_group_walk(
          lp->body, std::move(inner),
          Cont([this, outer, trips, k](SymGroupAcc in) {
            SymGroupAcc a = outer;
            a.per_group = wadd(outer.per_group, wscale(in.per_group, trips));
            a.max_inner = A.maxi(outer.max_inner, in.max_inner);
            a.local_peak = A.maxf(outer.local_peak, in.local_peak);
            return k(std::move(a));
          }));
    }
    if (auto* i = e->as<IfE>()) {
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        if (fork_ban > 0) {
          unsupported(
              "threshold guard inside a data-dependent intra-group branch");
        }
        const int gix = add_guard(*tc);
        TypeEnv saved = env;
        const int tn = build_group_walk(i->then_e, acc, k);
        check_no_rebind(saved);
        env = saved;
        const int en = build_group_walk(i->else_e, acc, k);
        check_no_rebind(saved);
        env = saved;
        return guard_node(gix, tn, en);
      }
      // Data-dependent branch: the walker accumulates both sides into
      // copies and keeps the heavier one; the merge happens inside one
      // kernel, so both sides are walked synchronously here.
      SymGroupAcc a = acc, b = acc;
      sync_group_walk(i->then_e, a);
      sync_group_walk(i->else_e, b);
      if (a.local_names != b.local_names) {
        unsupported(
            "data-dependent intra-group branches bind different "
            "scratchpad-resident names");
      }
      const int wa = A.addf(A.addf(a.per_group.flops, a.per_group.gbytes),
                            a.per_group.lbytes);
      const int wb = A.addf(A.addf(b.per_group.flops, b.per_group.gbytes),
                            b.per_group.lbytes);
      const int c = A.gef(wa, wb);
      SymGroupAcc m;
      m.per_group = {A.self(c, a.per_group.flops, b.per_group.flops),
                     A.self(c, a.per_group.gbytes, b.per_group.gbytes),
                     A.self(c, a.per_group.lbytes, b.per_group.lbytes)};
      m.max_inner = A.seli(c, a.max_inner, b.max_inner);
      m.local_peak = A.self(c, a.local_peak, b.local_peak);
      m.local_names = std::move(a.local_names);
      return k(std::move(m));
    }
    if (auto* t = e->as<TupleE>()) {
      return walk_elems(t->elems, 0, std::move(acc), k);
    }
    // Sequential code inside the group.
    acc.per_group = wadd(acc.per_group, seqp(e, A.constf(1.0), Privates{}));
    return k(std::move(acc));
  }

  int walk_elems(const std::vector<ExprP>& elems, size_t i, SymGroupAcc acc,
                 const Cont& k) {
    if (i == elems.size()) return k(std::move(acc));
    return build_group_walk(
        elems[i], std::move(acc),
        Cont([this, &elems, i, k](SymGroupAcc a) {
          return walk_elems(elems, i + 1, std::move(a), k);
        }));
  }

  /// Walk with forking disabled, mutating `acc` in place (the walker's
  /// plain group_walk(e, acc) shape).
  void sync_group_walk(const ExprP& e, SymGroupAcc& acc) {
    ++fork_ban;
    build_group_walk(e, acc, Cont([&acc](SymGroupAcc r) {
                       acc = std::move(r);
                       return -1;
                     }));
    --fork_ban;
  }

  /// Mirrors group_kernel.
  int build_group_kernel(const SegOpE& so, int groups) {
    TypeEnv saved = env;
    bind_space(so.space);
    const int staged_in = A.addf(array_param_bytes_f(so.space),
                                 A.constf(scalar_param_bytes(so.space)));
    SymGroupAcc acc;
    acc.per_group = wzero();
    acc.max_inner = A.consti(1);
    acc.local_peak = A.constf(0.0);
    for (const auto& lvl : so.space) {
      acc.local_names.insert(lvl.params.begin(), lvl.params.end());
    }
    const std::string what = "segmap^" + std::to_string(so.level) + "{intra}";
    const int node = build_group_walk(
        so.body, std::move(acc),
        Cont([this, staged_in, groups, what, &so](SymGroupAcc a) {
          const int group_size =
              A.mini(A.maxi(a.max_inner, A.consti(1)), dev_maxg());
          SymWork per = a.per_group;
          per.gbytes = A.addf(per.gbytes, staged_in);
          const int out_bytes = bytes_of_f(so.body->types);
          per.gbytes = A.addf(per.gbytes, out_bytes);

          const int fb = A.gtf(a.local_peak, dev_lmem());
          const int gb = A.self(
              fb, A.addf(per.gbytes, A.mulf(per.lbytes, A.constf(1.2))),
              per.gbytes);
          const int lb = A.self(fb, A.constf(0.0), per.lbytes);

          const int groups_f = A.i2f(groups);
          const SymWork total{A.mulf(per.flops, groups_f),
                              A.mulf(gb, groups_f), A.mulf(lb, groups_f)};
          const int threads = A.muli(groups, group_size);
          return add_kernel(what, total, threads, 1, fb);
        }));
    env = saved;
    return node;
  }
};

/// Depth of the decision tree under node `id` (Block steps do not add a
/// level; Guard/DataCond/Scale do), for the observability gauges.
int tree_depth(const KernelPlan& plan, int id) {
  if (id < 0) return 0;
  const PlanNode& n = plan.nodes[static_cast<size_t>(id)];
  switch (n.kind) {
    case PlanNode::Kind::Block: {
      int d = 0;
      for (const PlanNode::Step& s : n.steps) {
        if (!s.is_kernel) d = std::max(d, tree_depth(plan, s.index));
      }
      return d;
    }
    case PlanNode::Kind::Guard:
    case PlanNode::Kind::DataCond:
      return 1 + std::max(tree_depth(plan, n.then_node),
                          tree_depth(plan, n.else_node));
    case PlanNode::Kind::Scale:
      return 1 + tree_depth(plan, n.child);
  }
  return 0;
}

}  // namespace

KernelPlan build_kernel_plan(const Program& p) {
  trace::Span span("plan.build");
  KernelPlan plan;
  Builder b(plan);
  for (const auto& in : p.inputs) b.env[in.name] = in.type;
  for (const auto& sp : p.size_params()) {
    b.env[sp] = Type::scalar(Scalar::I64);
  }
  plan.root = b.build_host(p.body);
  if (trace::enabled()) {
    trace::count("plan.builds");
    trace::count("plan.arena_nodes", static_cast<int64_t>(plan.arena.size()));
    trace::count("plan.tree_nodes", static_cast<int64_t>(plan.nodes.size()));
    trace::count("plan.kernels", static_cast<int64_t>(plan.kernels.size()));
    trace::count("plan.guards", static_cast<int64_t>(plan.guards.size()));
    trace::gauge("plan.tree_depth",
                 static_cast<int64_t>(tree_depth(plan, plan.root)));
  }
  return plan;
}

}  // namespace incflat
