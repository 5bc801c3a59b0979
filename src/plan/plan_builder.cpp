// PlanBuilder: partial evaluation of the gpusim cost walker.
//
// This file replays src/gpusim/cost.cpp's CostWalker over the target IR
// exactly once, with every dataset-dependent quantity replaced by a
// CostArena node id.  Bit-identity with the walker is the contract
// (property-tested in tests/test_plan.cpp), so each function below mirrors
// its walker counterpart operation for operation: the same accumulation
// order, the same double/int64 conversions, the same lazy error points.
// When editing cost.cpp, edit the corresponding mirror here.  Where one
// call takes two operands that both add arena nodes, the right one is
// built first, written out so that node ids do not depend on the
// compiler's argument evaluation order.
//
// Threshold guards fork the tree, and only at host level: G3 and G9 version
// level-1 nests and flatten intra-group bodies at level 0, so every guard
// is decided before any launch and both branches are built against the
// pre-branch environment.  The kernel walks (seqp, group_walk) are direct
// mirrors of the walker's; a guard inside a kernel would split one
// kernel's accumulation, which no tree node expresses, so it fails the
// build with a CompilerError, as does a branch that rebinds a name.
//
// The walker copies its type environment at every branch and kernel and a
// Type at every binding; the builder copies neither.  Its environment is
// one stack of bindings, searched newest-first, each naming a type that
// already lives in the IR plus how many outer dimensions a seg-space row
// drops; it marks the stack where the walker copies and pops back to the
// mark where the walker restores, which leaves the same bindings visible
// at every point of the walk.  A kernel binds its seg-space in one walk
// that also yields the scalar rows' bytes and which parameters only feed
// a deeper level; the walker walks the space three times
// (scalar_param_bytes, array_param_bytes, bind_space), each from the
// environment before the space, so the walks see the same rows even where
// a parameter shadows one of its space's arrays, as a lambda parameter
// kept by the flattener may.  Names private to a kernel walk, and the
// scratchpad-resident names of a group kernel, sit on pointer stacks the
// same way.

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

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

[[noreturn]] void guard_in_kernel() {
  unsupported("threshold guard inside a kernel");
}

/// Work with symbolic components (arena node ids of F nodes).
struct SymWork {
  int flops = -1;
  int gbytes = -1;
  int lbytes = -1;
};

/// The type of loop indices and size parameters.
const Type& i64_type() {
  static const Type t = Type::scalar(Scalar::I64);
  return t;
}

/// A type that lives in the IR with its `drop` outermost dimensions
/// dropped: what Type::row() would copy, without the copy.
struct TypeView {
  const Type* type = nullptr;
  size_t drop = 0;

  std::span<const Dim> shape() const {
    return std::span<const Dim>(type->shape).subspan(drop);
  }
  Scalar elem() const { return type->elem; }
  bool is_scalar() const { return type->shape.size() == drop; }
  TypeView row() const {
    INCFLAT_CHECK(!is_scalar(), "row() of scalar type");
    return {type, drop + 1};
  }
  bool operator==(const TypeView& o) const {
    return elem() == o.elem() && std::ranges::equal(shape(), o.shape());
  }
};

struct Builder {
  KernelPlan& plan;
  CostArena& A;

  explicit Builder(KernelPlan& p) : plan(p), A(p.arena) {}

  // ---------------------------------------------------------- environment

  /// Every name bound at this point of the walk, newest last.
  struct Binding {
    const std::string* name;
    TypeView type;
  };
  std::vector<Binding> env;

  void bind(const std::string& name, TypeView t) { env.push_back({&name, t}); }

  /// The index of the newest binding of `name` among env's first `end`, or
  /// `end` when there is none.
  size_t find(const std::string& name, size_t end) const {
    for (size_t k = end; k-- > 0;) {
      if (*env[k].name == name) return k;
    }
    return end;
  }

  /// The binding a seg-space array resolves to now.
  size_t find_array(const std::string& name) const {
    const size_t k = find(name, env.size());
    INCFLAT_CHECK(k < env.size(), "plan: seg array untyped: " + name);
    return k;
  }

  /// Where a guard being added sits: its nearest enclosing guard and arm.
  int guard_parent_ = -1;
  bool guard_in_then_ = false;

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

  int add_guard(const ThresholdCmpE& tc) {
    plan.guards.push_back(GuardInfo{tc.threshold, tc.par, tc.fit,
                                    guard_parent_, guard_in_then_});
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
  int count_i(TypeView t) {
    int n = A.consti(1);
    for (const Dim& d : t.shape()) n = A.muli(n, dim_i(d));
    return n;
  }

  /// Mirrors bytes_of(Type): double(count) * scalar_bytes.
  int bytes_of_f(TypeView t) {
    const int elem = A.constf(static_cast<double>(scalar_bytes(t.elem())));
    return A.mulf(A.i2f(count_i(t)), elem);
  }

  /// Mirrors bytes_of(vector<Type>): b = 0; b += each.
  int bytes_of_f(const std::vector<Type>& ts) {
    int b = A.constf(0.0);
    for (const auto& t : ts) b = A.addf(b, bytes_of_f({&t, 0}));
    return b;
  }

  /// Mirrors CostWalker::bytes_of_rows.
  int bytes_of_rows_f(const std::vector<Type>& ts) {
    int b = A.constf(0.0);
    for (const auto& t : ts) {
      b = A.addf(b, t.rank() >= 1
                        ? bytes_of_f({&t, 1})
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

  /// Mirrors CostWalker::seqp.  `tile_div` is an F node.  `priv` holds the
  /// names bound inside the kernel around `e`; a binder pushes its names
  /// for its body and pops them after.
  SymWork seqp(const ExprP& e, int tile_div, BoundNames& priv) {
    if (!e) return wzero();
    if (e->is<ThresholdCmpE>()) guard_in_kernel();
    SymWork w = wzero();
    if (e->is<VarE>() || e->is<ConstE>() || e->is<IotaE>()) return w;
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
      const SymWork else_w = seqp(i->else_e, tile_div, priv);
      w = wadd(w, wmax(seqp(i->then_e, tile_div, priv), else_w));
      return w;
    }
    const size_t outer = priv.size();
    if (auto* l = e->as<LetE>()) {
      w = seqp(l->rhs, tile_div, priv);
      for (const auto& v : l->vars) priv.push(v);
      w = wadd(w, seqp(l->body, tile_div, priv));
      priv.pop_to(outer);
      return w;
    }
    if (auto* lp = e->as<LoopE>()) {
      for (const auto& in : lp->inits) w = wadd(w, seqp(in, tile_div, priv));
      const int trips = A.i2f(size_scalar_i(lp->count));
      for (const auto& p : lp->params) priv.push(p);
      priv.push(lp->ivar);
      w = wadd(w, wscale(seqp(lp->body, tile_div, priv), trips));
      priv.pop_to(outer);
      return w;
    }
    if (auto* m = e->as<MapE>()) {
      const int n = A.i2f(soac_len_i(m->arrays));
      for (const auto& p : m->f.params) priv.push(p.name);
      SymWork body = seqp(m->f.body, tile_div, priv);
      priv.pop_to(outer);
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
      for (const auto& p : rm->mapf.params) priv.push(p.name);
      SymWork body = seqp(rm->mapf.body, tile_div, priv);
      priv.pop_to(outer);
      body = wadd(body, seqp(rm->red.body, tile_div, priv));
      body = wadd(body,
                  read_work(rm->arrays, priv,
                            A.minf(tile_div, A.maxf(n, A.constf(1.0)))));
      return wscale(body, n);
    }
    if (auto* sm = e->as<ScanomapE>()) {
      const int n = A.i2f(soac_len_i(sm->arrays));
      for (const auto& p : sm->mapf.params) priv.push(p.name);
      SymWork body = seqp(sm->mapf.body, tile_div, priv);
      priv.pop_to(outer);
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
      if (av && priv.contains(av->name)) {
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

  /// seqp over a whole kernel-level expression, with no private names yet.
  SymWork seq(const ExprP& e, int tile_div) {
    BoundNames priv;
    return seqp(e, tile_div, priv);
  }

  /// Mirrors CostWalker::read_work.
  SymWork read_work(const std::vector<ExprP>& arrays, const BoundNames& priv,
                    int tile_div) {
    SymWork w = wzero();
    for (const auto& a : arrays) {
      if (a->is<IotaE>()) continue;
      const int b = bytes_of_f(TypeView{&a->type()}.row());
      auto* av = a->as<VarE>();
      if (av && priv.contains(av->name)) {
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
  /// Reports the least name, in name order, that a binding since mark `m`
  /// (its newest) binds at another type than its binding at the mark.
  void check_no_rebind(size_t m) {
    const std::string* bad = nullptr;
    for (size_t k = m; k < env.size(); ++k) {
      const std::string& name = *env[k].name;
      if (find(name, env.size()) != k) continue;  // rebound again later
      const size_t before = find(name, m);
      if (before < m && !(env[before].type == env[k].type) &&
          (!bad || name < *bad)) {
        bad = &name;
      }
    }
    if (bad) unsupported("branch rebinds name " + *bad);
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
        bind(l->vars[i], {&l->rhs->types[i]});
      }
      const int body_n = build_host(l->body);
      return block({child_step(rhs_n), child_step(body_n)});
    }
    if (auto* lp = e->as<LoopE>()) {
      std::vector<PlanNode::Step> steps;
      steps.reserve(lp->params.size() + 1);
      for (size_t i = 0; i < lp->params.size(); ++i) {
        steps.push_back(child_step(build_host(lp->inits[i])));
        bind(lp->params[i], {&lp->inits[i]->types.at(0)});
      }
      bind(lp->ivar, {&i64_type()});
      const int count = size_scalar_i(lp->count);
      const int body_n = build_host(lp->body);
      steps.push_back(child_step(scale_node(count, body_n)));
      return block(std::move(steps));
    }
    if (auto* i = e->as<IfE>()) {
      const size_t m = env.size();
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        const int gix = add_guard(*tc);
        const int parent = guard_parent_;
        const bool in_then = guard_in_then_;
        guard_parent_ = gix;
        guard_in_then_ = true;
        const int tn = build_host(i->then_e);
        check_no_rebind(m);
        env.resize(m);
        guard_in_then_ = false;
        const int en = build_host(i->else_e);
        check_no_rebind(m);
        env.resize(m);
        guard_parent_ = parent;
        guard_in_then_ = in_then;
        return guard_node(gix, tn, en);
      }
      // Data-dependent host branch: the walker prices both sides with fresh
      // sub-walkers and merges the worse; the tree keeps both children.
      const int tn = build_host(i->then_e);
      env.resize(m);
      const int en = build_host(i->else_e);
      env.resize(m);
      return data_node(tn, en);
    }
    if (auto* so = e->as<SegOpE>()) return build_kernel(*so);
    if (auto* t = e->as<TupleE>()) {
      std::vector<PlanNode::Step> steps;
      steps.reserve(t->elems.size());
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
    SymWork w = seq(e, A.constf(1.0));
    return add_kernel("sequential", w, A.consti(1), 1, -1);
  }

  /// Mirrors sizes_threads: n = 0; n += each count; max(n, 1).
  int sizes_threads_i(const std::vector<Type>& ts) {
    int n = A.consti(0);
    for (const auto& t : ts) n = A.addi(n, count_i({&t}));
    return A.maxi(n, A.consti(1));
  }

  // --------------------------------------------------------------- kernels

  /// One parameter of the seg-space bind_space last walked: its row, and
  /// whether a later parameter of the space binds from it.
  struct SpaceParam {
    TypeView row;
    bool pass_through = false;
  };
  std::vector<SpaceParam> space_;

  /// Mirrors bind_space, outer level first, and in the same walk
  /// scalar_param_bytes, which it returns (a build-time constant: it
  /// depends on types only, computed with the walker's exact double
  /// accumulation), and array_param_bytes' pass-through set: a parameter
  /// is pass-through when a later parameter's array resolves to it.  Leaves
  /// each parameter's row and pass-through bit in space_.
  double bind_space(const SegSpace& space) {
    const size_t first = env.size();
    space_.clear();
    double scalar_reads = 0;
    for (const auto& lvl : space) {
      for (size_t i = 0; i < lvl.params.size(); ++i) {
        const size_t at = find_array(lvl.arrays[i]);
        if (at >= first) space_[at - first].pass_through = true;
        const TypeView row = env[at].type.row();
        bind(lvl.params[i], row);
        space_.push_back({row});
        if (row.is_scalar()) scalar_reads += scalar_bytes(row.elem());
      }
    }
    return scalar_reads;
  }

  /// Mirrors array_param_bytes over the space bind_space last walked.
  int array_param_bytes_f() {
    int b = A.constf(0.0);
    for (const SpaceParam& p : space_) {
      if (!p.row.is_scalar() && !p.pass_through) {
        b = A.addf(b, bytes_of_f(p.row));
      }
    }
    return b;
  }

  /// Mirrors bytes_per_point_results.
  int bytes_per_point_results_f(const SegOpE& so) {
    int b = A.constf(0.0);
    for (const auto& t : so.body->types) {
      b = A.addf(b, t.is_scalar()
                        ? A.constf(static_cast<double>(scalar_bytes(t.elem)))
                        : bytes_of_f({&t}));
    }
    return b;
  }

  /// Mirrors CostWalker::kernel.
  int build_kernel(const SegOpE& so) {
    const size_t m = env.size();
    const int points = space_points_i(so.space);
    const bool has_inner = has_segops(so.body);
    int node;
    if (has_inner) {
      INCFLAT_CHECK(so.op == SegOpE::Op::Map,
                    "only segmap kernels may contain intra-group parallelism");
      node = build_group_kernel(so, points);
    } else {
      node = build_thread_kernel(so, points);
    }
    env.resize(m);
    return node;
  }

  /// Mirrors thread_kernel.
  int build_thread_kernel(const SegOpE& so, int points) {
    const int tile_div = so.block_tiled ? dev_tile() : A.constf(1.0);
    const double scalar_reads = bind_space(so.space);
    SymWork per = seq(so.body, tile_div);
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
      SymWork comb = seq(so.combine.body, A.constf(1.0));
      total = wadd(total, wscale(comb, points_f));
      const int one = A.consti(1);
      const int segments =
          A.divi(points, A.maxi(dim_i(so.space.back().dim), one));
      const int result_bytes = bytes_per_point_results_f(so);
      total.gbytes =
          A.addf(total.gbytes, A.mulf(A.i2f(segments), result_bytes));
      launches = 2;
    } else {
      what = "segscan^" + std::to_string(so.level);
      SymWork comb = seq(so.combine.body, A.constf(1.0));
      total = wadd(total, wscale(comb, A.mulf(A.constf(2.0), points_f)));
      const int result_bytes = bytes_per_point_results_f(so);
      total.gbytes = A.addf(
          total.gbytes, A.mulf(A.mulf(A.constf(3.0), points_f), result_bytes));
      launches = 2;
    }
    if (so.block_tiled) what += "[tiled]";
    return add_kernel(what, total, points, launches, -1);
  }

  // --------------------------------------------------------- group kernels

  /// Mirrors GroupAcc, with symbolic quantities; its local_names are
  /// local_.
  struct SymGroupAcc {
    SymWork per_group;
    int max_inner = -1;   // I node
    int local_peak = -1;  // F node
  };

  /// The scratchpad-resident names of the group kernel being built.
  /// Names are only added, except that a loop body's own are dropped after
  /// it, as the walker drops its inner copy.
  BoundNames local_;

  /// Mirrors group_walk.
  void group_walk(const ExprP& e, SymGroupAcc& acc) {
    if (!e) return;
    if (auto* so = e->as<SegOpE>()) {
      const int pts = space_points_i(so->space);
      acc.max_inner = A.maxi(acc.max_inner, pts);
      const size_t m = env.size();
      SymWork w = wzero();
      const int pts_f = A.i2f(pts);
      for (const auto& lvl : so->space) {
        for (size_t i = 0; i < lvl.params.size(); ++i) {
          const TypeView row = env[find_array(lvl.arrays[i])].type.row();
          bind(lvl.params[i], row);
          const int b = A.mulf(pts_f, bytes_of_f(row));
          if (local_.contains(lvl.arrays[i])) {
            w.lbytes = A.addf(w.lbytes, b);
          } else {
            w.gbytes = A.addf(w.gbytes, b);
          }
        }
      }
      SymWork body = seq(so->body, A.constf(1.0));
      env.resize(m);
      const int elem_bytes = bytes_per_point_results_f(*so);
      w = wadd(w, wscale(body, pts_f));
      if (so->op == SegOpE::Op::Scan) {
        const int ceil_log = A.ceilf_(A.log2f_(pts_f));
        const int logp = A.maxf(A.constf(1.0), ceil_log);
        w.lbytes = A.addf(
            w.lbytes,
            A.mulf(A.mulf(A.mulf(A.constf(2.0), logp), pts_f), elem_bytes));
        const int sweeps = A.mulf(logp, pts_f);
        w = wadd(w, wscale(seq(so->combine.body, A.constf(1.0)), sweeps));
      } else if (so->op == SegOpE::Op::Red) {
        w.lbytes = A.addf(
            w.lbytes, A.mulf(A.mulf(A.constf(2.0), pts_f), elem_bytes));
        w = wadd(w, wscale(seq(so->combine.body, A.constf(1.0)),
                           pts_f));
      } else {
        w.lbytes = A.addf(w.lbytes, A.mulf(pts_f, elem_bytes));
      }
      acc.per_group = wadd(acc.per_group, w);
      acc.local_peak = A.maxf(
          acc.local_peak, A.mulf(A.mulf(A.constf(2.0), pts_f), elem_bytes));
      return;
    }
    if (auto* l = e->as<LetE>()) {
      group_walk(l->rhs, acc);
      for (size_t i = 0; i < l->vars.size(); ++i) {
        bind(l->vars[i], {&l->rhs->types[i]});
        local_.push(l->vars[i]);
      }
      group_walk(l->body, acc);
      return;
    }
    if (auto* lp = e->as<LoopE>()) {
      for (size_t i = 0; i < lp->params.size(); ++i) {
        bind(lp->params[i], {&lp->inits[i]->types.at(0)});
        local_.push(lp->params[i]);
      }
      bind(lp->ivar, {&i64_type()});
      const int trips = A.i2f(size_scalar_i(lp->count));
      SymGroupAcc inner;
      inner.per_group = wzero();
      inner.max_inner = acc.max_inner;
      inner.local_peak = A.constf(0.0);
      const size_t outer = local_.size();
      group_walk(lp->body, inner);
      local_.pop_to(outer);
      acc.per_group = wadd(acc.per_group, wscale(inner.per_group, trips));
      acc.max_inner = A.maxi(acc.max_inner, inner.max_inner);
      acc.local_peak = A.maxf(acc.local_peak, inner.local_peak);
      return;
    }
    if (auto* i = e->as<IfE>()) {
      if (i->cond->is<ThresholdCmpE>()) guard_in_kernel();
      // Data-dependent branch: the walker accumulates both sides into
      // copies and keeps the heavier one.  Both sides must leave the same
      // set of names, so the else side's stay.
      const size_t m = local_.size();
      SymGroupAcc a = acc, b = acc;
      group_walk(i->then_e, a);
      BoundNames then_names;
      for (size_t k = m; k < local_.size(); ++k) then_names.push(local_[k]);
      local_.pop_to(m);
      group_walk(i->else_e, b);
      bool same = true;
      for (size_t k = 0; k < then_names.size(); ++k) {
        same = same && local_.contains(then_names[k]);
      }
      for (size_t k = m; k < local_.size(); ++k) {
        same = same && (local_.contains(local_[k], m) ||
                        then_names.contains(local_[k]));
      }
      if (!same) {
        unsupported(
            "data-dependent intra-group branches bind different "
            "scratchpad-resident names");
      }
      const int wa = A.addf(A.addf(a.per_group.flops, a.per_group.gbytes),
                            a.per_group.lbytes);
      const int wb = A.addf(A.addf(b.per_group.flops, b.per_group.gbytes),
                            b.per_group.lbytes);
      const int c = A.gef(wa, wb);
      acc.per_group = {A.self(c, a.per_group.flops, b.per_group.flops),
                       A.self(c, a.per_group.gbytes, b.per_group.gbytes),
                       A.self(c, a.per_group.lbytes, b.per_group.lbytes)};
      acc.max_inner = A.seli(c, a.max_inner, b.max_inner);
      acc.local_peak = A.self(c, a.local_peak, b.local_peak);
      return;
    }
    if (auto* t = e->as<TupleE>()) {
      for (const auto& x : t->elems) group_walk(x, acc);
      return;
    }
    // Sequential code inside the group.
    acc.per_group = wadd(acc.per_group, seq(e, A.constf(1.0)));
  }

  /// Mirrors group_kernel.
  int build_group_kernel(const SegOpE& so, int groups) {
    const int scalar_in = A.constf(bind_space(so.space));
    const int staged_in = A.addf(array_param_bytes_f(), scalar_in);
    SymGroupAcc acc;
    acc.per_group = wzero();
    acc.max_inner = A.consti(1);
    acc.local_peak = A.constf(0.0);
    local_.pop_to(0);
    for (const auto& lvl : so.space) {
      for (const auto& p : lvl.params) local_.push(p);
    }
    group_walk(so.body, acc);

    const int max_group = dev_maxg();
    const int group_size =
        A.mini(A.maxi(acc.max_inner, A.consti(1)), max_group);
    SymWork per = acc.per_group;
    per.gbytes = A.addf(per.gbytes, staged_in);
    const int out_bytes = bytes_of_f(so.body->types);
    per.gbytes = A.addf(per.gbytes, out_bytes);

    const int fb = A.gtf(acc.local_peak, dev_lmem());
    const int gb = A.self(
        fb, A.addf(per.gbytes, A.mulf(per.lbytes, A.constf(1.2))), per.gbytes);
    const int lb = A.self(fb, A.constf(0.0), per.lbytes);

    const int groups_f = A.i2f(groups);
    const SymWork total{A.mulf(per.flops, groups_f), A.mulf(gb, groups_f),
                        A.mulf(lb, groups_f)};
    const int threads = A.muli(groups, group_size);
    return add_kernel("segmap^" + std::to_string(so.level) + "{intra}", total,
                      threads, 1, fb);
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
  plan.program = p.name;
  Builder b(plan);
  const std::vector<std::string> size_params = p.size_params();
  for (const auto& in : p.inputs) b.bind(in.name, {&in.type});
  for (const auto& sp : size_params) b.bind(sp, {&i64_type()});
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
