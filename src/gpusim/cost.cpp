#include "src/gpusim/cost.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/ir/traverse.h"
#include "src/support/checked.h"
#include "src/support/error.h"

namespace incflat {

double unop_flop_cost(const std::string& op) {
  if (op == "exp" || op == "log" || op == "pow") return 8;
  if (op == "sqrt") return 4;
  return 1;
}

double binop_flop_cost(const std::string& op) { return op == "pow" ? 8 : 1; }

namespace {

double bytes_of(const Type& t, const SizeEnv& sizes) {
  return static_cast<double>(t.count(sizes)) * scalar_bytes(t.elem);
}

double bytes_of(const std::vector<Type>& ts, const SizeEnv& sizes) {
  double b = 0;
  for (const auto& t : ts) b += bytes_of(t, sizes);
  return b;
}

Work work_max(const Work& a, const Work& b) {
  const double wa = a.flops + a.gbytes + a.lbytes;
  const double wb = b.flops + b.gbytes + b.lbytes;
  return wa >= wb ? a : b;
}

struct CostWalker {
  const DeviceProfile& dev;
  const SizeEnv& sizes;
  const ThresholdEnv& thr;
  RunEstimate out;
  TypeEnv env;

  // ------------------------------------------------------------------
  // Sequential (per-thread) cost.  `tile_div` divides global array reads
  // when the enclosing kernel is block-tiled.  `priv` holds the names of
  // thread-private values (loop state, in-thread let bindings): traversing
  // them costs fast-memory (register/local) traffic, not global bandwidth.
  // ------------------------------------------------------------------
  using Privates = std::set<std::string>;

  Work seq(const ExprP& e, double tile_div) {
    Privates priv;
    return seqp(e, tile_div, priv);
  }

  Work seqp(const ExprP& e, double tile_div, Privates priv) {
    if (!e) return {};
    Work w;
    if (e->is<VarE>() || e->is<ConstE>() || e->is<ThresholdCmpE>() ||
        e->is<IotaE>()) {
      return w;
    }
    if (auto* b = e->as<BinOpE>()) {
      w += seqp(b->lhs, tile_div, priv);
      w += seqp(b->rhs, tile_div, priv);
      w.flops += binop_flop_cost(b->op);
      return w;
    }
    if (auto* u = e->as<UnOpE>()) {
      w = seqp(u->e, tile_div, priv);
      w.flops += unop_flop_cost(u->op);
      return w;
    }
    if (auto* i = e->as<IfE>()) {
      w = seqp(i->cond, tile_div, priv);
      w += work_max(seqp(i->then_e, tile_div, priv),
                    seqp(i->else_e, tile_div, priv));
      return w;
    }
    if (auto* l = e->as<LetE>()) {
      w = seqp(l->rhs, tile_div, priv);
      priv.insert(l->vars.begin(), l->vars.end());
      w += seqp(l->body, tile_div, priv);
      return w;
    }
    if (auto* lp = e->as<LoopE>()) {
      for (const auto& in : lp->inits) w += seqp(in, tile_div, priv);
      const double trips =
          static_cast<double>(eval_size_scalar(lp->count, sizes));
      priv.insert(lp->params.begin(), lp->params.end());
      priv.insert(lp->ivar);
      w += seqp(lp->body, tile_div, priv) * trips;
      return w;
    }
    if (auto* m = e->as<MapE>()) {
      const double n = soac_len(m->arrays);
      Privates priv2 = priv;
      for (const auto& p : m->f.params) priv2.insert(p.name);
      Work body = seqp(m->f.body, tile_div, priv2);
      body += read_work(m->arrays, priv, tile_div);
      // Per-element result write: thread-private arrays spill to global
      // memory (they exceed the register file; OpenCL "private" arrays
      // live in DRAM).
      body.gbytes += bytes_of_rows(e->types);
      return body * n;
    }
    if (auto* r = e->as<ReduceE>()) {
      const double n = soac_len(r->arrays);
      Work body = seqp(r->op.body, tile_div, priv);
      body += read_work(r->arrays, priv, tile_div);
      return body * n;
    }
    if (auto* s = e->as<ScanE>()) {
      const double n = soac_len(s->arrays);
      Work body = seqp(s->op.body, tile_div, priv);
      body += read_work(s->arrays, priv, tile_div);
      body.gbytes += bytes_of_rows(e->types);  // spilled private result
      return body * n;
    }
    if (auto* rm = e->as<RedomapE>()) {
      const double n = soac_len(rm->arrays);
      Privates priv2 = priv;
      for (const auto& p : rm->mapf.params) priv2.insert(p.name);
      Work body = seqp(rm->mapf.body, tile_div, priv2);
      body += seqp(rm->red.body, tile_div, priv);
      // A tile cannot be larger than the traversed dimension.
      body += read_work(rm->arrays, priv,
                        std::min(tile_div, std::max(n, 1.0)));
      return body * n;
    }
    if (auto* sm = e->as<ScanomapE>()) {
      const double n = soac_len(sm->arrays);
      Privates priv2 = priv;
      for (const auto& p : sm->mapf.params) priv2.insert(p.name);
      Work body = seqp(sm->mapf.body, tile_div, priv2);
      body += seqp(sm->red.body, tile_div, priv);
      body += read_work(sm->arrays, priv, tile_div);
      body.gbytes += bytes_of_rows(e->types);  // spilled private result
      return body * n;
    }
    if (auto* rp = e->as<ReplicateE>()) {
      w = seqp(rp->elem, tile_div, priv);
      w.gbytes += bytes_of(e->types, sizes);  // spilled private array
      return w;
    }
    if (auto* ra = e->as<RearrangeE>()) {
      return seqp(ra->e, tile_div, priv);  // metadata only
    }
    if (auto* ix = e->as<IndexE>()) {
      w = seqp(ix->arr, tile_div, priv);
      for (const auto& i : ix->idxs) w += seqp(i, tile_div, priv);
      auto* av = ix->arr->as<VarE>();
      if (av && priv.count(av->name)) {
        w.gbytes += bytes_of(e->types, sizes);  // spilled private array
      } else {
        w.gbytes += bytes_of(e->types, sizes) / tile_div;
      }
      return w;
    }
    if (auto* t = e->as<TupleE>()) {
      for (const auto& x : t->elems) w += seqp(x, tile_div, priv);
      return w;
    }
    INCFLAT_FAIL("seq cost: parallel construct in sequential context");
  }

  double soac_len(const std::vector<ExprP>& arrays) {
    INCFLAT_CHECK(!arrays.empty(), "SOAC with no arrays in cost");
    return static_cast<double>(arrays[0]->type().shape[0].eval(sizes));
  }

  /// Traffic of reading one row of each SOAC operand: iota rows are free
  /// (computed), thread-private rows hit fast memory, the rest hit global
  /// memory (divided by the effective tile factor).
  Work read_work(const std::vector<ExprP>& arrays, const Privates& priv,
                 double tile_div) {
    Work w;
    for (const auto& a : arrays) {
      if (a->is<IotaE>()) continue;
      const double b = bytes_of(a->type().row(), sizes);
      auto* av = a->as<VarE>();
      if (av && priv.count(av->name)) {
        w.gbytes += b;  // spilled private array, uncacheable but untiled
      } else {
        w.gbytes += b / tile_div;
      }
    }
    return w;
  }

  /// Bytes of one element (row) of each result array type.
  double bytes_of_rows(const std::vector<Type>& ts) {
    double b = 0;
    for (const auto& t : ts) {
      b += t.rank() >= 1 ? bytes_of(t.row(), sizes)
                         : static_cast<double>(scalar_bytes(t.elem));
    }
    return b;
  }

  // ------------------------------------------------------------------
  // Host-level walk.
  // ------------------------------------------------------------------
  double host(const ExprP& e) {
    if (!e) return 0;
    if (e->is<VarE>() || e->is<ConstE>() || e->is<ThresholdCmpE>() ||
        e->is<IotaE>()) {
      return 0;
    }
    if (auto* l = e->as<LetE>()) {
      double t = host(l->rhs);
      for (size_t i = 0; i < l->vars.size(); ++i) {
        env[l->vars[i]] = l->rhs->types[i];
      }
      return t + host(l->body);
    }
    if (auto* lp = e->as<LoopE>()) {
      double t = 0;
      for (size_t i = 0; i < lp->params.size(); ++i) {
        t += host(lp->inits[i]);
        env[lp->params[i]] = lp->inits[i]->types.at(0);
      }
      env[lp->ivar] = Type::scalar(Scalar::I64);
      const double trips =
          static_cast<double>(eval_size_scalar(lp->count, sizes));
      const int64_t k0 = out.kernel_launches;
      const Work w0 = out.total;
      const size_t kc0 = out.kernels.size();
      double body_t = host(lp->body);
      // Scale the body's contribution by the trip count.
      out.kernel_launches = k0 + (out.kernel_launches - k0) *
                                     static_cast<int64_t>(trips);
      Work dw = out.total;
      dw.flops = w0.flops + (dw.flops - w0.flops) * trips;
      dw.gbytes = w0.gbytes + (dw.gbytes - w0.gbytes) * trips;
      dw.lbytes = w0.lbytes + (dw.lbytes - w0.lbytes) * trips;
      out.total = dw;
      for (size_t k = kc0; k < out.kernels.size(); ++k) {
        out.kernels[k].what += " x" + std::to_string(static_cast<int64_t>(trips));
      }
      return t + body_t * trips;
    }
    if (auto* i = e->as<IfE>()) {
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        const bool taken = guard_taken(*tc);
        out.guards.emplace_back(tc->threshold, taken);
        return host(taken ? i->then_e : i->else_e);
      }
      // Data-dependent host-level branch: price the worse branch.
      CostWalker a{dev, sizes, thr, {}, env};
      CostWalker b{dev, sizes, thr, {}, env};
      const double ta = a.host(i->then_e), tb = b.host(i->else_e);
      CostWalker& worse = ta >= tb ? a : b;
      out.kernel_launches += worse.out.kernel_launches;
      out.total += worse.out.total;
      out.kernels.insert(out.kernels.end(), worse.out.kernels.begin(),
                         worse.out.kernels.end());
      out.guards.insert(out.guards.end(), worse.out.guards.begin(),
                        worse.out.guards.end());
      return std::max(ta, tb);
    }
    if (auto* so = e->as<SegOpE>()) return kernel(*so);
    if (auto* t = e->as<TupleE>()) {
      double tt = 0;
      for (const auto& x : t->elems) tt += host(x);
      return tt;
    }
    if (e->is<ReplicateE>()) {
      // Device-side fill of the replicated array.
      Work w;
      w.gbytes = bytes_of(e->types, sizes);
      return price_kernel("replicate", w, sizes_threads(e->types), 1);
    }
    if (e->is<RearrangeE>()) return 0;  // metadata
    if (e->is<IndexE>() || e->is<BinOpE>() || e->is<UnOpE>()) {
      return 0;  // host scalar code
    }
    // Residual sequential SOACs at host level: executed on one GPU thread
    // (the catastrophic case the flatteners avoid).
    Work w = seq(e, 1.0);
    return price_kernel("sequential", w, 1, 1);
  }

  /// Guard evaluation: parallelism threshold plus the workgroup-size
  /// feasibility of intra-group versions on this device.
  bool guard_taken(const ThresholdCmpE& tc) const {
    if (!tc.fit.alts.empty() &&
        tc.fit.eval(sizes) > dev.max_group_size) {
      return false;
    }
    return tc.par.eval(sizes) >= thr.get(tc.threshold);
  }

  int64_t sizes_threads(const std::vector<Type>& ts) {
    int64_t n = 0;
    for (const auto& t : ts) n = size_add(n, t.count(sizes));
    return std::max<int64_t>(n, 1);
  }

  // ------------------------------------------------------------------
  // Kernel pricing.
  // ------------------------------------------------------------------
  double price_kernel(const std::string& what, const Work& w,
                      int64_t threads, int launches,
                      bool local_fallback = false) {
    const double t = roofline_time(dev, w, threads, launches);
    out.kernel_launches += launches;
    out.total += w;
    out.kernels.push_back(KernelCost{what, t, threads, w, local_fallback});
    return t;
  }

  int64_t space_points(const SegSpace& space) const {
    int64_t n = 1;
    for (const auto& b : space) n = size_mul(n, b.dim.eval(sizes));
    return n;
  }

  /// Bytes of scalar (rank-0) space-bound parameters: one read per point.
  double scalar_param_bytes(const SegSpace& space) {
    double b = 0;
    TypeEnv scratch = env;
    for (const auto& lvl : space) {
      for (size_t i = 0; i < lvl.params.size(); ++i) {
        auto it = scratch.find(lvl.arrays[i]);
        INCFLAT_CHECK(it != scratch.end(),
                      "cost: seg array untyped: " + lvl.arrays[i]);
        const Type row = it->second.row();
        scratch[lvl.params[i]] = row;
        if (row.is_scalar()) b += scalar_bytes(row.elem);
      }
    }
    return b;
  }

  /// Bytes of array-typed rows bound by the space — the per-group staged
  /// inputs.  Parameters that only feed a deeper binder (pass-through
  /// chains from rules G6/G7) are peeled, not staged, and are excluded.
  double array_param_bytes(const SegSpace& space) {
    std::set<std::string> pass_through;
    for (const auto& lvl : space) {
      pass_through.insert(lvl.arrays.begin(), lvl.arrays.end());
    }
    double b = 0;
    TypeEnv scratch = env;
    for (const auto& lvl : space) {
      for (size_t i = 0; i < lvl.params.size(); ++i) {
        auto it = scratch.find(lvl.arrays[i]);
        INCFLAT_CHECK(it != scratch.end(), "cost: seg array untyped");
        const Type row = it->second.row();
        scratch[lvl.params[i]] = row;
        if (row.is_array() && !pass_through.count(lvl.params[i])) {
          b += bytes_of(row, sizes);
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

  double kernel(const SegOpE& so) {
    TypeEnv saved = env;
    const int64_t points = space_points(so.space);
    const bool has_inner = has_segops(so.body);
    double t;
    if (has_inner) {
      INCFLAT_CHECK(so.op == SegOpE::Op::Map,
                    "only segmap kernels may contain intra-group parallelism");
      t = group_kernel(so, points);
    } else {
      t = thread_kernel(so, points);
    }
    env = saved;
    return t;
  }

  double thread_kernel(const SegOpE& so, int64_t points) {
    const double tile_div =
        so.block_tiled ? static_cast<double>(dev.tile_size) : 1.0;
    const double scalar_reads = scalar_param_bytes(so.space);
    bind_space(so.space);
    Work per = seq(so.body, tile_div);
    per.gbytes += scalar_reads;

    std::string what;
    int launches = 1;
    Work total = per * static_cast<double>(points);
    if (so.op == SegOpE::Op::Map) {
      what = "segmap^" + std::to_string(so.level);
      total.gbytes += static_cast<double>(points) *
                      bytes_per_point_results(so);
    } else if (so.op == SegOpE::Op::Red) {
      what = "segred^" + std::to_string(so.level);
      Work comb = seq(so.combine.body, 1.0);
      total += comb * static_cast<double>(points);
      // Partials + final pass.
      const int64_t segments =
          points / std::max<int64_t>(so.space.back().dim.eval(sizes), 1);
      total.gbytes += static_cast<double>(segments) *
                      bytes_per_point_results(so);
      launches = 2;
    } else {
      what = "segscan^" + std::to_string(so.level);
      Work comb = seq(so.combine.body, 1.0);
      total += comb * (2.0 * static_cast<double>(points));
      // Multi-pass scan: ~3 global accesses per element (Sec. 5.2).
      total.gbytes += 3.0 * static_cast<double>(points) *
                      bytes_per_point_results(so);
      launches = 2;
    }
    if (so.block_tiled) what += "[tiled]";
    return price_kernel(what, total, points, launches);
  }

  double bytes_per_point_results(const SegOpE& so) {
    double b = 0;
    for (const auto& t : so.body->types) {
      b += t.is_scalar() ? scalar_bytes(t.elem) : bytes_of(t, sizes);
    }
    return b;
  }

  // Accumulated intra-group cost of a segmap^1 body.
  struct GroupAcc {
    Work per_group;
    int64_t max_inner = 1;       // widest level-0 parallelism
    double local_peak = 0;       // scratchpad bytes required
    std::set<std::string> local_names;  // arrays resident in scratchpad
  };

  void group_walk(const ExprP& e, GroupAcc& acc) {
    if (!e) return;
    if (auto* so = e->as<SegOpE>()) {
      const int64_t pts = space_points(so->space);
      acc.max_inner = std::max(acc.max_inner, pts);
      TypeEnv saved = env;
      Work w;
      // Per-point reads of the space-bound parameters: local-memory traffic
      // when the source array lives in scratchpad (staged input or an
      // intermediate produced inside this group), global otherwise.
      for (const auto& lvl : so->space) {
        for (size_t i = 0; i < lvl.params.size(); ++i) {
          const Type row = env.at(lvl.arrays[i]).row();
          env[lvl.params[i]] = row;
          const double b = static_cast<double>(pts) * bytes_of(row, sizes);
          if (acc.local_names.count(lvl.arrays[i])) {
            w.lbytes += b;
          } else {
            w.gbytes += b;
          }
        }
      }
      Work body = seq(so->body, 1.0);
      env = saved;
      const double elem_bytes = bytes_per_point_results(*so);
      const double dpts = static_cast<double>(pts);
      w += body * dpts;
      if (so->op == SegOpE::Op::Scan) {
        // Work-inefficient intra-group scan: log2(n) local sweeps
        // (Hillis-Steele), each reading and writing every element.
        const double logp = std::max(1.0, std::ceil(std::log2(dpts)));
        w.lbytes += 2.0 * logp * dpts * elem_bytes;
        w += seq(so->combine.body, 1.0) * (logp * dpts);
      } else if (so->op == SegOpE::Op::Red) {
        // Tree reduction: ~2n local traffic and n combine applications.
        w.lbytes += 2.0 * dpts * elem_bytes;
        w += seq(so->combine.body, 1.0) * dpts;
      } else {
        w.lbytes += dpts * elem_bytes;  // per-point result write
      }
      acc.per_group += w;
      acc.local_peak = std::max(
          acc.local_peak, 2.0 * static_cast<double>(pts) * elem_bytes);
      return;
    }
    if (auto* l = e->as<LetE>()) {
      group_walk(l->rhs, acc);
      for (size_t i = 0; i < l->vars.size(); ++i) {
        env[l->vars[i]] = l->rhs->types[i];
        acc.local_names.insert(l->vars[i]);  // group-produced intermediate
      }
      group_walk(l->body, acc);
      return;
    }
    if (auto* lp = e->as<LoopE>()) {
      for (size_t i = 0; i < lp->params.size(); ++i) {
        env[lp->params[i]] = lp->inits[i]->types.at(0);
        acc.local_names.insert(lp->params[i]);  // loop state stays resident
      }
      env[lp->ivar] = Type::scalar(Scalar::I64);
      const double trips =
          static_cast<double>(eval_size_scalar(lp->count, sizes));
      GroupAcc inner;
      inner.max_inner = acc.max_inner;
      inner.local_names = acc.local_names;
      group_walk(lp->body, inner);
      acc.per_group += inner.per_group * trips;
      acc.max_inner = std::max(acc.max_inner, inner.max_inner);
      acc.local_peak = std::max(acc.local_peak, inner.local_peak);
      return;
    }
    if (auto* i = e->as<IfE>()) {
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        const bool taken = guard_taken(*tc);
        out.guards.emplace_back(tc->threshold, taken);
        group_walk(taken ? i->then_e : i->else_e, acc);
        return;
      }
      GroupAcc a = acc, b = acc;
      group_walk(i->then_e, a);
      group_walk(i->else_e, b);
      const double wa = a.per_group.flops + a.per_group.gbytes + a.per_group.lbytes;
      const double wb = b.per_group.flops + b.per_group.gbytes + b.per_group.lbytes;
      acc = wa >= wb ? a : b;
      return;
    }
    if (auto* t = e->as<TupleE>()) {
      for (const auto& x : t->elems) group_walk(x, acc);
      return;
    }
    // Sequential code inside the group (runs redundantly / on one lane).
    acc.per_group += seq(e, 1.0);
  }

  double group_kernel(const SegOpE& so, int64_t groups) {
    TypeEnv saved = env;
    bind_space(so.space);
    const double staged_in = array_param_bytes(so.space) +
                             scalar_param_bytes(so.space);
    GroupAcc acc;
    // The kernel's space-bound rows are staged into scratchpad up front.
    for (const auto& lvl : so.space) {
      acc.local_names.insert(lvl.params.begin(), lvl.params.end());
    }
    group_walk(so.body, acc);
    env = saved;

    const int64_t group_size = std::min<int64_t>(
        std::max<int64_t>(acc.max_inner, 1), dev.max_group_size);
    Work per = acc.per_group;
    // One-time staging: inputs in, results out, through global memory.
    per.gbytes += staged_in;
    double out_bytes = 0;
    for (const auto& t : so.body->types) out_bytes += bytes_of(t, sizes);
    per.gbytes += out_bytes;

    // Only intermediates must be resident in scratchpad; staged inputs can
    // be streamed from global memory.
    const double local_need = acc.local_peak;
    bool fallback = false;
    if (local_need > static_cast<double>(dev.local_mem_bytes)) {
      // Sec. 4.1's "fallback kernel": intermediates spill to global memory.
      fallback = true;
      per.gbytes += per.lbytes * 1.2;
      per.lbytes = 0;
    }

    Work total = per * static_cast<double>(groups);
    const int64_t threads = size_mul(groups, group_size);
    std::string what = "segmap^" + std::to_string(so.level) + "{intra}";
    return price_kernel(what, total, threads, 1, fallback);
  }
};

}  // namespace

int64_t eval_size_scalar(const ExprP& e, const SizeEnv& sizes) {
  if (auto* v = e->as<VarE>()) {
    auto it = sizes.find(v->name);
    if (it == sizes.end()) {
      throw EvalError("size scalar: unbound " + v->name);
    }
    return it->second;
  }
  if (auto* c = e->as<ConstE>()) return c->i;
  if (auto* b = e->as<BinOpE>()) {
    const int64_t x = eval_size_scalar(b->lhs, sizes);
    const int64_t y = eval_size_scalar(b->rhs, sizes);
    if (b->op == "+") return size_add(x, y);
    if (b->op == "-") return size_sub(x, y);
    if (b->op == "*") return size_mul(x, y);
    if (b->op == "/") return y == 0 ? 0 : x / y;
    if (b->op == "min") return std::min(x, y);
    if (b->op == "max") return std::max(x, y);
  }
  throw EvalError("size scalar: unsupported expression");
}

double roofline_time(const DeviceProfile& dev, const Work& w, int64_t threads,
                     int launches) {
  const double n = std::max<double>(static_cast<double>(threads), 1.0);
  const double u = std::min(
      1.0, n / static_cast<double>(dev.saturation_threads));
  // Each resource rate scales linearly with utilised parallelism, floored
  // by the latency-bound per-thread streaming rate of `n` lone threads.
  auto rate = [&](double peak, double st) {
    return std::min(peak, std::max(u * peak, n * st));
  };
  return launches * dev.launch_overhead_us +
         std::max({w.flops / rate(dev.flop_rate, dev.st_flop_rate),
                   w.gbytes / rate(dev.gmem_bw, dev.st_gmem_rate),
                   w.lbytes / rate(dev.lmem_bw, dev.st_lmem_rate)});
}

RunEstimate estimate_run(const DeviceProfile& dev, const Program& p,
                         const SizeEnv& sizes,
                         const ThresholdEnv& thresholds) {
  CostWalker w{dev, sizes, thresholds, {}, {}};
  for (const auto& in : p.inputs) w.env[in.name] = in.type;
  for (const auto& sp : p.size_params()) {
    w.env[sp] = Type::scalar(Scalar::I64);
  }
  w.out.time_us = w.host(p.body);
  RunEstimate out = std::move(w.out);
  return out;
}

}  // namespace incflat
