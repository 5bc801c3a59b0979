#include "src/plan/plan.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "src/support/checked.h"
#include "src/support/error.h"

namespace incflat {

PlanDatasetCache::PlanDatasetCache(const KernelPlan& plan,
                                   const DeviceProfile& dev,
                                   const SizeEnv& sizes)
    : dev_(dev), sizes_(sizes), values_(plan.arena, dev, sizes) {
  kernels_.resize(plan.kernels.size());
  for (size_t k = 0; k < plan.kernels.size(); ++k) {
    const KernelDesc& d = plan.kernels[k];
    PricedKernel& pk = kernels_[k];
    const bool ok = values_.is_valid(d.flops) && values_.is_valid(d.gbytes) &&
                    values_.is_valid(d.lbytes) && values_.is_valid(d.threads) &&
                    (d.fallback < 0 || values_.is_valid(d.fallback));
    if (!ok) continue;
    pk.work.flops = values_.get_f(d.flops);
    pk.work.gbytes = values_.get_f(d.gbytes);
    pk.work.lbytes = values_.get_f(d.lbytes);
    pk.threads = values_.get_i(d.threads);
    pk.fallback = d.fallback >= 0 && values_.get_i(d.fallback) != 0;
    pk.time_us = roofline_time(dev_, pk.work, pk.threads, d.launches);
    pk.valid = true;
  }
  guards_.resize(plan.guards.size());
  for (size_t g = 0; g < plan.guards.size(); ++g) {
    const GuardInfo& gi = plan.guards[g];
    GuardVals& gv = guards_[g];
    if (!gi.fit.alts.empty()) {
      try {
        gv.fit_fail = gi.fit.eval(sizes_) > dev_.max_group_size;
      } catch (const EvalError&) {
        gv.error = true;
      }
    }
    if (!gv.error) {
      try {
        gv.par = gi.par.eval(sizes_);
      } catch (const EvalError&) {
        // Only an error if the fit check does not already reject the guard
        // (the walker short-circuits on fit failure).
        if (!gv.fit_fail) gv.error = true;
      }
    }
  }
}

const PlanDatasetCache::PricedKernel& PlanDatasetCache::kernel(int k) const {
  const PricedKernel& pk = kernels_[static_cast<size_t>(k)];
  if (!pk.valid) {
    throw EvalError("plan: kernel cost uses an unbound or overflowing size");
  }
  return pk;
}

void PlanDatasetCache::GuardVals::unbound() {
  throw EvalError(
      "plan: guard size expression uses an unbound or overflowing size");
}

void LaneSig::append_path(size_t lane, std::vector<uint64_t>& out) const {
  const size_t base = out.size();
  out.resize(base + (2 * guards + 63) / 64, 0);
  const uint64_t* r = reached.data() + lane / 64 * guards;
  const uint64_t* t = taken.data() + lane / 64 * guards;
  const size_t bit = lane % 64;
  for (size_t g = 0; g < guards; ++g) {
    const size_t b = 2 * g;
    out[base + b / 64] |= ((r[g] >> bit) & 1) << (b % 64);
    out[base + (b + 1) / 64] |= ((t[g] >> bit) & 1) << ((b + 1) % 64);
  }
}

GuardLanes::GuardLanes(const KernelPlan& plan,
                       std::span<const PlanDatasetCache> caches)
    : guards(plan.guards.size()),
      lanes(caches.size()),
      words((caches.size() + 63) / 64),
      par(guards * lanes),
      fit_fail(words * guards),
      unbound(words * guards) {
  for (size_t g = 0; g < guards; ++g) {
    for (size_t d = 0; d < lanes; ++d) {
      const PlanDatasetCache::GuardVals& v =
          caches[d].guard(static_cast<int>(g));
      const size_t w = d / 64 * guards + g;
      par[g * lanes + d] = v.par;
      fit_fail[w] |= uint64_t{v.fit_fail} << (d % 64);
      unbound[w] |= uint64_t{v.error} << (d % 64);
    }
  }
}

namespace {

/// The state of one plan_descend call.  `est` and `sched` are the sinks of
/// the subtree being descended: a DataCond points them at per-branch
/// buffers while it descends its two sides, then appends the worse side's
/// to its own.  The estimate is accumulated in exactly the walker's
/// operation order, so it is bit-identical to estimate_run's.
struct Descent {
  const KernelPlan& plan;
  const PlanDatasetCache& cache;
  const std::span<const int64_t> slots;
  RunEstimate* est;
  std::vector<LaunchInfo>* sched;
  /// Guard decisions from the root to the current node (kept for `sched`).
  std::vector<std::pair<int, bool>> path;

  double node(int id) {
    const PlanNode& n = plan.nodes[static_cast<size_t>(id)];
    switch (n.kind) {
      case PlanNode::Kind::Block: {
        double t = 0;
        for (const PlanNode::Step& s : n.steps) {
          t += s.is_kernel ? kernel(s.index) : node(s.index);
        }
        return t;
      }
      case PlanNode::Kind::Guard: {
        const size_t g = static_cast<size_t>(n.guard);
        const bool taken = cache.guard(n.guard).taken(slots[g]);
        if (est) est->guards.emplace_back(plan.guards[g].threshold, taken);
        if (sched) path.emplace_back(n.guard, taken);
        const double t = node(taken ? n.then_node : n.else_node);
        if (sched) path.pop_back();
        return t;
      }
      case PlanNode::Kind::DataCond:
        return data_cond(n);
      case PlanNode::Kind::Scale:
        return scale(n);
    }
    INCFLAT_FAIL("plan: unknown node kind");
  }

  double kernel(int k) {
    const KernelDesc& d = plan.kernels[static_cast<size_t>(k)];
    const auto& pk = cache.kernel(k);
    if (est) {
      est->kernel_launches = saturating_add(est->kernel_launches, d.launches);
      est->total += pk.work;
      est->kernels.push_back(
          KernelCost{d.what, pk.time_us, pk.threads, pk.work, pk.fallback});
    }
    if (sched) {
      sched->push_back(LaunchInfo{k, d.what, pk.time_us, d.launches, path});
    }
    return pk.time_us;
  }

  // The walker prices both branches with fresh sub-walkers and merges the
  // worse one's report.
  double data_cond(const PlanNode& n) {
    RunEstimate* const est0 = est;
    std::vector<LaunchInfo>* const sched0 = sched;
    RunEstimate ea, eb;
    std::vector<LaunchInfo> sa, sb;
    if (est0) est = &ea;
    if (sched0) sched = &sa;
    const double ta = node(n.then_node);
    if (est0) est = &eb;
    if (sched0) sched = &sb;
    const double tb = node(n.else_node);
    est = est0;
    sched = sched0;
    const bool then_worse = ta >= tb;
    if (est) {
      const RunEstimate& worse = then_worse ? ea : eb;
      est->kernel_launches =
          saturating_add(est->kernel_launches, worse.kernel_launches);
      est->total += worse.total;
      est->kernels.insert(est->kernels.end(), worse.kernels.begin(),
                          worse.kernels.end());
      est->guards.insert(est->guards.end(), worse.guards.begin(),
                         worse.guards.end());
    }
    if (sched) {
      std::vector<LaunchInfo>& worse = then_worse ? sa : sb;
      sched->insert(sched->end(), std::make_move_iterator(worse.begin()),
                    std::make_move_iterator(worse.end()));
    }
    return std::max(ta, tb);
  }

  double scale(const PlanNode& n) {
    const int64_t count = cache.values().get_i(n.count);
    const double trips = static_cast<double>(count);
    const int64_t k0 = est ? est->kernel_launches : 0;
    const Work w0 = est ? est->total : Work{};
    const size_t kc0 = est ? est->kernels.size() : 0;
    const size_t s0 = sched ? sched->size() : 0;
    const double body_t = node(n.child);
    if (est) {
      // Launches saturate, as the walker's do.
      est->kernel_launches = saturating_add(
          k0, saturating_mul(est->kernel_launches - k0, count));
      Work dw = est->total;
      dw.flops = w0.flops + (dw.flops - w0.flops) * trips;
      dw.gbytes = w0.gbytes + (dw.gbytes - w0.gbytes) * trips;
      dw.lbytes = w0.lbytes + (dw.lbytes - w0.lbytes) * trips;
      est->total = dw;
      for (size_t k = kc0; k < est->kernels.size(); ++k) {
        est->kernels[k].what += " x" + std::to_string(count);
      }
    }
    if (sched) {
      for (size_t i = s0; i < sched->size(); ++i) {
        LaunchInfo& li = (*sched)[i];
        li.time_us *= trips;
        li.launches = saturating_mul(li.launches, count);
        li.what += " x" + std::to_string(count);
      }
    }
    return body_t * trips;
  }
};

/// Slot i takes the named assignment's value for guard i's threshold.
std::vector<int64_t> resolve_slots(const KernelPlan& plan,
                                   const ThresholdEnv& thresholds) {
  std::vector<int64_t> slots;
  slots.reserve(plan.guards.size());
  for (const GuardInfo& g : plan.guards) {
    slots.push_back(thresholds.get(g.threshold));
  }
  return slots;
}

}  // namespace

double plan_descend(const KernelPlan& plan, const PlanDatasetCache& cache,
                    std::span<const int64_t> slots, const PlanDescent& want) {
  INCFLAT_CHECK(slots.size() == plan.guards.size(),
                "plan descent needs one threshold value per guard");
  Descent d{plan, cache, slots, want.estimate, want.schedule, {}};
  const double t = d.node(plan.root);
  if (want.estimate) want.estimate->time_us = t;
  return t;
}

double plan_descend(const KernelPlan& plan, const PlanDatasetCache& cache,
                    const ThresholdEnv& thresholds, const PlanDescent& want) {
  return plan_descend(plan, cache, resolve_slots(plan, thresholds), want);
}

RunEstimate plan_estimate(const KernelPlan& plan, const PlanDatasetCache& cache,
                          const ThresholdEnv& thresholds) {
  RunEstimate out;
  plan_descend(plan, cache, thresholds, {.estimate = &out});
  return out;
}

double plan_cost(const KernelPlan& plan, const PlanDatasetCache& cache,
                 const ThresholdEnv& thresholds) {
  return plan_descend(plan, cache, thresholds, {});
}

void plan_signature(const KernelPlan& plan, const GuardLanes& lanes,
                    std::span<const int64_t> slots, LaneSig& sig) {
  INCFLAT_CHECK(slots.size() == plan.guards.size() &&
                    lanes.guards == plan.guards.size(),
                "plan signature needs one threshold value per guard");
  const size_t guards = lanes.guards;
  sig.guards = guards;
  sig.lanes = lanes.lanes;
  sig.words = lanes.words;
  sig.reached.resize(lanes.words * guards);
  sig.taken.resize(lanes.words * guards);
  // Lane word by lane word, each a pass over the guards (a guard's parent
  // comes before it).  Every lane's Par is compared, reached or not: a
  // loop of fixed length, where one over the reached lanes would branch.
  for (size_t w = 0; w < lanes.words; ++w) {
    uint64_t* const reached = sig.reached.data() + w * guards;
    uint64_t* const taken = sig.taken.data() + w * guards;
    const uint64_t* const fit_fail = lanes.fit_fail.data() + w * guards;
    const uint64_t* const unbound = lanes.unbound.data() + w * guards;
    const size_t n = std::min<size_t>(64, lanes.lanes - 64 * w);
    const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
    const int64_t* par = lanes.par.data() + 64 * w;
    for (size_t g = 0; g < guards; ++g, par += lanes.lanes) {
      const GuardInfo& gi = plan.guards[g];
      const size_t p = static_cast<size_t>(gi.parent);
      const uint64_t r = gi.parent < 0 ? all
                         : gi.in_then  ? taken[p]
                                       : reached[p] & ~taken[p];
      if (unbound[g] & r) PlanDatasetCache::GuardVals::unbound();
      const int64_t slot = slots[g];
      uint64_t ge = 0;
      for (size_t b = 0; b < n; ++b) ge |= uint64_t{par[b] >= slot} << b;
      reached[g] = r;
      taken[g] = r & ~fit_fail[g] & ge;
    }
  }
}

void plan_signature(const KernelPlan& plan, const PlanDatasetCache& cache,
                    std::span<const int64_t> slots, PathSig& sig) {
  LaneSig lane;
  plan_signature(plan, GuardLanes(plan, std::span(&cache, 1)), slots, lane);
  sig.bits.clear();
  lane.append_path(0, sig.bits);
}

PathSig plan_signature(const KernelPlan& plan, const PlanDatasetCache& cache,
                       const ThresholdEnv& thresholds) {
  PathSig sig;
  plan_signature(plan, cache, resolve_slots(plan, thresholds), sig);
  return sig;
}

std::vector<LaunchInfo> plan_launch_schedule(const KernelPlan& plan,
                                             const PlanDatasetCache& cache,
                                             const ThresholdEnv& thresholds) {
  std::vector<LaunchInfo> out;
  plan_descend(plan, cache, thresholds, {.schedule = &out});
  return out;
}

RunEstimate plan_estimate_run(const KernelPlan& plan, const DeviceProfile& dev,
                              const SizeEnv& sizes,
                              const ThresholdEnv& thresholds) {
  PlanDatasetCache cache(plan, dev, sizes);
  return plan_estimate(plan, cache, thresholds);
}

std::string plan_stats(const KernelPlan& plan) {
  std::ostringstream os;
  os << "plan: " << plan.nodes.size() << " tree nodes, " << plan.guards.size()
     << " guards, " << plan.kernels.size() << " kernels, "
     << plan.arena.size() << " cost-expression nodes";
  return os.str();
}

}  // namespace incflat
