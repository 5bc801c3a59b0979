#include "src/autotune/autotune.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/autotune/journal.h"
#include "src/plan/plan.h"
#include "src/support/error.h"
#include "src/support/rng.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

/// The search space and measurement settings no caller varies: thresholds
/// range over [2^kLog2Min, 2^kLog2Max], and a noisy or failing measurement
/// is the median of kMeasureK re-measurements.
constexpr int kLog2Min = 0;
constexpr int kLog2Max = 31;
constexpr int kMeasureK = 5;

/// The value of a threshold the search leaves unset (the paper's 2^15).
const int64_t kDefaultThreshold = ThresholdEnv{}.default_threshold;

/// A candidate assignment: one value per plan guard, in guard order, where
/// kUnset leaves that threshold at the default.  The search runs on these
/// flat vectors; a ThresholdEnv is built only for the report.
using Candidate = std::vector<int64_t>;
constexpr int64_t kUnset = std::numeric_limits<int64_t>::min();

/// The report's assignment: exactly the thresholds the candidate sets.
ThresholdEnv to_env(const KernelPlan& plan, const Candidate& assignment) {
  ThresholdEnv env;
  for (size_t i = 0; i < plan.guards.size(); ++i) {
    if (assignment[i] != kUnset) {
      env.values.emplace(plan.guards[i].threshold, assignment[i]);
    }
  }
  return env;
}

// ---------------------------------------------------------------------------
// Fallible, noisy measurements with a crash-safe journal.
//
// When any robustness option is enabled, every memoizer cache miss routes
// through a MeasureSession: the true (simulated) cost is re-measured
// median-of-k under multiplicative noise, individual measurements can fail
// (discarded; all-k-failed marks the candidate infeasible), and each final
// measured value is appended to the journal as a single flushed write.  A
// resumed search answers evaluations from the journal in order — advancing
// the measurement RNG by exactly the draws a live measurement consumes, so
// the continuation is bit-identical to an uninterrupted run.
// ---------------------------------------------------------------------------

struct Measurer {
  double noise = 0;
  double failure_rate = 0;
  bool active = false;
  int k = 1;
  Rng rng;

  explicit Measurer(const TunerOptions& opts)
      : noise(opts.noise),
        failure_rate(opts.failure_rate),
        active(opts.noise > 0 || opts.failure_rate > 0),
        k(active ? kMeasureK : 1),
        rng(opts.measure_seed) {}

  /// Median-of-k measurement of a candidate with true cost `t`.  Consumes
  /// exactly 2k draws (k failure tests + k noise factors) so replayed and
  /// live evaluations advance the stream identically.  All k failed ->
  /// +inf (infeasible).
  double measure(double t) {
    if (!active) return t;
    std::vector<double> ms;
    ms.reserve(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
      const double fail = rng.uniform();
      const double n = rng.uniform();
      if (fail < failure_rate) continue;
      ms.push_back(t * (1.0 + noise * (2.0 * n - 1.0)));
    }
    if (ms.empty()) return std::numeric_limits<double>::infinity();
    std::sort(ms.begin(), ms.end());
    const size_t m = ms.size();
    return m % 2 == 1 ? ms[m / 2] : 0.5 * (ms[m / 2 - 1] + ms[m / 2]);
  }

  /// Advance the stream as one measurement would, without measuring (used
  /// for journal-replayed and unpriceable evaluations).
  void skip_draws() {
    if (!active) return;
    for (int j = 0; j < 2 * k; ++j) rng.next();
  }
};

struct MeasureSession {
  Measurer meas;
  TuneJournal* journal = nullptr;
  std::vector<JournalEntry> replay;
  size_t replay_ix = 0;
  TuningReport* rep = nullptr;

  MeasureSession(const TunerOptions& opts, TuningReport* report)
      : meas(opts), rep(report) {}

  /// A candidate whose every measurement failed has an infinite cost:
  /// counted infeasible, never adopted, never fatal.
  double count(double c) {
    if (!(c < std::numeric_limits<double>::infinity())) ++rep->infeasible;
    return c;
  }

  /// Measure one evaluation: replay from the journal when entries remain,
  /// else measure live (a candidate whose pricing throws EvalError — e.g.
  /// unbound sizes — is infeasible, not fatal) and journal the result.
  double evaluate(uint64_t key_hash, const std::function<double()>& true_cost) {
    if (replay_ix < replay.size()) {
      const JournalEntry& e = replay[replay_ix];
      if (e.key_hash != key_hash) {
        throw IoError(
            "tuning journal is out of sync with the search (entry " +
            std::to_string(replay_ix) + " hash mismatch) — refusing resume");
      }
      ++replay_ix;
      meas.skip_draws();
      ++rep->journal_replayed;
      return count(e.cost());
    }
    double c;
    try {
      c = meas.measure(true_cost());
    } catch (const EvalError&) {
      meas.skip_draws();
      c = std::numeric_limits<double>::infinity();
    }
    if (journal) journal->append(JournalEntry::of(key_hash, c));
    return count(c);
  }
};

uint64_t double_bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Whether any robustness machinery is needed; when false, candidate costs
/// bypass the MeasureSession entirely and the search is bit-identical to
/// previous releases.
bool session_needed(const TunerOptions& opts) {
  return opts.noise > 0 || opts.failure_rate > 0 || !opts.journal.empty();
}

// ---------------------------------------------------------------------------
// Evaluation: each dataset's sizes are swept through the plan's cost arena
// once, and every candidate afterwards is a decision-tree descent on the
// plan's threshold slots.  Dedup keys are the concatenated guard-path
// bitsets of all datasets, each one forward pass over the guard list.
// ---------------------------------------------------------------------------

struct PlanEval {
  const KernelPlan& plan;
  const std::vector<TuningDataset>& datasets;
  std::vector<PlanDatasetCache> caches;

  PlanEval(const DeviceProfile& dev, const KernelPlan& p,
           const std::vector<TuningDataset>& ds)
      : plan(p), datasets(ds) {
    trace::Span span("tune.plan_warm");
    caches.reserve(ds.size());
    for (const TuningDataset& d : ds) caches.emplace_back(plan, dev, d.sizes);
  }
};

/// Candidate costs memoized by dedup key: an assignment whose key was seen
/// is a dedup hit and costs nothing to evaluate (paper Sec. 4.2).  The slot,
/// key and signature buffers are reused across trials.
struct PlanMemoizer {
  const PlanEval& ev;
  MeasureSession* session = nullptr;
  std::map<std::vector<uint64_t>, double> cache;
  int evaluations = 0;
  int dedup_hits = 0;
  std::vector<int64_t> slots;
  std::vector<uint64_t> key;
  PathSig sig;

  PlanMemoizer(const PlanEval& e, MeasureSession* s) : ev(e), session(s) {}

  double cost(const Candidate& cand) {
    slots.resize(cand.size());
    for (size_t i = 0; i < cand.size(); ++i) {
      slots[i] = cand[i] == kUnset ? kDefaultThreshold : cand[i];
    }
    key.clear();
    for (const PlanDatasetCache& c : ev.caches) {
      plan_signature(ev.plan, c, slots, sig);
      key.insert(key.end(), sig.bits.begin(), sig.bits.end());
    }
    auto it = cache.find(key);
    if (it != cache.end()) {
      ++dedup_hits;
      return it->second;
    }
    ++evaluations;
    // Weighted-sum cost in tuning_cost's accumulation order; the descent's
    // time is bit-identical to estimate_run().time_us, so this equals the
    // reference cost exactly.
    const auto true_cost = [&] {
      double total = 0;
      for (size_t i = 0; i < ev.caches.size(); ++i) {
        total += ev.datasets[i].weight *
                 plan_descend(ev.plan, ev.caches[i], slots, {});
      }
      return total;
    };
    const double c =
        session
            ? session->evaluate(
                  journal_hash(key.data(), key.size() * sizeof(uint64_t)),
                  true_cost)
            : true_cost();
    cache.emplace(key, c);
    return c;
  }
};

// ---------------------------------------------------------------------------
// Search.
// ---------------------------------------------------------------------------

void stochastic_search(PlanMemoizer& memo, const TunerOptions& opts,
                       TuningReport& rep) {
  // The wall-clock budget is checked between trials: the search never
  // aborts mid-measurement, it stops gracefully and keeps the incumbent.
  const auto start = std::chrono::steady_clock::now();
  const auto over_budget = [&] {
    if (opts.budget_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    return static_cast<double>(elapsed.count()) / 1000.0 > opts.budget_ms;
  };

  const KernelPlan& plan = memo.ev.plan;
  const size_t n = plan.guards.size();
  Candidate incumbent(n, kUnset);  // all defaults
  double best = memo.cost(incumbent);
  rep.default_cost_us = best;
  rep.trials = 1;

  if (n > 0) {
    Rng rng(opts.seed);
    Candidate cand(n);
    auto random_assignment = [&] {
      for (int64_t& v : cand) {
        v = int64_t{1} << rng.uniform_int(kLog2Min, kLog2Max);
      }
    };
    auto mutate = [&] {
      cand = incumbent;
      const int n_mut = static_cast<int>(
          rng.uniform_int(1, std::max<size_t>(n / 2, 1)));
      for (int k = 0; k < n_mut; ++k) {
        int64_t& v = cand[static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(n) - 1))];
        const int64_t cur = v == kUnset ? kDefaultThreshold : v;
        int exp = 0;
        while ((int64_t{1} << exp) < cur && exp < 62) ++exp;
        exp += static_cast<int>(rng.uniform_int(-4, 4));
        exp = std::clamp(exp, kLog2Min, kLog2Max);
        v = int64_t{1} << exp;
      }
    };

    for (int t = 1; t < opts.max_trials; ++t) {
      if (over_budget()) {
        rep.early_stopped = true;
        break;
      }
      // Ensemble: half random exploration, half hill climbing on the
      // incumbent (OpenTuner's technique mixture, simplified).
      if (rng.flip(0.5)) {
        random_assignment();
      } else {
        mutate();
      }
      ++rep.trials;
      const double c = memo.cost(cand);
      if (c < best) {
        best = c;
        std::swap(incumbent, cand);
      }
    }
  }

  rep.best = to_env(plan, incumbent);
  rep.best_cost_us = best;
  rep.evaluations = memo.evaluations;
  rep.dedup_hits = memo.dedup_hits;
}

/// One-shot trace counters for a finished search: the hot candidate loop
/// stays uninstrumented, the tallies it already keeps in the report are
/// published at the end.
void trace_report(const TuningReport& rep) {
  if (!trace::enabled()) return;
  trace::count("tuner.candidates", rep.trials);
  trace::count("tuner.evaluations", rep.evaluations);
  trace::count("tuner.dedup_hits", rep.dedup_hits);
}

}  // namespace

double tuning_cost(const DeviceProfile& dev, const Program& p,
                   const std::vector<TuningDataset>& datasets,
                   const ThresholdEnv& thresholds) {
  double total = 0;
  for (const auto& d : datasets) {
    total += d.weight * estimate_run(dev, p, d.sizes, thresholds).time_us;
  }
  return total;
}

TuningReport autotune(const DeviceProfile& dev, const KernelPlan& plan,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts) {
  trace::Span span("tune.stochastic");
  TuningReport rep;

  // Robust-measurement session (noise, failures, journal).
  std::unique_ptr<MeasureSession> session;
  std::unique_ptr<TuneJournal> journal;
  if (session_needed(opts)) {
    session = std::make_unique<MeasureSession>(opts, &rep);
    if (!opts.journal.empty()) {
      JournalMeta meta;
      meta.program = plan.program;
      meta.device = dev.name;
      meta.search_seed = opts.seed;
      meta.max_trials = opts.max_trials;
      meta.measure_seed = opts.measure_seed;
      meta.measure_k = kMeasureK;
      meta.noise_bits = double_bits(opts.noise);
      journal = std::make_unique<TuneJournal>(
          TuneJournal::open(opts.journal, meta, opts.resume,
                            &session->replay));
      session->journal = journal.get();
    }
  }

  const PlanEval ev(dev, plan, datasets);
  PlanMemoizer memo(ev, session.get());
  stochastic_search(memo, opts, rep);
  trace_report(rep);
  return rep;
}

TuningReport exhaustive_tune(const DeviceProfile& dev, const KernelPlan& plan,
                             const std::vector<TuningDataset>& datasets) {
  trace::Span span("tune.exhaustive");
  TuningReport rep;

  // Candidate values per threshold: "always on", "always off", and every
  // boundary that separates the training datasets.
  const size_t n = plan.guards.size();
  std::vector<std::vector<int64_t>> cands;
  for (const GuardInfo& g : plan.guards) {
    std::set<int64_t> c{int64_t{1}, int64_t{1} << 62};
    for (const auto& d : datasets) {
      c.insert(g.par.eval(d.sizes));
    }
    cands.emplace_back(c.begin(), c.end());
  }

  const PlanEval ev(dev, plan, datasets);
  PlanMemoizer memo(ev, nullptr);
  // Every full assignment, innermost threshold varying fastest.
  Candidate current(n, kUnset), best_assign = current;
  rep.default_cost_us = memo.cost(current);
  double best = memo.cost(current);
  const std::function<void(size_t)> scan = [&](size_t i) {
    if (i == n) {
      ++rep.trials;
      const double c = memo.cost(current);
      if (c < best) {
        best = c;
        best_assign = current;
      }
      return;
    }
    for (int64_t v : cands[i]) {
      current[i] = v;
      scan(i + 1);
    }
    current[i] = kUnset;
  };
  scan(0);
  rep.best = to_env(plan, best_assign);
  rep.best_cost_us = best;
  rep.evaluations = memo.evaluations;
  rep.dedup_hits = memo.dedup_hits;
  trace_report(rep);
  return rep;
}

TuningReport autotune(const DeviceProfile& dev, const Program& p,
                      const ThresholdRegistry&,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts) {
  return autotune(dev, build_kernel_plan(p), datasets, opts);
}

TuningReport exhaustive_tune(const DeviceProfile& dev, const Program& p,
                             const ThresholdRegistry&,
                             const std::vector<TuningDataset>& datasets) {
  return exhaustive_tune(dev, build_kernel_plan(p), datasets);
}

}  // namespace incflat
