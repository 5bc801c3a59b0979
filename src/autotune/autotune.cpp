#include "src/autotune/autotune.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/autotune/journal.h"
#include "src/plan/plan.h"
#include "src/support/error.h"
#include "src/support/pool.h"
#include "src/support/rng.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

ThresholdEnv to_env(const std::map<std::string, int64_t>& assignment,
                    int64_t default_value) {
  ThresholdEnv env;
  env.values = assignment;
  env.default_threshold = default_value;
  return env;
}

// ---------------------------------------------------------------------------
// Fallible, noisy measurements with a crash-safe journal.
//
// When any robustness option is enabled, every memoizer cache miss routes
// through a MeasureSession: the true (simulated) cost is re-measured
// median-of-k under multiplicative noise, individual measurements can fail
// (discarded; all-k-failed marks the candidate infeasible), candidates
// beyond the per-candidate timeout are marked infeasible instead of
// aborting, and each final measured value is appended to the journal as a
// single flushed write.  A resumed search answers evaluations from the
// journal in order — advancing the measurement RNG by exactly the draws a
// live measurement consumes, so the continuation is bit-identical to an
// uninterrupted run.
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
        k(active ? std::max(1, opts.measure_k) : 1),
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
  double timeout_us = 0;
  TuningReport* rep = nullptr;

  MeasureSession(const TunerOptions& opts, TuningReport* report)
      : meas(opts), timeout_us(opts.candidate_timeout_us), rep(report) {}

  /// Timed-out and failed-every-retry candidates get an infinite cost:
  /// counted infeasible, never adopted, never fatal.  The *journaled* value
  /// is post-finalize, so replayed evaluations count identically.
  double finalize(double c) {
    if (timeout_us > 0 && c > timeout_us) {
      c = std::numeric_limits<double>::infinity();
    }
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
      const double c = e.cost();
      if (!(c < std::numeric_limits<double>::infinity())) ++rep->infeasible;
      return c;
    }
    double c;
    try {
      c = meas.measure(true_cost());
    } catch (const EvalError&) {
      meas.skip_draws();
      c = std::numeric_limits<double>::infinity();
    }
    c = finalize(c);
    if (journal) journal->append(JournalEntry::of(key_hash, c));
    return c;
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
  return opts.noise > 0 || opts.failure_rate > 0 ||
         opts.candidate_timeout_us > 0 || !opts.journal.empty();
}

// ---------------------------------------------------------------------------
// Legacy evaluation: IR walk per candidate, string dedup keys from the
// threshold registry.  Kept as the debug oracle behind TunerOptions::use_plan
// and as the fallback for programs the plan builder cannot lower.
// ---------------------------------------------------------------------------

/// Dedup key: the concatenated path signatures of all datasets.  Two
/// assignments with equal keys drive every dataset through the same code
/// versions, hence cost the same (paper Sec. 4.2).
std::string signature_key(const ThresholdRegistry& reg,
                          const std::vector<TuningDataset>& datasets,
                          const std::map<std::string, int64_t>& assignment,
                          int64_t default_value, int64_t max_group) {
  std::string key;
  for (const auto& d : datasets) {
    for (bool b :
         reg.path_signature(d.sizes, assignment, default_value, max_group)) {
      key += b ? '1' : '0';
    }
    key += '|';
  }
  return key;
}

struct WalkMemoizer {
  const DeviceProfile& dev;
  const Program& p;
  const ThresholdRegistry& reg;
  const std::vector<TuningDataset>& datasets;
  int64_t default_value;
  MeasureSession* session = nullptr;
  std::map<std::string, double> cache;
  int evaluations = 0;
  int dedup_hits = 0;

  double cost(const std::map<std::string, int64_t>& assignment) {
    const std::string key = signature_key(reg, datasets, assignment,
                                          default_value, dev.max_group_size);
    auto it = cache.find(key);
    if (it != cache.end()) {
      ++dedup_hits;
      return it->second;
    }
    ++evaluations;
    const auto true_cost = [&] {
      return tuning_cost(dev, p, datasets, to_env(assignment, default_value));
    };
    const double c =
        session ? session->evaluate(journal_hash(key.data(), key.size()),
                                    true_cost)
                : true_cost();
    cache.emplace(key, c);
    return c;
  }
};

// ---------------------------------------------------------------------------
// Plan-based evaluation: the program is lowered once, each dataset's sizes
// are swept through the cost arena once, and every candidate afterwards is
// a decision-tree descent.  Dedup keys are the concatenated guard-path
// bitsets of all datasets, read off the same descent.
// ---------------------------------------------------------------------------

struct PlanEval {
  KernelPlan plan;
  std::vector<std::unique_ptr<PlanDatasetCache>> caches;
  const std::vector<TuningDataset>* datasets = nullptr;
  int64_t default_value = 0;

  bool ok() const { return !plan.legacy_fallback; }

  static PlanEval build(const DeviceProfile& dev, const Program& p,
                        const std::vector<TuningDataset>& datasets,
                        int64_t default_value, WorkerPool& pool) {
    trace::Span span("tune.plan_warm");
    PlanEval ev;
    ev.plan = build_kernel_plan(p);
    ev.datasets = &datasets;
    ev.default_value = default_value;
    if (!ev.plan.legacy_fallback) {
      // Warm the per-dataset caches concurrently: each is one independent
      // forward sweep over the arena plus kernel pricing.
      ev.caches.resize(datasets.size());
      pool.run(static_cast<int>(datasets.size()), [&](int i) {
        ev.caches[static_cast<size_t>(i)] = std::make_unique<PlanDatasetCache>(
            ev.plan, dev, datasets[static_cast<size_t>(i)].sizes);
      });
    }
    return ev;
  }

  /// Dedup key of an assignment across all datasets.
  std::vector<uint64_t> key(const ThresholdEnv& env) const {
    std::vector<uint64_t> k;
    for (const auto& c : caches) {
      const PathSig s = plan_signature(plan, *c, env);
      k.insert(k.end(), s.bits.begin(), s.bits.end());
    }
    return k;
  }

  /// Weighted-sum cost; the same accumulation order as tuning_cost, and
  /// plan_cost is bit-identical to estimate_run().time_us, so this equals
  /// the legacy cost exactly.
  double cost(const ThresholdEnv& env) const {
    double total = 0;
    for (size_t i = 0; i < caches.size(); ++i) {
      total += (*datasets)[i].weight * plan_cost(plan, *caches[i], env);
    }
    return total;
  }
};

struct PlanMemoizer {
  const PlanEval& ev;
  MeasureSession* session = nullptr;
  std::map<std::vector<uint64_t>, double> cache;
  int evaluations = 0;
  int dedup_hits = 0;

  double cost(const std::map<std::string, int64_t>& assignment) {
    const ThresholdEnv env = to_env(assignment, ev.default_value);
    std::vector<uint64_t> k = ev.key(env);
    auto it = cache.find(k);
    if (it != cache.end()) {
      ++dedup_hits;
      return it->second;
    }
    ++evaluations;
    const auto true_cost = [&] { return ev.cost(env); };
    const double c =
        session
            ? session->evaluate(
                  journal_hash(k.data(), k.size() * sizeof(uint64_t)),
                  true_cost)
            : true_cost();
    cache.emplace(std::move(k), c);
    return c;
  }
};

// ---------------------------------------------------------------------------
// Search (shared between both evaluation back ends).
// ---------------------------------------------------------------------------

template <class Memo>
void stochastic_search(Memo& memo, const std::vector<std::string>& names,
                       const TunerOptions& opts, TuningReport& rep) {
  // The wall-clock budget is checked between trials: the search never
  // aborts mid-measurement, it stops gracefully and keeps the incumbent.
  const auto start = std::chrono::steady_clock::now();
  const auto over_budget = [&] {
    if (opts.budget_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    return static_cast<double>(elapsed.count()) / 1000.0 > opts.budget_ms;
  };

  std::map<std::string, int64_t> incumbent;  // empty = all defaults
  double best = memo.cost(incumbent);
  rep.default_cost_us = best;
  rep.trials = 1;

  if (!names.empty()) {
    Rng rng(opts.seed);
    auto random_assignment = [&] {
      std::map<std::string, int64_t> a;
      for (const auto& n : names) {
        a[n] = int64_t{1} << rng.uniform_int(opts.log2_min, opts.log2_max);
      }
      return a;
    };
    auto mutate = [&](std::map<std::string, int64_t> a) {
      const int n_mut = static_cast<int>(
          rng.uniform_int(1, std::max<size_t>(names.size() / 2, 1)));
      for (int k = 0; k < n_mut; ++k) {
        const auto& n = names[static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(names.size()) - 1))];
        int64_t cur = a.count(n) ? a[n] : opts.default_threshold;
        int exp = 0;
        while ((int64_t{1} << exp) < cur && exp < 62) ++exp;
        exp += static_cast<int>(rng.uniform_int(-4, 4));
        exp = std::clamp(exp, opts.log2_min, opts.log2_max);
        a[n] = int64_t{1} << exp;
      }
      return a;
    };

    for (int t = 1; t < opts.max_trials; ++t) {
      if (over_budget()) {
        rep.early_stopped = true;
        break;
      }
      // Ensemble: half random exploration, half hill climbing on the
      // incumbent (OpenTuner's technique mixture, simplified).
      std::map<std::string, int64_t> cand =
          rng.flip(0.5) ? random_assignment() : mutate(incumbent);
      ++rep.trials;
      const double c = memo.cost(cand);
      if (c < best) {
        best = c;
        incumbent = std::move(cand);
      }
    }
  }

  rep.best = to_env(incumbent, opts.default_threshold);
  rep.best_cost_us = best;
  rep.evaluations = memo.evaluations;
  rep.dedup_hits = memo.dedup_hits;
}

/// All full assignments of `cands` values to `names`, in the legacy
/// recursive enumeration order (innermost name varies fastest).
std::vector<std::map<std::string, int64_t>> enumerate_assignments(
    const std::vector<std::string>& names,
    const std::vector<std::vector<int64_t>>& cands) {
  std::vector<std::map<std::string, int64_t>> all;
  std::map<std::string, int64_t> current;
  std::function<void(size_t)> go = [&](size_t i) {
    if (i == names.size()) {
      all.push_back(current);
      return;
    }
    for (int64_t v : cands[i]) {
      current[names[i]] = v;
      go(i + 1);
    }
    current.erase(names[i]);
  };
  go(0);
  return all;
}

/// One-shot trace counters for a finished search: the hot candidate loop
/// stays uninstrumented, the tallies it already keeps in the report are
/// published at the end.
void trace_report(const TuningReport& rep) {
  if (!trace::enabled()) return;
  trace::count("tuner.candidates", rep.trials);
  trace::count("tuner.evaluations", rep.evaluations);
  trace::count("tuner.dedup_hits", rep.dedup_hits);
  if (rep.used_plan) trace::count("tuner.plan_searches");
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

TuningReport autotune(const DeviceProfile& dev, const Program& p,
                      const ThresholdRegistry& reg,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts) {
  trace::Span span("tune.stochastic");
  TuningReport rep;
  std::vector<std::string> names;
  for (const auto& ti : reg.all()) names.push_back(ti.name);

  // Robust-measurement session (noise, failures, timeout, journal).  Held
  // outside both back ends so a resumed journal replays identically
  // whichever evaluation path the program selects.
  std::unique_ptr<MeasureSession> session;
  std::unique_ptr<TuneJournal> journal;
  if (session_needed(opts)) {
    session = std::make_unique<MeasureSession>(opts, &rep);
    if (!opts.journal.empty()) {
      JournalMeta meta;
      meta.program = p.name;
      meta.device = dev.name;
      meta.search_seed = opts.seed;
      meta.max_trials = opts.max_trials;
      meta.measure_seed = opts.measure_seed;
      meta.measure_k = opts.measure_k;
      meta.noise_bits = double_bits(opts.noise);
      journal = std::make_unique<TuneJournal>(
          TuneJournal::open(opts.journal, meta, opts.resume,
                            &session->replay));
      session->journal = journal.get();
    }
  }

  if (opts.use_plan) {
    WorkerPool pool(opts.workers);
    PlanEval ev =
        PlanEval::build(dev, p, datasets, opts.default_threshold, pool);
    if (ev.ok()) {
      PlanMemoizer memo{ev, session.get(), {}, 0, 0};
      stochastic_search(memo, names, opts, rep);
      rep.used_plan = true;
      trace_report(rep);
      return rep;
    }
  }
  WalkMemoizer memo{dev,  p,           reg, datasets, opts.default_threshold,
                    session.get(), {}, 0,   0};
  stochastic_search(memo, names, opts, rep);
  trace_report(rep);
  return rep;
}

TuningReport exhaustive_tune(const DeviceProfile& dev, const Program& p,
                             const ThresholdRegistry& reg,
                             const std::vector<TuningDataset>& datasets,
                             int64_t default_threshold,
                             const TunerOptions& opts) {
  trace::Span span("tune.exhaustive");
  TuningReport rep;

  // Candidate values per threshold: "always on", "always off", and every
  // boundary that separates the training datasets.
  std::vector<std::string> names;
  std::vector<std::vector<int64_t>> cands;
  for (const auto& ti : reg.all()) {
    std::set<int64_t> c{int64_t{1}, int64_t{1} << 62};
    for (const auto& d : datasets) {
      c.insert(ti.par.eval(d.sizes));
    }
    names.push_back(ti.name);
    cands.emplace_back(c.begin(), c.end());
  }
  const std::vector<std::map<std::string, int64_t>> all =
      enumerate_assignments(names, cands);

  if (opts.use_plan) {
    WorkerPool pool(opts.workers);
    PlanEval ev = PlanEval::build(dev, p, datasets, default_threshold, pool);
    if (ev.ok()) {
      rep.used_plan = true;
      const int n = static_cast<int>(all.size());

      // Phase 1: dedup keys for every candidate, concurrently.
      std::vector<ThresholdEnv> envs(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        envs[static_cast<size_t>(i)] =
            to_env(all[static_cast<size_t>(i)], default_threshold);
      }
      const ThresholdEnv default_env = to_env({}, default_threshold);
      const std::vector<uint64_t> default_key = ev.key(default_env);
      std::vector<std::vector<uint64_t>> keys(static_cast<size_t>(n));
      pool.run(n, [&](int i) {
        keys[static_cast<size_t>(i)] = ev.key(envs[static_cast<size_t>(i)]);
      });

      // Phase 2: one representative per distinct key (-1 = default env).
      std::map<std::vector<uint64_t>, int> rep_ix;
      rep_ix.emplace(default_key, -1);
      for (int i = 0; i < n; ++i) {
        rep_ix.emplace(keys[static_cast<size_t>(i)], i);
      }

      // Phase 3: price only the representatives, concurrently.
      std::vector<std::pair<const std::vector<uint64_t>*, int>> uniq;
      uniq.reserve(rep_ix.size());
      for (const auto& [k, ix] : rep_ix) uniq.emplace_back(&k, ix);
      std::vector<double> ucost(uniq.size());
      pool.run(static_cast<int>(uniq.size()), [&](int u) {
        const int ix = uniq[static_cast<size_t>(u)].second;
        ucost[static_cast<size_t>(u)] =
            ev.cost(ix < 0 ? default_env : envs[static_cast<size_t>(ix)]);
      });
      std::map<std::vector<uint64_t>, double> cost_of;
      for (size_t u = 0; u < uniq.size(); ++u) {
        cost_of.emplace(*uniq[u].first, ucost[u]);
      }

      // Phase 4: deterministic sequential replay of the legacy scan order,
      // with the memoizer's counter semantics.
      std::set<std::vector<uint64_t>> seen;
      auto memo_cost = [&](const std::vector<uint64_t>& k) {
        if (seen.insert(k).second) {
          ++rep.evaluations;
        } else {
          ++rep.dedup_hits;
        }
        return cost_of.at(k);
      };
      rep.default_cost_us = memo_cost(default_key);
      double best = memo_cost(default_key);
      std::map<std::string, int64_t> best_assign;
      for (int i = 0; i < n; ++i) {
        ++rep.trials;
        const double c = memo_cost(keys[static_cast<size_t>(i)]);
        if (c < best) {
          best = c;
          best_assign = all[static_cast<size_t>(i)];
        }
      }
      rep.best = to_env(best_assign, default_threshold);
      rep.best_cost_us = best;
      trace_report(rep);
      return rep;
    }
  }

  WalkMemoizer memo{dev, p,  reg, datasets, default_threshold,
                    nullptr, {}, 0,   0};
  rep.default_cost_us = memo.cost({});
  std::map<std::string, int64_t> best_assign;
  double best = memo.cost({});
  for (const auto& a : all) {
    ++rep.trials;
    const double c = memo.cost(a);
    if (c < best) {
      best = c;
      best_assign = a;
    }
  }
  rep.best = to_env(best_assign, default_threshold);
  rep.best_cost_us = best;
  rep.evaluations = memo.evaluations;
  rep.dedup_hits = memo.dedup_hits;
  trace_report(rep);
  return rep;
}

}  // namespace incflat
