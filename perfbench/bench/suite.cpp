#include "bench/suite.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/support/rng.h"

namespace perfbench {

using namespace incflat;

Suite load_suite() {
  Suite s;
  for (const std::string& name : all_benchmark_names())
    s.benches.push_back(get_benchmark(name));
  s.devices = {{"k40", device_k40()}, {"vega64", device_vega64()}};
  s.modes = {FlattenMode::Moderate, FlattenMode::Incremental,
             FlattenMode::Full};
  return s;
}

std::vector<TuningDataset> training_set(const Benchmark& b) {
  std::vector<TuningDataset> t;
  for (const auto& d : b.tuning) t.push_back({d.name, d.sizes, 1.0});
  return t;
}

std::string estimate_key(const std::string& bench, const std::string& mode,
                         const std::string& device,
                         const std::string& dataset) {
  return bench + "|" + mode + "|" + device + "|" + dataset;
}

std::map<std::string, Estimate> compute_estimates(const Suite& s) {
  std::map<std::string, Estimate> out;
  for (const Benchmark& b : s.benches) {
    for (const FlattenMode m : s.modes) {
      const Compiled c = compile(b.program, m);
      for (const Device& d : s.devices) {
        for (const auto* set : {&b.datasets, &b.tuning}) {
          for (const BenchDataset& ds : *set) {
            const RunEstimate e =
                plan_estimate_run(*c.plan, d.profile, ds.sizes, {});
            out[estimate_key(b.name, mode_name(m), d.name, ds.name)] = {
                e.time_us, e.kernel_launches};
          }
        }
      }
    }
  }
  return out;
}

double eval_geomean(const Suite& s, const std::map<std::string, Estimate>& e) {
  std::vector<double> v;
  for (const Benchmark& b : s.benches)
    for (const FlattenMode m : s.modes)
      for (const Device& d : s.devices)
        for (const BenchDataset& ds : b.datasets)
          v.push_back(e.at(estimate_key(b.name, mode_name(m), d.name, ds.name))
                          .estimate_us);
  return geomean(v);
}

namespace {

/// Both tuners on one incremental program and device, default options.
struct TuneOutcome {
  TuningReport stochastic;
  TuningReport exhaustive;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

Json report_json(const TuningReport& rep) {
  Json thr = Json::array();
  for (const auto& [name, v] : rep.best.values) {
    Json one = Json::object();
    one.set("name", name);
    one.set("value", v);
    thr.push(one);
  }
  Json j = Json::object();
  j.set("thresholds", thr);
  j.set("best_cost_us", rep.best_cost_us);
  j.set("default_cost_us", rep.default_cost_us);
  j.set("trials", rep.trials);
  j.set("evaluations", rep.evaluations);
  return j;
}

TunedGolden tuned_from_json(const Json& j) {
  TunedGolden g;
  const Json& thr = j.get("thresholds");
  for (size_t i = 0; i < thr.size(); ++i)
    g.thresholds[thr.at(i).get("name").as_string()] =
        static_cast<int64_t>(thr.at(i).get("value").as_double());
  g.best_cost_us = j.get("best_cost_us").as_double();
  return g;
}

/// Values equal within the tolerance the property tests use.
bool values_match(const Values& got, const Values& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i)
    if (!got[i].approx_equal(want[i], 1e-4)) return false;
  return true;
}

void check_execute(const Suite& s, const Config& cfg, Result& r) {
  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0xe8ec);
  for (const Benchmark& b : s.benches) {
    const std::vector<Value> inputs = b.gen_inputs(rng, b.test_sizes);
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    const Values want = execute_source(inc, b.test_sizes, inputs);
    if (b.golden)
      r.check(values_match(b.golden(b.test_sizes, inputs), want),
              b.name + ": execute_source differs from the C++ golden");
    for (const FlattenMode m : s.modes) {
      const Compiled c =
          m == FlattenMode::Incremental ? inc : compile(b.program, m);
      ThresholdEnv thr;
      for (const auto& ti : c.flat.thresholds.all())
        thr.values[ti.name] = int64_t{1} << rng.uniform_int(0, 24);
      const Device& d = s.devices[static_cast<size_t>(rng.uniform_int(
          0, static_cast<int64_t>(s.devices.size()) - 1))];
      const Values got = execute(d.profile, c, b.test_sizes, thr, inputs);
      r.check(values_match(got, want),
              b.name + " " + mode_name(m) +
                  ": flattened values differ from the source program");
    }
  }
}

}  // namespace

const std::map<std::string, Estimate>& golden_estimates(const Config& cfg) {
  static const std::map<std::string, Estimate> rows = [&] {
    std::map<std::string, Estimate> out;
    const Json j = Json::parse(read_file(cfg.golden_dir + "/estimates.json"));
    const Json& arr = j.get("rows");
    for (size_t i = 0; i < arr.size(); ++i) {
      const Json& row = arr.at(i);
      out[row.get("key").as_string()] = {
          row.get("estimate_us").as_double(),
          static_cast<int64_t>(row.get("kernel_launches").as_double())};
    }
    return out;
  }();
  return rows;
}

const std::map<std::string, TunedGolden>& golden_tuning(const Config& cfg) {
  static const std::map<std::string, TunedGolden> rows = [&] {
    std::map<std::string, TunedGolden> out;
    const Json j = Json::parse(read_file(cfg.golden_dir + "/tuning.json"));
    const Json& arr = j.get("rows");
    for (size_t i = 0; i < arr.size(); ++i)
      out[arr.at(i).get("key").as_string()] =
          tuned_from_json(arr.at(i).get("stochastic"));
    return out;
  }();
  return rows;
}

void check_goldens(const Suite& s, const Config& cfg, Result& r, bool write) {
  const std::map<std::string, Estimate> est = compute_estimates(s);

  std::vector<std::pair<std::string, TuneOutcome>> tuned;
  for (const Benchmark& b : s.benches) {
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    const std::vector<TuningDataset> train = training_set(b);
    for (const Device& d : s.devices) {
      TuneOutcome t;
      t.stochastic = autotune(d.profile, c.flat.program, c.flat.thresholds,
                              train);
      t.exhaustive = exhaustive_tune(d.profile, c.flat.program,
                                     c.flat.thresholds, train);
      r.check(t.exhaustive.best_cost_us <= t.stochastic.best_cost_us,
              b.name + "|" + d.name + ": exhaustive best above stochastic");
      tuned.push_back({b.name + "|" + d.name, t});
    }
  }

  if (write) {
    Json rows = Json::array();
    for (const auto& [key, e] : est) {
      Json row = Json::object();
      row.set("key", key);
      row.set("estimate_us", e.estimate_us);
      row.set("kernel_launches", e.launches);
      rows.push(row);
    }
    Json doc = Json::object();
    doc.set("rows", rows);
    write_file(cfg.golden_dir + "/estimates.json", doc.str(1));

    Json trows = Json::array();
    for (const auto& [key, t] : tuned) {
      Json row = Json::object();
      row.set("key", key);
      row.set("stochastic", report_json(t.stochastic));
      row.set("exhaustive", report_json(t.exhaustive));
      trows.push(row);
    }
    Json tdoc = Json::object();
    tdoc.set("rows", trows);
    write_file(cfg.golden_dir + "/tuning.json", tdoc.str(1));
    return;
  }

  const auto& gest = golden_estimates(cfg);
  r.check(gest.size() == est.size(), "estimate golden row count");
  for (const auto& [key, e] : est) {
    auto it = gest.find(key);
    r.check(it != gest.end() && it->second.estimate_us == e.estimate_us &&
                it->second.launches == e.launches,
            "estimate golden " + key);
  }

  const Json tj =
      Json::parse(read_file(cfg.golden_dir + "/tuning.json")).get("rows");
  std::map<std::string, const Json*> grows;
  for (size_t i = 0; i < tj.size(); ++i)
    grows[tj.at(i).get("key").as_string()] = &tj.at(i);
  r.check(grows.size() == tuned.size(), "tuning golden row count");
  for (const auto& [key, t] : tuned) {
    auto it = grows.find(key);
    if (it == grows.end()) {
      r.check(false, "tuning golden " + key + " missing");
      continue;
    }
    for (const char* which : {"stochastic", "exhaustive"}) {
      const TuningReport& rep =
          std::string(which) == "stochastic" ? t.stochastic : t.exhaustive;
      const TunedGolden g = tuned_from_json(it->second->get(which));
      r.check(g.thresholds == rep.best.values &&
                  g.best_cost_us == rep.best_cost_us,
              "tuning golden " + key + " " + which);
    }
  }

  check_execute(s, cfg, r);
}

}  // namespace perfbench
