// Unit + integration tests: the pipeline observability layer
// (src/support/trace.*) — span nesting/aggregation, counter aggregation
// across threads, zero-output disabled mode, Chrome trace-event export
// (validated by parsing it back with the repo's own JSON reader), and the
// counters the instrumented compile/tune pipeline emits.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/gpusim/device.h"
#include "src/support/json.h"
#include "src/support/trace.h"

namespace incflat {
namespace {

/// Each test owns the global trace state: start clean, leave disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(true);
    trace::reset();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
  }
};

TEST_F(TraceTest, SpansNestAndAggregateByName) {
  {
    trace::Span outer("outer");
    {
      trace::Span inner("inner");
    }
    {
      trace::Span inner("inner");
    }
  }
  const auto stats = trace::span_stats();
  ASSERT_EQ(stats.size(), 2u);
  // Inner spans close (and therefore record) before the outer one.
  EXPECT_EQ(stats[0].name, "inner");
  EXPECT_EQ(stats[0].calls, 2);
  EXPECT_EQ(stats[1].name, "outer");
  EXPECT_EQ(stats[1].calls, 1);
  EXPECT_GE(stats[1].total_us, stats[0].total_us);
}

TEST_F(TraceTest, CountersAggregateAcrossThreads) {
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([] {
      for (int k = 0; k < 100; ++k) trace::count("work.items");
    });
  }
  for (auto& t : ts) t.join();
  trace::count("work.items", 10);
  EXPECT_EQ(trace::counters().at("work.items"), 410);
}

TEST_F(TraceTest, CounterNamespacesAreSortedAndDistinct) {
  EXPECT_TRUE(trace::counter_namespaces().empty());
  trace::count("tuner.alpha");
  trace::count("exec.beta");
  trace::count("serve.gamma");
  trace::count("exec.delta", 3);
  trace::count("tuner.epsilon", 2);
  trace::gauge("plan.depth", 4);
  trace::count("bare");  // no dot: its own namespace
  EXPECT_EQ(trace::counter_namespaces(),
            (std::vector<std::string>{"bare", "exec", "plan", "serve",
                                      "tuner"}));
  // The --stats summary lists them under the counter table.
  std::ostringstream os;
  trace::print_summary(os);
  EXPECT_NE(os.str().find("namespaces: bare exec plan serve tuner"),
            std::string::npos);
}

TEST_F(TraceTest, GaugeOverwritesInsteadOfAccumulating) {
  trace::gauge("depth", 3);
  trace::gauge("depth", 7);
  EXPECT_EQ(trace::counters().at("depth"), 7);
}

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  trace::set_enabled(false);
  {
    trace::Span s("ghost");
    trace::count("ghost.counter");
    trace::gauge("ghost.gauge", 1);
  }
  EXPECT_TRUE(trace::span_stats().empty());
  EXPECT_TRUE(trace::counters().empty());
  std::ostringstream os;
  trace::print_summary(os);
  EXPECT_NE(os.str().find("nothing recorded"), std::string::npos);
}

TEST_F(TraceTest, SpanOpenedWhileEnabledDropsIfDisabledAtClose) {
  trace::Span* s = new trace::Span("crossing");
  trace::set_enabled(false);
  delete s;
  trace::set_enabled(true);
  EXPECT_TRUE(trace::span_stats().empty());
}

TEST_F(TraceTest, ChromeJsonIsValidAndStructured) {
  {
    trace::Span s("phase.a");
  }
  trace::count("rules", 5);
  const Json doc = Json::parse(trace::chrome_json());
  ASSERT_TRUE(doc.is_object());
  const Json& events = doc.get("traceEvents");
  ASSERT_TRUE(events.is_array());
  // One complete event for the span + one counter event.
  ASSERT_EQ(events.size(), 2u);
  const Json& span_ev = events.at(0);
  EXPECT_EQ(span_ev.get("name").as_string(), "phase.a");
  EXPECT_EQ(span_ev.get("ph").as_string(), "X");
  EXPECT_GE(span_ev.get("ts").as_double(), 0.0);
  EXPECT_GE(span_ev.get("dur").as_double(), 0.0);
  EXPECT_EQ(span_ev.get("pid").as_double(), 1.0);
  const Json& counter_ev = events.at(1);
  EXPECT_EQ(counter_ev.get("ph").as_string(), "C");
  EXPECT_EQ(counter_ev.get("args").get("value").as_double(), 5.0);
  // The summary object mirrors the counters.
  EXPECT_EQ(doc.get("counters").get("rules").as_double(), 5.0);
}

TEST_F(TraceTest, ResetDropsEverything) {
  {
    trace::Span s("x");
  }
  trace::count("c");
  trace::reset();
  EXPECT_TRUE(trace::span_stats().empty());
  EXPECT_TRUE(trace::counters().empty());
}

TEST_F(TraceTest, PipelineEmitsPhaseSpansAndCounters) {
  const Benchmark b = get_benchmark("matmul");
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
  const TuningReport rep = exhaustive_tune(device_k40(), *c.plan, train);
  simulate(device_k40(), c, b.tuning.front().sizes, rep.best);

  const auto counters = trace::counters();
  // Rule applications from flattening.
  EXPECT_GT(counters.at("flatten.rule.G3"), 0);
  EXPECT_GT(counters.at("flatten.versions"), 0);
  EXPECT_GT(counters.at("flatten.thresholds"), 0);
  // Plan-arena statistics from the plan builder.
  EXPECT_GT(counters.at("plan.arena_nodes"), 0);
  EXPECT_GT(counters.at("plan.kernels"), 0);
  EXPECT_GT(counters.at("plan.tree_depth"), 0);
  // Tuner candidates and branching-tree dedup cache hits.
  EXPECT_EQ(counters.at("tuner.candidates"), rep.trials);
  EXPECT_EQ(counters.at("tuner.evaluations"), rep.evaluations);
  EXPECT_EQ(counters.at("tuner.dedup_hits"), rep.dedup_hits);
  // Simulation totals.
  EXPECT_GT(counters.at("exec.kernel_launches"), 0);
  EXPECT_GT(counters.at("exec.global_bytes"), 0);

  // The per-phase summary names the pipeline stages.
  std::ostringstream os;
  trace::print_summary(os);
  const std::string s = os.str();
  for (const char* phase :
       {"pass.incremental", "pass.prune-segbinds", "plan.build",
        "tune.exhaustive", "exec.simulate", "compile"}) {
    EXPECT_NE(s.find(phase), std::string::npos) << "missing phase " << phase;
  }

  // And the Chrome export of the full pipeline parses back.
  const Json doc = Json::parse(trace::chrome_json());
  EXPECT_GT(doc.get("traceEvents").size(), 5u);
}

TEST_F(TraceTest, DisabledPipelineEmitsNothing) {
  trace::set_enabled(false);
  const Benchmark b = get_benchmark("matmul");
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  simulate(device_k40(), c, b.tuning.front().sizes, ThresholdEnv{});
  EXPECT_TRUE(trace::span_stats().empty());
  EXPECT_TRUE(trace::counters().empty());
}

TEST_F(TraceTest, FlushFoldsSpansIntoPersistentAggregates) {
  { trace::Span s("phase.a"); }
  { trace::Span s("phase.a"); }
  { trace::Span s("phase.b"); }
  EXPECT_EQ(trace::flush_spans(), 3);
  // The raw events are gone (chrome timeline is empty of span events)...
  EXPECT_EQ(trace::flush_spans(), 0);
  // ...but the aggregates survive and keep accumulating across flushes.
  auto find = [](const std::vector<trace::SpanStat>& stats,
                 const std::string& name) -> const trace::SpanStat* {
    for (const auto& s : stats)
      if (s.name == name) return &s;
    return nullptr;
  };
  std::vector<trace::SpanStat> stats = trace::span_stats();
  ASSERT_NE(find(stats, "phase.a"), nullptr);
  EXPECT_EQ(find(stats, "phase.a")->calls, 2);
  ASSERT_NE(find(stats, "phase.b"), nullptr);
  { trace::Span s("phase.a"); }
  EXPECT_EQ(trace::flush_spans(), 1);
  stats = trace::span_stats();
  EXPECT_EQ(find(stats, "phase.a")->calls, 3);
  // reset() clears the flushed aggregates along with everything else.
  trace::reset();
  EXPECT_TRUE(trace::span_stats().empty());
}

TEST_F(TraceTest, SpanStatsMergeFlushedAndLiveEvents) {
  { trace::Span s("merge.x"); }
  trace::flush_spans();
  { trace::Span s("merge.x"); }  // live, unflushed
  const std::vector<trace::SpanStat> stats = trace::span_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].calls, 2);
}

TEST_F(TraceTest, ResetIsSafeAgainstConcurrentSpans) {
  // A daemon calls reset() between serving generations while worker
  // threads are still constructing spans.  Under TSan this test is the
  // regression guard for the epoch read: no data race, and every span
  // either lands or is dropped — never tears.
  std::atomic<bool> stop{false};
  std::vector<std::thread> spanners;
  for (int t = 0; t < 4; ++t) {
    spanners.emplace_back([&] {
      while (!stop.load()) {
        trace::Span s("race.span");
        trace::count("race.count");
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    trace::reset();
    if (i % 3 == 0) trace::flush_spans();
  }
  stop.store(true);
  for (auto& t : spanners) t.join();
  trace::reset();
  EXPECT_TRUE(trace::span_stats().empty());
}

}  // namespace
}  // namespace incflat
