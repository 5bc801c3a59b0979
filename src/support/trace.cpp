#include "src/support/trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <ostream>
#include <thread>

#include "src/support/error.h"
#include "src/support/json.h"
#include "src/support/str.h"
#include "src/support/sync.h"
#include "src/support/table.h"

namespace incflat::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  const char* name;
  const char* category;
  int tid;
  int64_t ts_us;
  int64_t dur_us;
};

int64_t clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct State {
  sync::Mutex mu{"trace.state", sync::Level::Leaf};
  // Base timestamp in raw clock microseconds.  Atomic because Span
  // construction reads it *without* the mutex (a disabled-path-cheap
  // design constraint) while reset() writes it — with a plain
  // time_point that pair is a data race under TSan.
  std::atomic<int64_t> epoch_us{clock_us()};
  std::vector<Event> events GUARDED_BY(mu);
  // Flushed span aggregates (flush_spans): per-name totals that survive
  // after their raw events were released, in first-recorded order.
  std::vector<SpanStat> flushed GUARDED_BY(mu);
  std::map<std::string, size_t> flushed_ix GUARDED_BY(mu);
  // Counters accumulate; gauges overwrite.  Insertion order is preserved
  // for stable summary/report output.
  std::vector<std::pair<std::string, int64_t>> counters GUARDED_BY(mu);
  std::map<std::string, size_t, std::less<>> counter_ix GUARDED_BY(mu);
  std::map<std::thread::id, int> tids GUARDED_BY(mu);

  int64_t now_us() const {
    return clock_us() - epoch_us.load(std::memory_order_relaxed);
  }

  int tid_of(std::thread::id id) REQUIRES(mu) {
    auto it = tids.find(id);
    if (it != tids.end()) return it->second;
    const int t = static_cast<int>(tids.size());
    tids.emplace(id, t);
    return t;
  }

  void bump(std::string_view name, int64_t delta, bool accumulate)
      REQUIRES(mu) {
    auto it = counter_ix.find(name);
    if (it == counter_ix.end()) {
      counter_ix.emplace(std::string(name), counters.size());
      counters.emplace_back(std::string(name), delta);
    } else if (accumulate) {
      counters[it->second].second += delta;
    } else {
      counters[it->second].second = delta;
    }
  }
};

std::atomic<bool> g_enabled{false};

State& state() {
  static State s;
  return s;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void reset() {
  State& s = state();
  sync::MutexLock lk(s.mu);
  s.epoch_us.store(clock_us(), std::memory_order_relaxed);
  s.events.clear();
  s.flushed.clear();
  s.flushed_ix.clear();
  s.counters.clear();
  s.counter_ix.clear();
  s.tids.clear();
}

int64_t flush_spans() {
  State& s = state();
  sync::MutexLock lk(s.mu);
  const int64_t n = static_cast<int64_t>(s.events.size());
  for (const Event& e : s.events) {
    auto it = s.flushed_ix.find(e.name);
    if (it == s.flushed_ix.end()) {
      s.flushed_ix.emplace(e.name, s.flushed.size());
      s.flushed.push_back(SpanStat{e.name, 1, static_cast<double>(e.dur_us)});
    } else {
      s.flushed[it->second].calls += 1;
      s.flushed[it->second].total_us += static_cast<double>(e.dur_us);
    }
  }
  s.events.clear();
  s.events.shrink_to_fit();
  return n;
}

Span::Span(const char* name, const char* category)
    : name_(name), category_(category), start_us_(-1) {
  if (!enabled()) return;
  start_us_ = state().now_us();
}

Span::~Span() {
  if (start_us_ < 0 || !enabled()) return;
  State& s = state();
  const int64_t end = s.now_us();
  sync::MutexLock lk(s.mu);
  s.events.push_back(Event{name_, category_,
                           s.tid_of(std::this_thread::get_id()), start_us_,
                           end - start_us_});
}

void count(std::string_view name, int64_t delta) {
  if (!enabled()) return;
  State& s = state();
  sync::MutexLock lk(s.mu);
  s.bump(name, delta, /*accumulate=*/true);
}

void gauge(std::string_view name, int64_t value) {
  if (!enabled()) return;
  State& s = state();
  sync::MutexLock lk(s.mu);
  s.bump(name, value, /*accumulate=*/false);
}

std::vector<SpanStat> span_stats() {
  State& s = state();
  sync::MutexLock lk(s.mu);
  std::vector<SpanStat> out = s.flushed;
  std::map<std::string, size_t> ix;
  for (size_t i = 0; i < out.size(); ++i) ix.emplace(out[i].name, i);
  for (const Event& e : s.events) {
    auto it = ix.find(e.name);
    if (it == ix.end()) {
      ix.emplace(e.name, out.size());
      out.push_back(SpanStat{e.name, 1, static_cast<double>(e.dur_us)});
    } else {
      out[it->second].calls += 1;
      out[it->second].total_us += static_cast<double>(e.dur_us);
    }
  }
  return out;
}

std::map<std::string, int64_t> counters() {
  State& s = state();
  sync::MutexLock lk(s.mu);
  return {s.counters.begin(), s.counters.end()};
}

std::vector<std::string> counter_namespaces() {
  std::vector<std::string> out;
  for (const auto& [name, value] : counters()) {
    const std::string ns = name.substr(0, name.find('.'));
    if (out.empty() || out.back() != ns) out.push_back(ns);
  }
  return out;
}

std::string chrome_json() {
  State& s = state();
  sync::MutexLock lk(s.mu);
  Json events = Json::array();
  int64_t last_ts = 0;
  for (const Event& e : s.events) {
    events.push(Json::object()
                    .set("name", e.name)
                    .set("cat", e.category)
                    .set("ph", "X")
                    .set("pid", 1)
                    .set("tid", e.tid)
                    .set("ts", e.ts_us)
                    .set("dur", e.dur_us));
    last_ts = std::max(last_ts, e.ts_us + e.dur_us);
  }
  Json counter_obj = Json::object();
  for (const auto& [name, value] : s.counters) {
    counter_obj.set(name, value);
    events.push(Json::object()
                    .set("name", name)
                    .set("ph", "C")
                    .set("pid", 1)
                    .set("tid", 0)
                    .set("ts", last_ts)
                    .set("args", Json::object().set("value", value)));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events))
      .set("displayTimeUnit", "ms")
      .set("counters", std::move(counter_obj));
  return doc.str();
}

void write_chrome(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw EvalError("cannot write trace file: " + path);
  f << chrome_json() << "\n";
  if (!f) throw EvalError("cannot write trace file: " + path);
}

void print_summary(std::ostream& os) {
  const std::vector<SpanStat> spans = span_stats();
  State& s = state();
  std::vector<std::pair<std::string, int64_t>> counts;
  {
    sync::MutexLock lk(s.mu);
    counts = s.counters;
  }
  if (!spans.empty()) {
    os << "Pipeline phases:\n";
    Table t({"phase", "calls", "total", "mean"});
    for (const SpanStat& st : spans) {
      t.row({st.name, std::to_string(st.calls), fmt_us(st.total_us),
             fmt_us(st.total_us / static_cast<double>(st.calls))});
    }
    t.print(os);
  }
  if (!counts.empty()) {
    if (!spans.empty()) os << "\n";
    os << "Counters:\n";
    Table t({"counter", "value"});
    for (const auto& [name, value] : counts) {
      t.row({name, std::to_string(value)});
    }
    t.print(os);
    os << "namespaces:";
    for (const std::string& ns : counter_namespaces()) os << " " << ns;
    os << "\n";
  }
  if (spans.empty() && counts.empty()) {
    os << "trace: nothing recorded (tracing disabled?)\n";
  }
}

}  // namespace incflat::trace
