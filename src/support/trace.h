// Pipeline observability: scoped spans and named counters.
//
// The compilation pipeline (normalize -> fuse -> flatten -> plan build ->
// tune -> exec) instruments itself with RAII `trace::Span`s and
// `trace::count`/`trace::gauge` calls.  Collection is globally disabled by
// default: a disabled span or counter is a single relaxed atomic load — no
// clock read, no lock — so instrumented hot paths cost nothing in normal
// runs (bench/bench_plan_vs_walk guards this).
//
// Two sinks:
//   * print_summary(os): per-phase wall-time table (aggregated by span
//     name) plus a counter table, rendered with src/support/table.*;
//   * chrome_json()/write_chrome(path): Chrome trace-event JSON — load the
//     file in chrome://tracing or https://ui.perfetto.dev.  Spans become
//     complete ("ph":"X") events with per-thread lanes; counters and gauges
//     ride along both as "ph":"C" counter events and as a top-level
//     "counters" object (extra top-level keys are ignored by the viewers).
//
// Surfaced by `incflatc --trace[=out.json] --stats` and, for the figure
// benches, by the INCFLAT_TRACE / INCFLAT_STATS environment variables
// (bench/harness.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace incflat::trace {

/// Globally enable or disable collection.  Thread-safe.
void set_enabled(bool on);
bool enabled();

/// Drop every recorded span, counter and gauge (keeps the enabled flag).
/// Safe to call while other threads are constructing Spans: the time epoch
/// is atomic, so a concurrent span lands with a sane (if cross-epoch)
/// timestamp instead of racing.  A long-lived daemon calls this between
/// serving generations.
void reset();

/// Fold every buffered raw span event into persistent per-name aggregates
/// (visible through span_stats() / print_summary()) and release the event
/// storage; returns how many events were folded.  chrome_json() only shows
/// events recorded since the last flush — flushing trades replayable
/// timelines for bounded memory, which is the right trade for a daemon
/// whose stats endpoint calls this periodically over months of uptime.
int64_t flush_spans();

/// RAII scoped span: wall time between construction and destruction,
/// attributed to the calling thread.  `name` and `category` must be
/// string literals (they are stored by pointer, not copied).
class Span {
 public:
  explicit Span(const char* name, const char* category = "pipeline");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* category_;
  int64_t start_us_;  // < 0: tracing was disabled at construction
};

/// Add `delta` to the named counter.  Thread-safe; no-op when disabled.
void count(const std::string& name, int64_t delta = 1);

/// Record an instantaneous value (last write wins) — e.g. arena sizes,
/// tree depths.  Thread-safe; no-op when disabled.
void gauge(const std::string& name, int64_t value);

/// Per-phase aggregate of every recorded span with this name.
struct SpanStat {
  std::string name;
  int64_t calls = 0;
  double total_us = 0;  // inclusive wall time
};

/// Aggregated span statistics in first-recorded order.
std::vector<SpanStat> span_stats();

/// Snapshot of all counters and gauges (gauges carry their last value).
std::map<std::string, int64_t> counters();

/// Sorted distinct `<namespace>.` prefixes of every recorded counter and
/// gauge — the layers that emitted telemetry this run (analysis, exec,
/// flatten, plan, serve, tuner, ...).  Names without a dot
/// form their own namespace.
std::vector<std::string> counter_namespaces();

/// Chrome trace-event JSON for everything recorded so far.
std::string chrome_json();

/// Write chrome_json() to `path`; throws EvalError on I/O failure.
void write_chrome(const std::string& path);

/// Human-readable summary: span table then counter table.
void print_summary(std::ostream& os);

}  // namespace incflat::trace
