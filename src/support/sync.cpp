#include "src/support/sync.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/support/trace.h"

namespace incflat::sync {

namespace lockdep {

namespace {

/// One observed ordering edge a->b, with the acquisition chain (held stack
/// plus b, outermost first) that first created it — the "prior chain" a
/// violation report shows for the reverse path.
struct Edge {
  std::vector<int> chain;
};

/// Global validator state.  Guarded by a *raw* std::mutex on purpose: this
/// is the bootstrap lock under every sync::Mutex, it participates in no
/// ordering (nothing is ever acquired while it is held), and annotating it
/// would recurse.  Leaked (never destroyed) so lock releases during static
/// destruction still find it alive.
struct State {
  std::mutex mu;
  std::vector<std::string> class_names;
  std::map<std::string, int> class_ids;
  // adjacency[a] = classes b with a recorded edge a->b.
  std::map<int, std::vector<int>> adjacency;
  std::map<std::pair<int, int>, Edge> edges;
  std::vector<Violation> violations;
  std::set<std::pair<int, int>> reported;  // one report per inversion pair
  int64_t acquisitions = 0;
};

State& state() {
  static State* s = new State;  // leaked: see struct comment
  return *s;
}

std::atomic<bool> g_enabled{
#ifdef INCFLAT_LOCKDEP_DEFAULT_ON
    true
#else
    false
#endif
};

/// The calling thread's held lock classes, outermost first.  Guarded-by
/// nothing: thread-local.  A plain vector<int> keeps thread exit cheap.
thread_local std::vector<int> t_held;

/// DFS: is `to` reachable from `from` over recorded edges?  On success,
/// `path` holds the class sequence from->...->to.  Called with state().mu
/// held; graphs are small (one node per lock class), so recursion depth and
/// cost are bounded by the class count.
bool find_path(State& s, int from, int to, std::set<int>& seen,
               std::vector<int>& path) {
  path.push_back(from);
  if (from == to) return true;
  seen.insert(from);
  auto it = s.adjacency.find(from);
  if (it != s.adjacency.end()) {
    for (int next : it->second) {
      if (seen.contains(next)) continue;
      if (find_path(s, next, to, seen, path)) return true;
    }
  }
  path.pop_back();
  return false;
}

std::vector<std::string> names_of(const State& s, const std::vector<int>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (int id : ids) out.push_back(s.class_names[static_cast<size_t>(id)]);
  return out;
}

void record_violation(State& s, int held, int acquire,
                      const std::vector<int>& current_chain,
                      const std::vector<int>& prior_chain) {
  const auto pair = std::minmax(held, acquire);
  if (!s.reported.insert({pair.first, pair.second}).second) return;
  Violation v;
  v.held_class = s.class_names[static_cast<size_t>(held)];
  v.acquire_class = s.class_names[static_cast<size_t>(acquire)];
  v.current_chain = names_of(s, current_chain);
  v.prior_chain = names_of(s, prior_chain);
  std::cerr << v.to_diagnostic().str() << "\n";
  s.violations.push_back(std::move(v));
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool enable_from_env() {
  if (const char* env = std::getenv("INCFLAT_LOCKDEP")) {
    set_enabled(env[0] != '\0' && std::string(env) != "0");
  }
  return enabled();
}

int register_class(const char* name) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.class_ids.find(name);
  if (it != s.class_ids.end()) return it->second;
  const int id = static_cast<int>(s.class_names.size());
  s.class_names.emplace_back(name);
  s.class_ids.emplace(name, id);
  return id;
}

std::string class_name(int id) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (id < 0 || static_cast<size_t>(id) >= s.class_names.size()) return "?";
  return s.class_names[static_cast<size_t>(id)];
}

void before_acquire(int cls) {
  if (t_held.empty()) {
    State& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    ++s.acquisitions;
    return;
  }
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  ++s.acquisitions;
  std::vector<int> current_chain = t_held;
  current_chain.push_back(cls);
  for (int held : t_held) {
    if (held == cls) {
      // Same class twice on one stack: either a genuine recursive
      // acquisition (self-deadlock on std::mutex) or two instances of one
      // class nested — both violate the one-class-one-level discipline.
      record_violation(s, held, cls, current_chain, {cls, cls});
      continue;
    }
    const std::pair<int, int> key{held, cls};
    if (s.edges.contains(key)) continue;
    // New edge held->cls.  A cycle can only appear when a new edge closes
    // one, so check for an existing reverse path cls ~> held first.
    std::set<int> seen;
    std::vector<int> path;
    if (find_path(s, cls, held, seen, path)) {
      // The chain stored on the path's first edge is the historical
      // acquisition that ordered cls before (eventually) held.
      const Edge& first = s.edges.at({path[0], path[1]});
      record_violation(s, held, cls, current_chain, first.chain);
      continue;  // do not record the inverting edge: keep the graph acyclic
    }
    s.edges.emplace(key, Edge{current_chain});
    s.adjacency[held].push_back(cls);
  }
}

void push_held(int cls) { t_held.push_back(cls); }

void pop_held(int cls) {
  // Locks are usually released LIFO, but out-of-order release is legal for
  // std::mutex — remove the innermost matching entry.  Tolerates classes
  // never pushed (lockdep was enabled mid-critical-section).
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (*it == cls) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

Stats stats() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  Stats st;
  st.classes = static_cast<int64_t>(s.class_names.size());
  st.edges = static_cast<int64_t>(s.edges.size());
  st.acquisitions = s.acquisitions;
  st.violations = static_cast<int64_t>(s.violations.size());
  return st;
}

std::vector<Violation> violations() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.violations;
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.adjacency.clear();
  s.edges.clear();
  s.violations.clear();
  s.reported.clear();
  s.acquisitions = 0;
}

void publish_trace_counters() {
  if (!trace::enabled()) return;
  const Stats st = stats();
  trace::gauge("sync.lock_classes", st.classes);
  trace::gauge("sync.lock_edges", st.edges);
  trace::gauge("sync.lock_acquisitions", st.acquisitions);
  trace::gauge("sync.lock_violations", st.violations);
}

namespace {

std::string chain_str(const std::vector<std::string>& chain) {
  std::ostringstream os;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i) os << " -> ";
    os << chain[i];
  }
  return os.str();
}

}  // namespace

Diagnostic Violation::to_diagnostic() const {
  Diagnostic d;
  d.severity = Severity::Error;
  d.check = "lock-order-inversion";
  d.context = "lockdep";
  d.message = "acquiring '" + acquire_class + "' while holding '" +
              held_class + "' inverts the established order; this thread: [" +
              chain_str(current_chain) + "], previously: [" +
              chain_str(prior_chain) + "]";
  return d;
}

std::string Violation::str() const { return to_diagnostic().str(); }

}  // namespace lockdep

void CondVar::wait(Mutex& mu) {
  const bool dep = lockdep::enabled();
  // The wait releases the mutex: drop it from the held stack so locks taken
  // by other code on this thread while we sleep (there is none today, but
  // the invariant should not depend on that) see a truthful stack.
  if (dep) lockdep::pop_held(mu.lock_class());
  std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
  cv_.wait(native);
  native.release();  // ownership returns to the caller's scope
  // Re-acquired while holding whatever else this thread holds: that is a
  // real ordering constraint, so run the full validation.
  if (lockdep::enabled()) {
    lockdep::before_acquire(mu.lock_class());
    lockdep::push_held(mu.lock_class());
  }
}

}  // namespace incflat::sync
