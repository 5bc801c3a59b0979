// Crash-safe autotuning journal.
//
// A tuning search interrupted by a crash (or a kill) should not lose the
// candidate measurements it already paid for.  The journal is an append-only
// text file: a header pinning the search configuration, then one line per
// *evaluation* (memoizer cache miss) in evaluation order, carrying the
// dedup-key hash and the exact bit pattern of the measured cost.  Appends
// are single flushed writes, so a crash can corrupt at most the final line
// — which the loader detects and drops (it simply gets re-measured).
//
// Resume replays the deterministic search: candidate generation re-runs
// from the seed, journaled evaluations are answered from the file (with the
// measurement RNG advanced by exactly the draws a live measurement would
// have used), and the search continues live from the first un-journaled
// evaluation.  The resumed TuningReport is bit-identical to an
// uninterrupted run's — pinned by tests/test_faults.cpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace incflat {

/// Search-configuration fingerprint stored in the journal header.  A resume
/// with any mismatching field is refused: replaying another search's
/// measurements would silently corrupt the report.
struct JournalMeta {
  std::string program;
  std::string device;
  uint64_t search_seed = 0;
  int max_trials = 0;
  uint64_t measure_seed = 0;
  int measure_k = 1;
  uint64_t noise_bits = 0;  // bit pattern of the noise amplitude

  bool operator==(const JournalMeta& o) const;
};

/// One journaled evaluation: the dedup-key hash (alignment check) and the
/// measured cost's exact IEEE-754 bit pattern (bit-identical round trip).
struct JournalEntry {
  uint64_t key_hash = 0;
  uint64_t cost_bits = 0;

  double cost() const {
    double d = 0;
    std::memcpy(&d, &cost_bits, sizeof d);
    return d;
  }
  static JournalEntry of(uint64_t key_hash, double cost) {
    JournalEntry e;
    e.key_hash = key_hash;
    std::memcpy(&e.cost_bits, &cost, sizeof cost);
    return e;
  }
};

/// FNV-1a over raw bytes: the journal's dedup-key hash.
uint64_t journal_hash(const void* data, size_t len);

class TuneJournal {
 public:
  /// Open `path` for appending.  resume=false truncates and writes a fresh
  /// header; resume=true requires an existing journal whose header matches
  /// `meta` (IoError otherwise) and fills `replay` with the recorded
  /// evaluations, dropping a crash-truncated final line.
  ///
  /// The file is opened O_APPEND and every line is issued as ONE write(2):
  /// POSIX makes O_APPEND writes atomic with respect to the file offset, so
  /// concurrent appenders (two tuner processes sharing a journal path)
  /// interleave only at line granularity — never mid-line.  A buffered
  /// stream cannot promise that: a line straddling the stream's buffer
  /// boundary flushes as two writes, and the gap is exactly where another
  /// process's line lands, tearing both.
  static TuneJournal open(const std::string& path, const JournalMeta& meta,
                          bool resume, std::vector<JournalEntry>* replay);

  TuneJournal() = default;
  TuneJournal(TuneJournal&& o) noexcept;
  TuneJournal& operator=(TuneJournal&& o) noexcept;
  ~TuneJournal();
  TuneJournal(const TuneJournal&) = delete;
  TuneJournal& operator=(const TuneJournal&) = delete;

  /// Append one evaluation: a single O_APPEND write.  Throws IoError when
  /// the write fails.
  void append(const JournalEntry& e);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;  // O_APPEND; -1 when default-constructed or moved-from
};

}  // namespace incflat
