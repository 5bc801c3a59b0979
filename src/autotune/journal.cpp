#include "src/autotune/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "src/support/error.h"
#include "src/support/str.h"

namespace incflat {

namespace {

constexpr const char* kMagic = "# incflat tuning journal v1";

std::string hex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::string meta_line(const JournalMeta& m) {
  std::ostringstream os;
  os << "meta program=" << m.program << " device=" << m.device
     << " seed=" << hex(m.search_seed) << " trials=" << m.max_trials
     << " mseed=" << hex(m.measure_seed) << " k=" << m.measure_k
     << " noise=" << hex(m.noise_bits);
  return os.str();
}

/// Parse "meta key=value ..." back into a JournalMeta; false on any
/// malformed field (a corrupt header refuses the resume).
bool parse_meta(const std::string& line, JournalMeta* m) {
  std::istringstream is(line);
  std::string tok;
  if (!(is >> tok) || tok != "meta") return false;
  while (is >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    const std::optional<uint64_t> u = parse_uint(val, 16);
    const std::optional<int64_t> n = parse_int(val, INT_MIN, INT_MAX);
    if (key == "program") {
      m->program = val;
    } else if (key == "device") {
      m->device = val;
    } else if (key == "seed" && u) {
      m->search_seed = *u;
    } else if (key == "trials" && n) {
      m->max_trials = static_cast<int>(*n);
    } else if (key == "mseed" && u) {
      m->measure_seed = *u;
    } else if (key == "k" && n) {
      m->measure_k = static_cast<int>(*n);
    } else if (key == "noise" && u) {
      m->noise_bits = *u;
    } else {
      return false;
    }
  }
  return true;
}

/// One full write(2) of `line`.  The fd is O_APPEND, so as long as the line
/// goes out in a single call the kernel serialises it against every other
/// appender; a short write (out of space) is a hard error — retrying the
/// tail would interleave with other writers, the exact tear this layer
/// exists to prevent.
void write_line(int fd, const std::string& line, const std::string& path) {
  for (;;) {
    const ssize_t w = ::write(fd, line.data(), line.size());
    if (w == static_cast<ssize_t>(line.size())) return;
    if (w < 0 && errno == EINTR) continue;
    throw IoError("tuning journal write failed: " + path);
  }
}

}  // namespace

bool JournalMeta::operator==(const JournalMeta& o) const {
  return program == o.program && device == o.device &&
         search_seed == o.search_seed && max_trials == o.max_trials &&
         measure_seed == o.measure_seed && measure_k == o.measure_k &&
         noise_bits == o.noise_bits;
}

uint64_t journal_hash(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TuneJournal TuneJournal::open(const std::string& path,
                              const JournalMeta& meta, bool resume,
                              std::vector<JournalEntry>* replay) {
  if (replay) replay->clear();
  if (resume) {
    std::ifstream in(path);
    if (!in) {
      throw IoError("cannot read tuning journal: " + path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    // A crash can leave a partial final line (no terminating newline):
    // drop the fragment, it will simply be re-measured and re-appended.
    const size_t last_nl = text.find_last_of('\n');
    text = last_nl == std::string::npos ? "" : text.substr(0, last_nl + 1);
    std::istringstream is(text);
    std::string line;
    bool saw_magic = false, saw_meta = false;
    while (std::getline(is, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!saw_magic) {
        if (line != kMagic) {
          throw IoError("not a tuning journal: " + path);
        }
        saw_magic = true;
        continue;
      }
      if (!saw_meta) {
        JournalMeta got;
        if (!parse_meta(line, &got)) {
          throw IoError("tuning journal has a corrupt header: " + path);
        }
        if (!(got == meta)) {
          throw IoError(
              "tuning journal was recorded for a different search "
              "(program/device/seed/options mismatch): " + path);
        }
        saw_meta = true;
        continue;
      }
      std::istringstream ls(line);
      std::string tag, key_s, cost_s;
      ls >> tag >> key_s >> cost_s;
      const std::optional<uint64_t> key = parse_uint(key_s, 16);
      const std::optional<uint64_t> cost = parse_uint(cost_s, 16);
      if (tag != "E" || !key || !cost) {
        // A torn write that still got its newline out: stop replaying here;
        // everything from this point is re-measured.
        break;
      }
      if (replay) replay->push_back({*key, *cost});
    }
    if (!saw_magic || !saw_meta) {
      throw IoError("tuning journal is missing its header: " + path);
    }
  }

  TuneJournal j;
  j.path_ = path;
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | (resume ? 0 : O_TRUNC);
  j.fd_ = ::open(path.c_str(), flags, 0644);
  if (j.fd_ < 0) {
    throw IoError("cannot write tuning journal: " + path);
  }
  if (!resume) {
    const std::string header =
        std::string(kMagic) + "\n" + meta_line(meta) + "\n";
    write_line(j.fd_, header, path);
  }
  return j;
}

TuneJournal::TuneJournal(TuneJournal&& o) noexcept
    : path_(std::move(o.path_)), fd_(o.fd_) {
  o.fd_ = -1;
}

TuneJournal& TuneJournal::operator=(TuneJournal&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(o.path_);
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

TuneJournal::~TuneJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void TuneJournal::append(const JournalEntry& e) {
  std::ostringstream os;
  os << "E " << hex(e.key_hash) << " " << hex(e.cost_bits) << "\n";
  write_line(fd_, os.str(), path_);
}

}  // namespace incflat
