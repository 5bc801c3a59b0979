#include "src/autotune/tuning_file.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/support/error.h"
#include "src/support/str.h"

namespace incflat {

std::string tuning_to_string(const ThresholdEnv& env) {
  std::ostringstream os;
  os << "# incremental-flattening threshold assignment\n";
  os << "default=" << env.default_threshold << "\n";
  for (const auto& [name, value] : env.values) {
    os << name << "=" << value << "\n";
  }
  return os.str();
}

namespace {

std::string trim(const std::string& s) {
  const size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

}  // namespace

ThresholdEnv tuning_from_string(const std::string& text) {
  ThresholdEnv env;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // strip comments and whitespace-only lines
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw EvalError("tuning file: missing '=' on line " +
                      std::to_string(lineno));
    }
    // Keys and values are trimmed on both sides ("default = 16" assigns
    // the key "default", not "default "), and a value must be one whole
    // int64 ("16abc" is refused, not read as 16).
    const std::string name = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (name.empty()) {
      throw EvalError("tuning file: empty key on line " +
                      std::to_string(lineno));
    }
    const std::optional<int64_t> v = parse_int(value, INT64_MIN, INT64_MAX);
    if (!v) {
      throw EvalError("tuning file: bad value on line " +
                      std::to_string(lineno) + ": '" + value + "'");
    }
    (name == "default" ? env.default_threshold : env.values[name]) = *v;
  }
  return env;
}

void save_tuning(const std::string& path, const ThresholdEnv& env) {
  // Atomic replace: write a sibling temp file, flush it, and rename it over
  // the destination.  A crash mid-save leaves either the old complete file
  // or a stray .tmp — never a truncated tuning file that would load as a
  // silently wrong assignment.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::out | std::ios::trunc);
    if (!f) throw IoError("cannot write tuning file: " + tmp);
    f << tuning_to_string(env);
    f.flush();
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      throw IoError("tuning file write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot replace tuning file: " + path);
  }
}

ThresholdEnv load_tuning(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw IoError("cannot read tuning file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return tuning_from_string(buf.str());
}

}  // namespace incflat
