// Minimal JSON writer and reader.
//
// The paper's artifact emits "raw measurement data in a simple JSON format";
// the benchmark binaries use the writer to do the same (results/*.json), and
// the trace layer (src/support/trace.*) emits Chrome trace-event files with
// it.  The reader is a strict little recursive-descent parser used to
// validate those artifacts round-trip (tests) and to load them back.
#pragma once

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace incflat {

/// Parse failure carrying the byte offset of the error.  what() keeps the
/// legacy "json parse error at offset N: ..." message, so existing
/// handlers are unaffected.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& msg, size_t offset)
      : std::runtime_error(msg), offset_(offset) {}
  size_t offset() const { return offset_; }

 private:
  size_t offset_;
};

/// A JSON value: null, bool, number, string, array, or object.  Objects
/// preserve insertion order (stable, diffable output).
class Json {
 public:
  Json() : node_(nullptr) {}
  Json(bool b) : node_(b) {}                                   // NOLINT
  Json(double d) : node_(d) {}                                 // NOLINT
  Json(int64_t i) : node_(static_cast<double>(i)) {}           // NOLINT
  Json(int i) : node_(static_cast<double>(i)) {}               // NOLINT
  Json(size_t i) : node_(static_cast<double>(i)) {}            // NOLINT
  Json(const char* s) : node_(std::string(s)) {}               // NOLINT
  Json(std::string s) : node_(std::move(s)) {}                 // NOLINT

  static Json array() {
    Json j;
    j.node_ = Arr{};
    return j;
  }
  static Json object() {
    Json j;
    j.node_ = Obj{};
    return j;
  }

  /// Parse a JSON document.  Throws std::runtime_error (with an offset)
  /// on malformed input or trailing garbage.
  static Json parse(const std::string& text);

  /// Append to an array value.
  Json& push(Json v);

  /// Set a key of an object value (inserting or overwriting).
  Json& set(const std::string& key, Json v);

  // -- readers ---------------------------------------------------------------

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(node_); }
  bool is_bool() const { return std::holds_alternative<bool>(node_); }
  bool is_number() const { return std::holds_alternative<double>(node_); }
  bool is_string() const { return std::holds_alternative<std::string>(node_); }
  bool is_array() const { return std::holds_alternative<Arr>(node_); }
  bool is_object() const { return std::holds_alternative<Obj>(node_); }

  /// Typed accessors; throw std::logic_error on a type mismatch.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Element count of an array or object (0 for scalars).
  size_t size() const;

  /// Array element `i`; throws std::logic_error when out of range.
  const Json& at(size_t i) const;

  /// Object field lookup; null when absent / not an object.
  const Json* find(const std::string& key) const;

  /// An object's keys in insertion order (empty when not an object).
  std::vector<std::string> keys() const;

  /// Object field lookup; throws std::logic_error when absent.
  const Json& get(const std::string& key) const;

  /// Serialise; `indent` < 0 gives compact output.  Numbers use shortest
  /// round-trip formatting (parse(str()) reproduces every double exactly);
  /// non-finite doubles, which JSON cannot represent, serialise as null.
  std::string str(int indent = 2) const;

 private:
  struct Arr {
    std::vector<Json> items;
  };
  struct Obj {
    std::vector<std::pair<std::string, Json>> fields;
  };
  std::variant<std::nullptr_t, bool, double, std::string, Arr, Obj> node_;

  void write(std::ostringstream& os, int indent, int depth) const;
  static void write_string(std::ostringstream& os, const std::string& s);
  static void write_double(std::ostringstream& os, double d);
};

}  // namespace incflat
