#include "src/support/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace incflat {

Json& Json::push(Json v) {
  if (!std::holds_alternative<Arr>(node_)) {
    throw std::logic_error("Json::push on non-array");
  }
  std::get<Arr>(node_).items.push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  if (!std::holds_alternative<Obj>(node_)) {
    throw std::logic_error("Json::set on non-object");
  }
  auto& fields = std::get<Obj>(node_).fields;
  for (auto& [k, old] : fields) {
    if (k == key) {
      old = std::move(v);
      return *this;
    }
  }
  fields.emplace_back(key, std::move(v));
  return *this;
}

bool Json::as_bool() const {
  if (auto* b = std::get_if<bool>(&node_)) return *b;
  throw std::logic_error("Json::as_bool on non-bool");
}

double Json::as_double() const {
  if (auto* d = std::get_if<double>(&node_)) return *d;
  throw std::logic_error("Json::as_double on non-number");
}

const std::string& Json::as_string() const {
  if (auto* s = std::get_if<std::string>(&node_)) return *s;
  throw std::logic_error("Json::as_string on non-string");
}

size_t Json::size() const {
  if (auto* a = std::get_if<Arr>(&node_)) return a->items.size();
  if (auto* o = std::get_if<Obj>(&node_)) return o->fields.size();
  return 0;
}

const Json& Json::at(size_t i) const {
  auto* a = std::get_if<Arr>(&node_);
  if (!a || i >= a->items.size()) {
    throw std::logic_error("Json::at out of range");
  }
  return a->items[i];
}

const Json* Json::find(const std::string& key) const {
  auto* o = std::get_if<Obj>(&node_);
  if (!o) return nullptr;
  for (const auto& [k, v] : o->fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::vector<std::string> Json::keys() const {
  std::vector<std::string> out;
  if (auto* o = std::get_if<Obj>(&node_)) {
    for (const auto& [k, v] : o->fields) out.push_back(k);
  }
  return out;
}

const Json& Json::get(const std::string& key) const {
  const Json* v = find(key);
  if (!v) throw std::logic_error("Json::get: no field '" + key + "'");
  return *v;
}

void Json::write_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void Json::write_double(std::ostringstream& os, double d) {
  if (!std::isfinite(d)) {
    // JSON has no NaN / Infinity literal.
    os << "null";
    return;
  }
  if (std::floor(d) == d && std::abs(d) < 1e15) {
    os << static_cast<int64_t>(d);
    return;
  }
  // Shortest representation that round-trips the exact double.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  os.write(buf, res.ptr - buf);
}

void Json::write(std::ostringstream& os, int indent, int depth) const {
  const std::string nl = indent < 0 ? "" : "\n";
  const std::string pad =
      indent < 0 ? "" : std::string(static_cast<size_t>(indent * (depth + 1)), ' ');
  const std::string pad_end =
      indent < 0 ? "" : std::string(static_cast<size_t>(indent * depth), ' ');

  if (std::holds_alternative<std::nullptr_t>(node_)) {
    os << "null";
  } else if (auto* b = std::get_if<bool>(&node_)) {
    os << (*b ? "true" : "false");
  } else if (auto* d = std::get_if<double>(&node_)) {
    write_double(os, *d);
  } else if (auto* s = std::get_if<std::string>(&node_)) {
    write_string(os, *s);
  } else if (auto* a = std::get_if<Arr>(&node_)) {
    if (a->items.empty()) {
      os << "[]";
      return;
    }
    os << "[" << nl;
    for (size_t i = 0; i < a->items.size(); ++i) {
      os << pad;
      a->items[i].write(os, indent, depth + 1);
      if (i + 1 < a->items.size()) os << ",";
      os << nl;
    }
    os << pad_end << "]";
  } else if (auto* o = std::get_if<Obj>(&node_)) {
    if (o->fields.empty()) {
      os << "{}";
      return;
    }
    os << "{" << nl;
    for (size_t i = 0; i < o->fields.size(); ++i) {
      os << pad;
      write_string(os, o->fields[i].first);
      os << (indent < 0 ? ":" : ": ");
      o->fields[i].second.write(os, indent, depth + 1);
      if (i + 1 < o->fields.size()) os << ",";
      os << nl;
    }
    os << pad_end << "}";
  }
}

std::string Json::str(int indent) const {
  std::ostringstream os;
  write(os, indent, 0);
  return os.str();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  const std::string& text;
  size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("json parse error at offset " +
                             std::to_string(pos) + ": " + what,
                         pos);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool consume_lit(const char* lit) {
    size_t n = 0;
    while (lit[n]) ++n;
    if (text.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      if (pos >= text.size()) fail("truncated \\u escape");
      const char c = text[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF && text.compare(pos, 2, "\\u") == 0) {
            // surrogate pair
            const size_t save = pos;
            pos += 2;
            const unsigned lo = hex4();
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              pos = save;
            }
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  bool digit_at(size_t p) const {
    return p < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[p]));
  }

  double parse_number() {
    // Strict RFC 8259 grammar, validated *before* conversion.  from_chars
    // alone is too permissive for wire input: it accepts leading zeros
    // ("01"), bare fractions (".5", "1."), and C-library spellings like
    // "inf"/"nan" on some implementations — and a greedy
    // consume-then-convert loop turns adjacent garbage ("-+1", "1e") into
    // one vague "bad number".  The daemon feeds this parser bytes straight
    // off a socket, so each malformation gets a precise rejection.
    const size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    // int = "0" / digit1-9 *DIGIT
    if (!digit_at(pos)) {
      pos = start;
      fail("bad number (expected digit)");
    }
    if (text[pos] == '0') {
      ++pos;
      if (digit_at(pos)) {
        pos = start;
        fail("bad number (leading zero)");
      }
    } else {
      while (digit_at(pos)) ++pos;
    }
    // frac = "." 1*DIGIT
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (!digit_at(pos)) {
        pos = start;
        fail("bad number (expected digit after '.')");
      }
      while (digit_at(pos)) ++pos;
    }
    // exp = ("e" / "E") ["-" / "+"] 1*DIGIT
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!digit_at(pos)) {
        pos = start;
        fail("bad number (expected digit in exponent)");
      }
      while (digit_at(pos)) ++pos;
    }
    double v = 0;
    const auto res = std::from_chars(text.data() + start, text.data() + pos, v);
    if (res.ec == std::errc::result_out_of_range) {
      // from_chars leaves v unmodified on a range error, so re-read with
      // strtod to separate the two cases: "1e999" overflows to infinity —
      // which JSON cannot represent and the writer would silently turn back
      // into null, so reject it loudly — while "1e-999" underflows toward
      // zero, which strtod resolves to a denormal or 0.0 and we accept.
      const double sv = std::strtod(text.c_str() + start, nullptr);
      if (std::isfinite(sv)) return sv;
      pos = start;
      fail("number out of range");
    }
    if (res.ec != std::errc{} || res.ptr != text.data() + pos) {
      pos = start;
      fail("bad number");
    }
    return v;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos;
      Json o = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return o;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        o.set(key, parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return o;
      }
    }
    if (c == '[') {
      ++pos;
      Json a = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return a;
      }
      for (;;) {
        a.push(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return a;
      }
    }
    if (c == '"') return Json(parse_string());
    if (consume_lit("true")) return Json(true);
    if (consume_lit("false")) return Json(false);
    if (consume_lit("null")) return Json();
    if (c == '+') fail("bad number (leading '+' is not allowed)");
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return Json(parse_number());
    }
    fail("unexpected character");
  }
};

}  // namespace

Json Json::parse(const std::string& text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing garbage after document");
  return v;
}

}  // namespace incflat
