#include "src/obs/json.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace smd::obs {
namespace {

[[noreturn]] void fail(const char* what, std::size_t pos) {
  throw std::runtime_error("json parse error at byte " + std::to_string(pos) +
                           ": " + what);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

/// Recursive-descent parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document", pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object", pos_ - 1);
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array", pos_ - 1);
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape", pos_ - 1);
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    // Surrogate pairs: a high surrogate must be followed by \uDC00-\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate", pos_);
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired surrogate", pos_);
      }
    }
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

  Json parse_number() {
    const std::size_t start = pos_;
    bool is_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integer = false;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number", start);
    }
    const std::string tok(text_.substr(start, pos_ - start));
    const double v = std::strtod(tok.c_str(), nullptr);
    if (is_integer) return Json(static_cast<std::int64_t>(v));
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// One side of a mismatch: scalars as JSON text, containers by shape.
std::string brief(const Json& j) {
  if (j.is_array()) return "array[" + std::to_string(j.size()) + "]";
  if (j.is_object()) return "object{" + std::to_string(j.size()) + "}";
  return j.dump();
}

bool same_scalar(const Json& a, const Json& b) {
  switch (a.type()) {
    case Json::Type::kBool: return a.as_bool() == b.as_bool();
    case Json::Type::kNumber:
      return std::bit_cast<std::uint64_t>(a.as_double()) ==
             std::bit_cast<std::uint64_t>(b.as_double());
    case Json::Type::kString: return a.as_string() == b.as_string();
    default: return true;  // null
  }
}

/// Walks both trees in a's key order, counting every mismatch and
/// describing the first kMaxReported; the first ones are the informative
/// ones.
class Differ {
 public:

  void walk(const Json& a, const Json& b, const std::string& path) {
    if (a.type() != b.type()) return mismatch(path, brief(a), brief(b));
    if (a.is_array()) {
      if (a.size() != b.size()) {
        mismatch(path, "length " + std::to_string(a.size()),
                 std::to_string(b.size()));
      }
      for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        walk(a.at(i), b.at(i), path + "[" + std::to_string(i) + "]");
      }
    } else if (a.is_object()) {
      const auto member = [&](const std::string& key) {
        return path.empty() ? key : path + "." + key;
      };
      for (const auto& [key, va] : a.items()) {
        const Json* vb = b.find(key);
        if (vb == nullptr) {
          mismatch(member(key), brief(va), "missing");
        } else {
          walk(va, *vb, member(key));
        }
      }
      for (const auto& [key, vb] : b.items()) {
        if (!a.contains(key)) mismatch(member(key), "missing", brief(vb));
      }
    } else if (!same_scalar(a, b)) {
      mismatch(path, brief(a), brief(b));
    }
  }

  std::string result() const {
    if (count_ <= kMaxReported) return out_;
    return out_ + "; ... (" + std::to_string(count_ - kMaxReported) +
           " more)";
  }

 private:
  void mismatch(const std::string& path, const std::string& a,
                const std::string& b) {
    if (++count_ > kMaxReported) return;
    if (!out_.empty()) out_ += "; ";
    out_ += (path.empty() ? "<root>" : path) + ": " + a + " vs " + b;
  }

  static constexpr std::size_t kMaxReported = 12;
  std::size_t count_ = 0;
  std::string out_;
};

}  // namespace

Json& Json::set(std::string_view key, Json v) {
  auto& obj = std::get<Object>(value_);
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj.emplace_back(std::string(key), std::move(v));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw std::out_of_range("json: missing key '" + std::string(key) + "'");
  }
  return *v;
}

Json& Json::push_back(Json v) {
  std::get<Array>(value_).push_back(std::move(v));
  return *this;
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  const auto& arr = std::get<Array>(value_);
  if (i >= arr.size()) throw std::out_of_range("json: array index");
  return arr[i];
}

bool Json::as_bool() const { return std::get<bool>(value_); }

double Json::as_double() const { return std::get<Number>(value_).value; }

std::int64_t Json::as_int() const {
  const double v = std::get<Number>(value_).value;
  // Converting a double outside the int64 range is undefined behaviour.
  if (!(v >= -0x1p63 && v < 0x1p63)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g is outside the integer range", v);
    throw std::out_of_range(buf);
  }
  return static_cast<std::int64_t>(v);
}

const std::string& Json::as_string() const {
  return std::get<std::string>(value_);
}

const std::vector<Json::Member>& Json::items() const {
  return std::get<Object>(value_);
}

const std::vector<Json>& Json::elements() const {
  return std::get<Array>(value_);
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += as_bool() ? "true" : "false"; break;
    case Type::kNumber: {
      const Number& n = std::get<Number>(value_);
      if (n.is_integer) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(n.value));
        out += buf;
      } else if (!std::isfinite(n.value)) {
        out += "null";  // JSON has no Inf/NaN; emit null rather than garbage
      } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", n.value);
        out += buf;
      }
      break;
    }
    case Type::kString: append_escaped(out, as_string()); break;
    case Type::kArray: {
      const auto& arr = std::get<Array>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        arr[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = std::get<Object>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        append_escaped(out, obj[i].first);
        out += indent > 0 ? ": " : ":";
        obj[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string diff(const Json& a, const Json& b) {
  Differ d;
  d.walk(a, b, "");
  return d.result();
}

std::string file_text(const Json& j) { return j.dump(2) + '\n'; }

void write_file(const Json& j, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  os << file_text(j);
  if (!os) throw std::runtime_error("write failed: " + path);
}

void write_file_atomic(const Json& j, const std::string& path) {
  const std::string tmp = path + ".tmp";
  write_file(j, tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " over " + path);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open: " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

Json load_file(const std::string& path) { return Json::parse(read_file(path)); }

}  // namespace smd::obs
