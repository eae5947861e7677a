// Minimal JSON value type for the telemetry layer.
//
// Everything machine-readable the repo emits -- counter snapshots, bench
// records, Chrome trace-event files -- is built from this one type, and
// the tests parse those artifacts back with the same type, so the writer
// and the reader cannot drift apart. Objects preserve insertion order to
// keep emitted files byte-stable and diffable across runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace smd::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(Number{d, false}) {}
  Json(int i) : value_(Number{static_cast<double>(i), true}) {}
  Json(std::int64_t i) : value_(Number{static_cast<double>(i), true}) {}
  Json(std::uint64_t u) : value_(Number{static_cast<double>(u), true}) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}

  static Json array() {
    Json j;
    j.value_ = Array{};
    return j;
  }
  static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Object member access. `set` replaces an existing key in place (order
  /// preserved); `at` throws std::out_of_range on a missing key.
  Json& set(std::string_view key, Json v);
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  const Json* find(std::string_view key) const;
  const Json& at(std::string_view key) const;

  Json& push_back(Json v);

  /// Array/object element count; 0 for scalars.
  std::size_t size() const;
  const Json& at(std::size_t i) const;  ///< array element; throws on range

  bool as_bool() const;
  double as_double() const;
  /// The number truncated toward zero; throws std::out_of_range when it is
  /// not finite or lies outside int64_t.
  std::int64_t as_int() const;
  const std::string& as_string() const;

  using Member = std::pair<std::string, Json>;
  const std::vector<Member>& items() const;    ///< object members in order
  const std::vector<Json>& elements() const;   ///< array elements

  /// Serialize. indent == 0 -> compact single line; indent > 0 -> pretty.
  std::string dump(int indent = 0) const;

  /// Parse a complete JSON document; throws std::runtime_error with the
  /// byte offset of the first error. Trailing garbage is an error.
  static Json parse(std::string_view text);

 private:
  struct Number {
    double value = 0.0;
    bool is_integer = false;
  };
  using Array = std::vector<Json>;
  using Object = std::vector<Member>;

  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::monostate, bool, Number, std::string, Array, Object> value_;
};

/// Structural comparison, the one way the bit-identity gates diff two
/// runs (DESIGN.md section 10): "" when `a` and `b` hold the same tree,
/// else "<path>: <a> vs <b>" for each of the first 12 mismatching paths,
/// "; "-separated, then "; ... (N more)" when more differ. Paths read
/// like `cache.hits` and `timeline.intervals[3].label`. Objects compare
/// by key (a key on one side only is "missing"), arrays by length and
/// then element by element, numbers by bit pattern (so 0.0 and -0.0
/// differ; integers are exact below 2^53).
std::string diff(const Json& a, const Json& b);

/// The bytes write_file writes for `j`: `j.dump(2)` plus a trailing
/// newline.
std::string file_text(const Json& j);

/// Write file_text(j) to `path`; throws std::runtime_error if the file
/// cannot be written.
void write_file(const Json& j, const std::string& path);

/// Crash-safe variant of write_file: writes to `path + ".tmp"` and
/// atomically renames over `path`, so readers never observe a torn or
/// truncated document -- they see the old file or the new one. Used for
/// files that outlive the process (result caches, baselines). Throws
/// std::runtime_error on I/O failure (the temp file is removed).
void write_file_atomic(const Json& j, const std::string& path);

/// Read a whole file; throws std::runtime_error if it cannot be opened.
std::string read_file(const std::string& path);

/// Read and parse a JSON file; throws on I/O or parse errors.
Json load_file(const std::string& path);

}  // namespace smd::obs
