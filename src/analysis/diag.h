// Diagnostics engine for the static-analysis passes (smdcheck).
//
// Every check the IR verifier (verify_ir.h) and the stream-program checker
// (check_stream.h) perform reports through this one type: a stable check
// ID (the catalogue lives in DESIGN.md "Static checking"), a severity, a
// human-readable message and a source location that points into the thing
// being checked -- kernel section + instruction index for IR diagnostics,
// stream-instruction index for stream-program diagnostics. Text rendering
// is one-line-per-diagnostic (grep-friendly); machine rendering reuses the
// telemetry layer's Json type so smdcheck --json artifacts parse back with
// the same code paths as every other record the repo emits.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace smd::analysis {

enum class Severity : int { kNote = 0, kWarning = 1, kError = 2 };

const char* severity_name(Severity s);

/// Where a diagnostic points. `unit` is the kernel or program name;
/// `section` is the IR section ("body", ...) or "program" for stream-level
/// checks; `index` is the instruction index within that section (-1 when
/// the diagnostic is about the unit as a whole, e.g. an unused stream
/// declaration).
struct Location {
  std::string unit;
  std::string section;
  int index = -1;

  std::string str() const;
};

struct Diagnostic {
  std::string id;       ///< stable check ID, e.g. "IR003" / "SP010"
  Severity severity = Severity::kError;
  std::string message;
  Location loc;

  /// "error IR003 at water_fixed:body[4]: ..." rendering.
  std::string str() const;
};

/// An ordered list of diagnostics plus severity tallies.
class Diagnostics {
 public:
  void add(Diagnostic d);
  void note(std::string id, Location loc, std::string message) {
    add({std::move(id), Severity::kNote, std::move(message), std::move(loc)});
  }
  void warn(std::string id, Location loc, std::string message) {
    add({std::move(id), Severity::kWarning, std::move(message), std::move(loc)});
  }
  void error(std::string id, Location loc, std::string message) {
    add({std::move(id), Severity::kError, std::move(message), std::move(loc)});
  }

  /// Append another pass's findings.
  void merge(const Diagnostics& other);

  const std::vector<Diagnostic>& all() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  int errors() const { return n_errors_; }
  int warnings() const { return n_warnings_; }
  bool clean() const { return n_errors_ == 0 && n_warnings_ == 0; }

  /// First diagnostic whose check ID matches, or nullptr.
  const Diagnostic* find(const std::string& id) const;
  /// Number of diagnostics carrying the given check ID.
  int count(const std::string& id) const;

  /// One line per diagnostic; "" when empty. Rendered in the deterministic
  /// (unit, section, index, id) order of sorted() so output is byte-stable
  /// regardless of pass-internal iteration order.
  std::string format() const;

  /// {"errors": n, "warnings": n, "diagnostics": [{id, severity, unit,
  ///  section, index, message}, ...]} -- same deterministic order as
  /// format().
  obs::Json to_json() const;

  /// Deterministic render order: stable-sorted by unit, then section, then
  /// instruction index, then check ID (ties keep insertion order). all()
  /// keeps raw insertion order for callers that care about pass order.
  std::vector<const Diagnostic*> sorted() const;

  /// Bump `<prefix>.errors` / `<prefix>.warnings` counters plus one
  /// per-check counter `<prefix>.<id>` in the global telemetry registry.
  void count_into_registry(const std::string& prefix) const;

 private:
  std::vector<Diagnostic> diags_;
  int n_errors_ = 0;
  int n_warnings_ = 0;
};

/// Every check ID the analysis passes can emit, in catalogue order:
/// IR001-IR024 (verify_ir.h), SP001-SP016 (check_stream.h), MC001-MC016 +
/// MC106 (sim::MachineConfig::validate). The doc-drift guard test asserts
/// this list matches the DESIGN.md catalogue one-to-one, so adding a check
/// means extending this list AND the catalogue.
std::vector<std::string> known_check_ids();

/// Thrown by the require_* pre-flight entry points when a pass reports
/// errors. Carries the full diagnostic list; what() is the formatted text.
class CheckFailure : public std::runtime_error {
 public:
  explicit CheckFailure(Diagnostics diags);
  const Diagnostics& diagnostics() const { return diags_; }

 private:
  Diagnostics diags_;
};

}  // namespace smd::analysis
