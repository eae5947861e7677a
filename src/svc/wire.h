// Wire format of the simulation service: schema-versioned request and
// response structs, parsed and serialized through obs::Json, plus the
// structured error codes every failure mode maps onto.
//
// The response splits into two parts. The *payload* is the deterministic
// product of a request's config hash -- schema version, config, molecule
// count, metrics -- rendered once per job through payload_text() and
// byte-identical no matter how the server produced it (fresh simulation,
// result-cache hit, or attaching to an in-flight duplicate) and no matter
// how many workers raced to produce it (DESIGN.md section 13). Everything
// else -- latency decomposition, how the request was served, error
// details -- is per-request provenance and deliberately lives outside the
// payload.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/tune/runner.h"
#include "src/tune/space.h"

namespace smd::svc {

/// Stamped into every request/response and into the payload. Bump on any
/// field rename/removal/meaning change (see core/schema.h for the policy).
/// History:
///   1  initial request/response/payload layout
///   2  timing rebuilt as an exact six-phase partition (DESIGN.md
///      section 15): + admission_ns/complete_ns, queue_ns narrowed from
///      submit->exec to admission->exec, phases now sum to total_ns
///      exactly; + top-level "trace" id. Requests are unchanged
///      (parse_request_file accepts version 1 batches).
inline constexpr int kWireSchemaVersion = 2;

/// Structured outcome of a request. Everything except kOk carries a
/// human-readable `message` alongside the code.
enum class ErrorCode {
  kOk = 0,
  kBadRequest,        ///< malformed request or invalid machine config
  kQueueFull,         ///< rejected: job queue at capacity
  kShutdown,          ///< rejected: server no longer accepting work
  kBudgetExceeded,    ///< rejected: over the per-request resource budget
  kCancelled,         ///< cancelled via Server::cancel before completion
  kDeadlineExceeded,  ///< wall-clock deadline passed before completion
  kInternal,          ///< the simulation itself threw
};

const char* error_code_name(ErrorCode code);
ErrorCode parse_error_code(const std::string& name);

/// Thrown by the from_json parsers on malformed input; the CLI surfaces
/// it as a kBadRequest response row.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// One simulation request: a tune::Candidate-shaped config (implementation
/// variant + algorithm knobs + machine overrides) plus the experiment size
/// and scheduling directives.
struct Request {
  std::string id;          ///< client-chosen; server assigns "job-N" if empty
  tune::Candidate config;  ///< what to simulate, and on which machine
  int n_molecules = 900;   ///< experiment size (ExperimentSetup::n_molecules)
  int priority = 0;        ///< higher runs first; FIFO within a priority
  /// Wall-clock budget in ms measured from submission; 0 = none. Enforced
  /// cooperatively before and between execution phases.
  std::int64_t timeout_ms = 0;

  obs::Json to_json() const;
  /// Parses `{"id", "config", "n_molecules", "priority", "timeout_ms"}`.
  /// Every field is optional (defaults apply); "config" accepts a partial
  /// candidate object (absent axes keep their defaults). Unknown keys are
  /// a WireError so typos fail loudly instead of silently defaulting.
  static Request from_json(const obs::Json& j);
};

/// What the server hands back for one request.
struct Response {
  std::string id;
  ErrorCode error = ErrorCode::kOk;
  std::string message;           ///< empty on success
  std::uint64_t config_hash = 0;
  /// "sim" (this request's job ran the simulator), "cache" (persistent or
  /// in-memory result cache), or "dedup" (attached to an in-flight job).
  std::string served_by;
  tune::Metrics metrics;         ///< valid iff error == kOk
  /// The deterministic payload document (payload_text), "" unless kOk.
  std::string payload;
  /// Trace id of this request's span tree (obs::SpanContext::trace_id);
  /// 0 when the server ran without tracing enabled.
  std::uint64_t trace_id = 0;

  // Per-request latency decomposition, wall-clock ns. The six phases are
  // derived from one non-decreasing boundary chain per request
  // (DESIGN.md section 15), so they *partition* the end-to-end latency:
  //   admission_ns + queue_ns + lookup_ns + simulate_ns + serialize_ns
  //     + complete_ns == total_ns, exactly, for every response.
  std::int64_t admission_ns = 0;  ///< submit -> admission decision
  std::int64_t queue_ns = 0;      ///< admission -> execution start
  std::int64_t lookup_ns = 0;     ///< dedup decision + result-cache probe
  std::int64_t simulate_ns = 0;   ///< problem build + simulation
  std::int64_t serialize_ns = 0;  ///< payload rendering
  std::int64_t complete_ns = 0;   ///< serialize end -> result delivery
  std::int64_t total_ns = 0;      ///< submit -> delivery (== phase sum)

  bool ok() const { return error == ErrorCode::kOk; }

  /// Full per-request record: payload (as a nested object) + provenance +
  /// timing. from_json re-renders the embedded payload object through the
  /// same serializer, so the payload string round-trips byte-identically.
  obs::Json to_json() const;
  static Response from_json(const obs::Json& j);
};

/// The dedup/cache key: tune::config_hash over the candidate with the
/// experiment size mixed into the salt, so equal configs at different
/// molecule counts never alias.
std::uint64_t request_hash(const tune::Candidate& config, int n_molecules,
                           const std::string& salt);

/// Render the deterministic payload for a finished simulation -- the
/// byte-identity quantity of DESIGN.md section 13:
///   {"schema_version":1, "config_hash":"<16hex>", "n_molecules":N,
///    "config":{...}, "metrics":{...}}  (compact, single line)
/// Server, CLI self-check and tests all build payloads through this one
/// function.
std::string payload_text(std::uint64_t hash, const tune::Candidate& config,
                         int n_molecules, const tune::Metrics& metrics);

/// One element of a request batch: the parsed request, or why it failed.
struct BatchEntry {
  Request request;    ///< on error only `id` is set (the element's "id")
  std::string error;  ///< WireError message; empty when the element parsed
};

/// Parse a request batch: either `{"schema_version":1, "requests":[...]}`
/// or a bare JSON array of request objects. An element that fails
/// Request::from_json becomes an entry with `error` set, so the caller can
/// answer it with a bad_request and serve the rest of the batch. Throws
/// WireError only when the batch itself is malformed (not an object or
/// array, no requests array, a schema_version this code was not written
/// for).
std::vector<BatchEntry> parse_request_file(const obs::Json& doc);

}  // namespace smd::svc
