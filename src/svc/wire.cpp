#include "src/svc/wire.h"

#include <array>
#include <limits>
#include <stdexcept>

#include "src/tune/cache.h"

namespace smd::svc {
namespace {

struct CodeName {
  ErrorCode code;
  const char* name;
};

constexpr std::array<CodeName, 8> kCodeNames = {{
    {ErrorCode::kOk, "ok"},
    {ErrorCode::kBadRequest, "bad_request"},
    {ErrorCode::kQueueFull, "queue_full"},
    {ErrorCode::kShutdown, "shutdown"},
    {ErrorCode::kBudgetExceeded, "budget_exceeded"},
    {ErrorCode::kCancelled, "cancelled"},
    {ErrorCode::kDeadlineExceeded, "deadline_exceeded"},
    {ErrorCode::kInternal, "internal"},
}};

/// Overlay the members present in `j` onto a default candidate. Partial
/// configs keep the paper's tuned defaults for absent axes; unknown keys
/// are an error (the same strictness Request::from_json applies).
tune::Candidate candidate_from_partial_json(const obs::Json& j) {
  if (!j.is_object()) throw WireError("request 'config' must be an object");
  tune::Candidate c;
  for (const auto& [key, value] : j.items()) {
    try {
      tune::set_axis(c, key, value);
    } catch (const std::exception& e) {
      throw WireError(std::string("config: ") + e.what());
    }
  }
  return c;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  for (const CodeName& cn : kCodeNames) {
    if (cn.code == code) return cn.name;
  }
  return "unknown";
}

ErrorCode parse_error_code(const std::string& name) {
  for (const CodeName& cn : kCodeNames) {
    if (name == cn.name) return cn.code;
  }
  throw WireError("unknown error code '" + name + "'");
}

obs::Json Request::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("id", id);
  j.set("config", config.to_json());
  j.set("n_molecules", n_molecules);
  j.set("priority", priority);
  j.set("timeout_ms", timeout_ms);
  return j;
}

Request Request::from_json(const obs::Json& j) {
  if (!j.is_object()) throw WireError("request must be a JSON object");
  Request r;
  for (const auto& [key, value] : j.items()) {
    // Narrows an int field; the catch below names the field.
    const auto to_int = [&value] {
      const std::int64_t v = value.as_int();
      if (v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        throw std::out_of_range(std::to_string(v) + " is outside int's range");
      }
      return static_cast<int>(v);
    };
    try {
      if (key == "id") {
        r.id = value.as_string();
      } else if (key == "config") {
        r.config = candidate_from_partial_json(value);
      } else if (key == "n_molecules") {
        r.n_molecules = to_int();
      } else if (key == "priority") {
        r.priority = to_int();
      } else if (key == "timeout_ms") {
        r.timeout_ms = value.as_int();
      } else {
        throw WireError("unknown request field '" + key + "'");
      }
    } catch (const WireError&) {
      throw;
    } catch (const std::exception& e) {
      throw WireError("request field '" + key + "': " + e.what());
    }
  }
  return r;
}

obs::Json Response::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("schema_version", kWireSchemaVersion);
  j.set("id", id);
  j.set("error", error_code_name(error));
  j.set("message", message);
  j.set("config_hash", tune::hash_hex(config_hash));
  j.set("served_by", served_by);
  j.set("trace", tune::hash_hex(trace_id));
  if (ok()) j.set("payload", obs::Json::parse(payload));
  obs::Json t = obs::Json::object();
  t.set("admission_ns", admission_ns);
  t.set("queue_ns", queue_ns);
  t.set("lookup_ns", lookup_ns);
  t.set("simulate_ns", simulate_ns);
  t.set("serialize_ns", serialize_ns);
  t.set("complete_ns", complete_ns);
  t.set("total_ns", total_ns);
  j.set("timing", std::move(t));
  return j;
}

Response Response::from_json(const obs::Json& j) {
  if (!j.is_object() || !j.contains("schema_version")) {
    throw WireError("response must be an object with schema_version");
  }
  // Version 1 responses (pre-partition timing) still parse: the fields
  // added in version 2 default to zero.
  const std::int64_t version = j.at("schema_version").as_int();
  if (version != 1 && version != kWireSchemaVersion) {
    throw WireError("unsupported response schema_version");
  }
  Response r;
  r.id = j.at("id").as_string();
  r.error = parse_error_code(j.at("error").as_string());
  r.message = j.at("message").as_string();
  r.config_hash = std::stoull(j.at("config_hash").as_string(), nullptr, 16);
  r.served_by = j.at("served_by").as_string();
  if (const obs::Json* trace = j.find("trace")) {
    r.trace_id = std::stoull(trace->as_string(), nullptr, 16);
  }
  if (r.ok()) {
    const obs::Json& p = j.at("payload");
    r.payload = p.dump(0);
    r.metrics = tune::Metrics::from_json(p.at("metrics"));
  }
  const obs::Json& t = j.at("timing");
  const auto field = [&t](const char* key) -> std::int64_t {
    const obs::Json* v = t.find(key);
    return v == nullptr ? 0 : v->as_int();
  };
  r.admission_ns = field("admission_ns");
  r.queue_ns = field("queue_ns");
  r.lookup_ns = field("lookup_ns");
  r.simulate_ns = field("simulate_ns");
  r.serialize_ns = field("serialize_ns");
  r.complete_ns = field("complete_ns");
  r.total_ns = field("total_ns");
  return r;
}

std::uint64_t request_hash(const tune::Candidate& config, int n_molecules,
                           const std::string& salt) {
  return tune::config_hash(
      config, salt + "|svc.n_molecules=" + std::to_string(n_molecules));
}

std::string payload_text(std::uint64_t hash, const tune::Candidate& config,
                         int n_molecules, const tune::Metrics& metrics) {
  obs::Json p = obs::Json::object();
  p.set("schema_version", kWireSchemaVersion);
  p.set("config_hash", tune::hash_hex(hash));
  p.set("n_molecules", n_molecules);
  p.set("config", config.to_json());
  p.set("metrics", metrics.to_json());
  return p.dump(0);
}

std::vector<BatchEntry> parse_request_file(const obs::Json& doc) {
  const obs::Json* list = nullptr;
  if (doc.is_array()) {
    list = &doc;
  } else if (doc.is_object()) {
    // Request layout is unchanged since version 1, so batches written for
    // either version parse.
    const obs::Json* version = doc.find("schema_version");
    if (version == nullptr ||
        (version->as_int() != 1 && version->as_int() != kWireSchemaVersion)) {
      throw WireError("request file needs schema_version " +
                      std::to_string(kWireSchemaVersion));
    }
    list = doc.find("requests");
    if (list == nullptr || !list->is_array()) {
      throw WireError("request file needs a 'requests' array");
    }
  } else {
    throw WireError("request file must be an object or array");
  }
  std::vector<BatchEntry> out(list->size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const obs::Json& r = list->at(i);
    try {
      out[i].request = Request::from_json(r);
    } catch (const WireError& e) {
      out[i].error = e.what();
      const obs::Json* id = r.find("id");
      if (id != nullptr && id->is_string()) out[i].request.id = id->as_string();
    }
  }
  return out;
}

}  // namespace smd::svc
