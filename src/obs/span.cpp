#include "src/obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace smd::obs {
namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex16(const std::string& s) {
  return std::stoull(s, nullptr, 16);
}

}  // namespace

std::int64_t monotonic_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

SpanContext SpanLog::make_root() {
  SpanContext ctx;
  ctx.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = next_span_.fetch_add(1, std::memory_order_relaxed);
  ctx.parent_id = 0;
  return ctx;
}

SpanContext SpanLog::make_child(const SpanContext& parent) {
  SpanContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id = next_span_.fetch_add(1, std::memory_order_relaxed);
  ctx.parent_id = parent.span_id;
  return ctx;
}

void SpanLog::record(SpanRecord rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

void SpanLog::append_chrome(TraceSink* sink) const {
  const std::vector<SpanRecord> spans = snapshot();
  sink->set_process_name(kSpanChromePid, "spans");
  for (const SpanRecord& rec : spans) {
    const int tid = static_cast<int>(rec.ctx.trace_id & 0x7fffffff);
    if (rec.ctx.parent_id == 0) {
      sink->set_track_name(kSpanChromePid, tid,
                           rec.arg.empty() ? "trace-" + hex16(rec.ctx.trace_id)
                                           : rec.arg);
    }
    TraceEvent ev;
    ev.name = rec.name;
    ev.category = rec.category;
    ev.pid = kSpanChromePid;
    ev.tid = tid;
    ev.ts_ns = static_cast<std::uint64_t>(rec.start_ns);
    ev.dur_ns = static_cast<std::uint64_t>(rec.duration_ns());
    // Ids and exact integer timestamps ride in the args: "ts"/"dur" are
    // fractional microseconds, so the ns-exact tree reconstructs from
    // here (spans_from_chrome) rather than from rounded doubles.
    ev.args.emplace_back("trace", hex16(rec.ctx.trace_id));
    ev.args.emplace_back("span", std::to_string(rec.ctx.span_id));
    ev.args.emplace_back("parent", std::to_string(rec.ctx.parent_id));
    ev.args.emplace_back("start_ns", std::to_string(rec.start_ns));
    ev.args.emplace_back("end_ns", std::to_string(rec.end_ns));
    if (!rec.arg.empty()) ev.args.emplace_back("arg", rec.arg);
    sink->add(std::move(ev));
  }
}

Json span_json(const SpanRecord& rec) {
  Json j = Json::object();
  j.set("type", "span");
  j.set("trace", hex16(rec.ctx.trace_id));
  j.set("span", rec.ctx.span_id);
  j.set("parent", rec.ctx.parent_id);
  j.set("name", rec.name);
  j.set("cat", rec.category);
  if (!rec.arg.empty()) j.set("arg", rec.arg);
  j.set("start_ns", rec.start_ns);
  j.set("end_ns", rec.end_ns);
  return j;
}

SpanRecord span_from_json(const Json& j) {
  if (!j.is_object() || !j.contains("type") ||
      j.at("type").as_string() != "span") {
    throw std::runtime_error("span_from_json: not a span event");
  }
  SpanRecord rec;
  rec.ctx.trace_id = parse_hex16(j.at("trace").as_string());
  rec.ctx.span_id = static_cast<std::uint64_t>(j.at("span").as_int());
  rec.ctx.parent_id = static_cast<std::uint64_t>(j.at("parent").as_int());
  rec.name = j.at("name").as_string();
  rec.category = j.at("cat").as_string();
  if (const Json* arg = j.find("arg")) rec.arg = arg->as_string();
  rec.start_ns = j.at("start_ns").as_int();
  rec.end_ns = j.at("end_ns").as_int();
  return rec;
}

std::vector<SpanRecord> spans_from_chrome(const Json& chrome_doc) {
  std::vector<SpanRecord> out;
  for (const Json& ev : chrome_doc.at("traceEvents").elements()) {
    const Json* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const Json* args = ev.find("args");
    if (args == nullptr || !args->contains("span")) continue;
    SpanRecord rec;
    rec.ctx.trace_id = parse_hex16(args->at("trace").as_string());
    rec.ctx.span_id = std::stoull(args->at("span").as_string());
    rec.ctx.parent_id = std::stoull(args->at("parent").as_string());
    rec.name = ev.at("name").as_string();
    rec.category = ev.at("cat").as_string();
    if (const Json* arg = args->find("arg")) rec.arg = arg->as_string();
    rec.start_ns = std::stoll(args->at("start_ns").as_string());
    rec.end_ns = std::stoll(args->at("end_ns").as_string());
    out.push_back(std::move(rec));
  }
  return out;
}

bool spans_partition_exactly(const std::vector<SpanRecord>& trace,
                             std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  const SpanRecord* root = nullptr;
  for (const SpanRecord& rec : trace) {
    if (rec.ctx.parent_id != 0) continue;
    if (root != nullptr) return fail("more than one root span");
    root = &rec;
  }
  if (root == nullptr) return fail("no root span");
  std::vector<const SpanRecord*> children;
  for (const SpanRecord& rec : trace) {
    if (rec.ctx.trace_id != root->ctx.trace_id) {
      return fail("span from a different trace");
    }
    if (rec.ctx.parent_id == root->ctx.span_id) children.push_back(&rec);
  }
  if (children.empty()) return fail("root has no children");
  std::sort(children.begin(), children.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                : a->end_ns < b->end_ns;
            });
  std::int64_t cursor = root->start_ns;
  for (const SpanRecord* child : children) {
    if (child->start_ns != cursor) {
      return fail("child '" + child->name + "' starts at " +
                  std::to_string(child->start_ns) + ", expected " +
                  std::to_string(cursor));
    }
    if (child->end_ns < child->start_ns) {
      return fail("child '" + child->name + "' has negative duration");
    }
    cursor = child->end_ns;
  }
  if (cursor != root->end_ns) {
    return fail("children end at " + std::to_string(cursor) +
                ", root ends at " + std::to_string(root->end_ns));
  }
  return true;
}

}  // namespace smd::obs
