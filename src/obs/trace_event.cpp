#include "src/obs/trace_event.h"

namespace smd::obs {
namespace {

Json metadata_event(const char* kind, int pid, int tid, bool has_tid,
                    const std::string& name) {
  Json args = Json::object();
  args.set("name", name);
  Json ev = Json::object();
  ev.set("name", kind);
  ev.set("ph", "M");
  ev.set("pid", pid);
  if (has_tid) ev.set("tid", tid);
  ev.set("args", std::move(args));
  return ev;
}

}  // namespace

void TraceSink::set_process_name(int pid, std::string name) {
  for (auto& [p, n] : process_names_) {
    if (p == pid) {
      n = std::move(name);
      return;
    }
  }
  process_names_.emplace_back(pid, std::move(name));
}

void TraceSink::set_track_name(int pid, int tid, std::string name) {
  for (auto& [key, n] : track_names_) {
    if (key == std::pair{pid, tid}) {
      n = std::move(name);
      return;
    }
  }
  track_names_.emplace_back(std::pair{pid, tid}, std::move(name));
}

Json TraceSink::chrome_json() const {
  Json events = Json::array();
  for (const auto& [pid, name] : process_names_) {
    events.push_back(metadata_event("process_name", pid, 0, false, name));
  }
  for (const auto& [key, name] : track_names_) {
    events.push_back(metadata_event("thread_name", key.first, key.second,
                                    true, name));
  }
  for (const auto& ev : events_) {
    Json e = Json::object();
    e.set("name", ev.name);
    e.set("cat", ev.category.empty() ? "event" : ev.category);
    e.set("ph", "X");
    e.set("pid", ev.pid);
    e.set("tid", ev.tid);
    e.set("ts", static_cast<double>(ev.ts_ns) / 1000.0);
    e.set("dur", static_cast<double>(ev.dur_ns) / 1000.0);
    if (!ev.args.empty()) {
      Json args = Json::object();
      for (const auto& [key, value] : ev.args) args.set(key, value);
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  Json root = Json::object();
  root.set("schema_version", kTraceSchemaVersion);
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ns");
  return root;
}

void TraceSink::write(const std::string& path) const {
  write_file(chrome_json(), path);
}

}  // namespace smd::obs
