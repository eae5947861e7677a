#include "src/analysis/diag.h"

#include <algorithm>
#include <tuple>

#include "src/obs/registry.h"

namespace smd::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Location::str() const {
  std::string out = unit.empty() ? std::string("<unknown>") : unit;
  if (!section.empty()) {
    out += ":" + section;
    if (index >= 0) out += "[" + std::to_string(index) + "]";
  }
  return out;
}

std::string Diagnostic::str() const {
  return std::string(severity_name(severity)) + " " + id + " at " + loc.str() +
         ": " + message;
}

void Diagnostics::add(Diagnostic d) {
  if (d.severity == Severity::kError) ++n_errors_;
  if (d.severity == Severity::kWarning) ++n_warnings_;
  diags_.push_back(std::move(d));
}

void Diagnostics::merge(const Diagnostics& other) {
  for (const auto& d : other.diags_) add(d);
}

const Diagnostic* Diagnostics::find(const std::string& id) const {
  for (const auto& d : diags_) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

int Diagnostics::count(const std::string& id) const {
  int n = 0;
  for (const auto& d : diags_) n += d.id == id ? 1 : 0;
  return n;
}

std::vector<const Diagnostic*> Diagnostics::sorted() const {
  std::vector<const Diagnostic*> view;
  view.reserve(diags_.size());
  for (const auto& d : diags_) view.push_back(&d);
  std::stable_sort(view.begin(), view.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     return std::tie(a->loc.unit, a->loc.section, a->loc.index,
                                     a->id) < std::tie(b->loc.unit,
                                                       b->loc.section,
                                                       b->loc.index, b->id);
                   });
  return view;
}

std::string Diagnostics::format() const {
  std::string out;
  for (const Diagnostic* d : sorted()) {
    out += d->str();
    out += '\n';
  }
  return out;
}

obs::Json Diagnostics::to_json() const {
  obs::Json root = obs::Json::object();
  root.set("errors", n_errors_);
  root.set("warnings", n_warnings_);
  obs::Json list = obs::Json::array();
  for (const Diagnostic* dp : sorted()) {
    const Diagnostic& d = *dp;
    obs::Json j = obs::Json::object();
    j.set("id", d.id);
    j.set("severity", severity_name(d.severity));
    j.set("unit", d.loc.unit);
    j.set("section", d.loc.section);
    j.set("index", d.loc.index);
    j.set("message", d.message);
    list.push_back(std::move(j));
  }
  root.set("diagnostics", std::move(list));
  return root;
}

void Diagnostics::count_into_registry(const std::string& prefix) const {
  if (diags_.empty()) return;
  auto& reg = obs::CounterRegistry::global();
  if (n_errors_ > 0) reg.add(prefix + ".errors", n_errors_);
  if (n_warnings_ > 0) reg.add(prefix + ".warnings", n_warnings_);
  for (const auto& d : diags_) reg.add(prefix + "." + d.id);
}

std::vector<std::string> known_check_ids() {
  std::vector<std::string> ids;
  auto family = [&](const char* prefix, int first, int last) {
    for (int n = first; n <= last; ++n) {
      std::string num = std::to_string(n);
      while (num.size() < 3) num.insert(num.begin(), '0');
      ids.push_back(prefix + num);
    }
  };
  family("IR", 1, 24);
  family("SP", 1, 16);
  family("MC", 1, 16);
  ids.push_back("MC106");  // one-SDR-overlap warning, variant of MC006
  return ids;
}

CheckFailure::CheckFailure(Diagnostics diags)
    : std::runtime_error(diags.format()), diags_(std::move(diags)) {}

}  // namespace smd::analysis
