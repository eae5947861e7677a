#include "src/obs/registry.h"

namespace smd::obs {
namespace {

thread_local CounterRegistry* tls_redirect = nullptr;

}  // namespace

Json CounterRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::object();
  for (const auto& [name, value] : counters_) counters.set(name, value);
  Json gauges = Json::object();
  for (const auto& [name, value] : gauges_) gauges.set(name, value);
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  return out;
}

CounterRegistry& CounterRegistry::global() {
  return tls_redirect != nullptr ? *tls_redirect : process();
}

CounterRegistry& CounterRegistry::process() {
  static CounterRegistry reg;
  return reg;
}

ScopedRegistryRedirect::ScopedRegistryRedirect(CounterRegistry& target)
    : prev_(tls_redirect) {
  tls_redirect = &target;
}

ScopedRegistryRedirect::~ScopedRegistryRedirect() { tls_redirect = prev_; }

}  // namespace smd::obs
