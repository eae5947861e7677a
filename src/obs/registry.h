// Named counter/gauge registry with RAII scoped timers.
//
// Any module can bump a counter by name without threading a stats struct
// through its API; the bench binaries and streammd_cli snapshot the global
// registry into their JSON records so every run carries the full counter
// census alongside the headline metrics.
//
// Threading model: every method is internally synchronized, so concurrent
// simulations (the tune::Runner and svc::Server worker pools) write the
// same registry safely; counters and ".seconds" gauges add, so their
// totals do not depend on which thread wrote first. To keep a run's
// counters out of the shared registry (the lockstep engine's shadow run),
// a thread can redirect its own view of global() to a private registry
// with ScopedRegistryRedirect.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/obs/json.h"

namespace smd::obs {

class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Monotonic event counts ("sim.kernel_launches").
  void add(const std::string& name, std::int64_t delta = 1) {
    const std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += delta;
  }
  std::int64_t counter(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Last-value measurements ("sim.srf_peak_words").
  void set_gauge(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    gauges_[name] = value;
  }
  double gauge(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }

  /// Timer accumulation: `<name>.seconds` gauge grows by `s`,
  /// `<name>.calls` counter by one. Used by ScopedTimer.
  void add_seconds(const std::string& name, double s) {
    const std::lock_guard<std::mutex> lock(mu_);
    gauges_[name + ".seconds"] += s;
    counters_[name + ".calls"] += 1;
  }

  bool empty() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return counters_.empty() && gauges_.empty();
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
  }

  /// {"counters": {...}, "gauges": {...}} with keys in sorted order.
  Json to_json() const;

  /// The registry the simulator's hooks write to: the calling thread's
  /// ScopedRegistryRedirect target if one is active, else the process-wide
  /// registry (process()).
  static CounterRegistry& global();
  /// The process-wide registry, ignoring any thread-local redirect.
  static CounterRegistry& process();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
};

/// While alive, CounterRegistry::global() on *this thread* resolves to the
/// given registry instead of the process-wide one. Nests (the previous
/// redirect is restored on destruction). The redirect is thread-local: it
/// never affects other threads.
class ScopedRegistryRedirect {
 public:
  explicit ScopedRegistryRedirect(CounterRegistry& target);
  ScopedRegistryRedirect(const ScopedRegistryRedirect&) = delete;
  ScopedRegistryRedirect& operator=(const ScopedRegistryRedirect&) = delete;
  ~ScopedRegistryRedirect();

 private:
  CounterRegistry* prev_;
};

/// Accumulates wall-clock time spent in a scope into a registry timer.
class ScopedTimer {
 public:
  ScopedTimer(CounterRegistry& reg, std::string name)
      : reg_(reg), name_(std::move(name)),
        t0_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    reg_.add_seconds(name_, std::chrono::duration<double>(dt).count());
  }

 private:
  CounterRegistry& reg_;
  std::string name_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace smd::obs
