#include "src/sim/config.h"

#include <stdexcept>
#include <string>

namespace smd::sim {
namespace {

analysis::Location machine_loc() { return {"machine", "config", -1}; }

}  // namespace

const char* engine_name(SimEngine e) {
  switch (e) {
    case SimEngine::kStepped: return "stepped";
    case SimEngine::kEvent: return "event";
    case SimEngine::kLockstep: return "lockstep";
  }
  return "unknown";
}

const char* sdr_policy_name(SdrPolicy p) {
  return p == SdrPolicy::kConservative ? "conservative" : "transfer-scoped";
}

SimEngine parse_engine(const std::string& name) {
  if (name == "stepped") return SimEngine::kStepped;
  if (name == "event") return SimEngine::kEvent;
  if (name == "lockstep") return SimEngine::kLockstep;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (want stepped|event|lockstep)");
}

analysis::Diagnostics MachineConfig::validate() const {
  analysis::Diagnostics d;
  const analysis::Location loc = machine_loc();

  if (n_clusters <= 0) {
    d.error("MC001", loc,
            "n_clusters must be positive, got " + std::to_string(n_clusters));
  }
  if (sched.n_fpus <= 0) {
    d.error("MC002", loc, "sched.n_fpus must be positive, got " +
                              std::to_string(sched.n_fpus));
  }
  if (clock_ghz <= 0.0) {
    d.error("MC003", loc,
            "clock_ghz must be positive, got " + std::to_string(clock_ghz));
  }
  if (srf_words <= 0) {
    d.error("MC004", loc,
            "srf_words must be positive, got " + std::to_string(srf_words));
  }
  if (lrf_words_per_cluster <= 0) {
    d.error("MC005", loc, "lrf_words_per_cluster must be positive, got " +
                              std::to_string(lrf_words_per_cluster));
  }
  if (n_stream_descriptor_registers < 1) {
    d.error("MC006", loc,
            "need at least one stream descriptor register, got " +
                std::to_string(n_stream_descriptor_registers));
  } else if (n_stream_descriptor_registers < 2) {
    d.warn("MC106", loc,
           "a single SDR serializes every transfer (no memory/compute "
           "overlap is possible)");
  }
  if (sched.srf_words_per_cycle <= 0) {
    d.error("MC007", loc,
            "sched.srf_words_per_cycle must be positive, got " +
                std::to_string(sched.srf_words_per_cycle));
  }
  if (kernel_startup_cycles < 0) {
    d.error("MC008", loc, "kernel_startup_cycles must be non-negative, got " +
                              std::to_string(kernel_startup_cycles));
  }

  // Memory system.
  if (mem.dram.n_channels <= 0 || mem.dram.channel_words_per_cycle <= 0.0) {
    d.error("MC009", loc,
            "DRAM bandwidth must be positive (" +
                std::to_string(mem.dram.n_channels) + " channels x " +
                std::to_string(mem.dram.channel_words_per_cycle) +
                " words/cycle)");
  }
  if (mem.cache.n_banks <= 0 || mem.cache.line_words <= 0 ||
      mem.cache.total_words <= 0 || mem.cache.associativity <= 0) {
    d.error("MC010", loc, "stream cache geometry must be positive "
                          "(banks/line_words/total_words/associativity)");
  } else if (mem.cache.total_words <
             static_cast<std::int64_t>(mem.cache.n_banks) *
                 mem.cache.associativity * mem.cache.line_words) {
    d.error("MC010", loc,
            "stream cache smaller than one set per bank (total_words " +
                std::to_string(mem.cache.total_words) + ")");
  }
  if (mem.n_address_generators <= 0 || mem.addrs_per_generator <= 0) {
    d.error("MC011", loc, "address generator throughput must be positive");
  }
  if (mem.scatter_add.latency < 1 || mem.scatter_add.combining_entries < 1) {
    d.error("MC012", loc, "scatter-add unit configuration must be positive");
  }
  // The memory system sizes its per-bank rings and MSHR tables by these
  // capacities: a zero-capacity queue never accepts a request (the run
  // spins until the deadlock detector fires) and a zero-word DRAM row
  // divides by zero. A negative latency wraps the unsigned completion-time
  // arithmetic and puts finish times in the past.
  const struct {
    const char* field;
    std::int64_t value;
    std::int64_t min;
  } minimums[] = {
      {"mem.cache.bank_queue_depth", mem.cache.bank_queue_depth, 1},
      {"mem.cache.mshrs_per_bank", mem.cache.mshrs_per_bank, 1},
      {"mem.dram.read_queue_depth", mem.dram.read_queue_depth, 1},
      {"mem.dram.row_words", mem.dram.row_words, 1},
      {"mem.cache.hit_latency", mem.cache.hit_latency, 0},
      {"mem.dram.access_latency", mem.dram.access_latency, 0},
  };
  for (const auto& c : minimums) {
    if (c.value < c.min) {
      d.error("MC016", loc,
              std::string(c.field) + " must be >= " + std::to_string(c.min) +
                  ", got " + std::to_string(c.value));
    }
  }

  // Kernel scheduler options.
  if (sched.cond_units <= 0) {
    d.error("MC013", loc, "sched.cond_units must be positive, got " +
                              std::to_string(sched.cond_units));
  }
  if (sched.unroll < 1 || sched.max_ii < 1) {
    d.error("MC014", loc, "schedule unroll and max_ii must be >= 1");
  }

  // Double-buffering floor: the software-pipelined execution of Figure 5
  // needs the SRF to hold at least two in-flight strips on both the input
  // and the output side, i.e. ~4 records (position-record sized, 16 words
  // with headroom) per cluster. Below that every transfer serializes and
  // the SRF allocator livelocks on real programs.
  if (n_clusters > 0 && srf_words > 0) {
    const std::int64_t floor_words = 4LL * 16 * n_clusters;
    if (srf_words < floor_words) {
      d.error("MC015", loc,
              "SRF too small to double-buffer strips: " +
                  std::to_string(srf_words) + " words < " +
                  std::to_string(floor_words) + " (4 records x 16 words x " +
                  std::to_string(n_clusters) + " clusters)");
    }
  }
  return d;
}

}  // namespace smd::sim
