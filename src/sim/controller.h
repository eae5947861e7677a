// Stream controller: the out-of-order scoreboard of the stream unit.
//
// The scalar core enqueues the whole stream program; the controller starts
// each stream instruction as soon as
//   * all producing instructions of the streams it reads have completed,
//   * an SDR (stream descriptor register) is free (memory ops),
//   * SRF space is available for the buffers it produces, and
//   * the cluster array is idle (kernels -- one kernel runs at a time).
//
// This is what produces the software-pipelined execution of Figure 5: while
// a kernel runs, the memory system gathers the next strip and scatters the
// previous strip's results. The SDR allocation policy switch reproduces
// Figure 7's before/after overlap behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/interp.h"
#include "src/mem/memsys.h"
#include "src/sim/config.h"
#include "src/sim/kernelexec.h"
#include "src/sim/srf.h"
#include "src/sim/streamop.h"
#include "src/sim/trace.h"

namespace smd::sim {

/// Aggregate statistics from one stream-program run.
struct RunStats {
  std::uint64_t cycles = 0;
  kernel::InterpStats interp;        ///< functional execution census
  std::uint64_t kernel_busy_cycles = 0;
  std::uint64_t mem_busy_cycles = 0;
  std::uint64_t overlap_cycles = 0;
  std::int64_t mem_words = 0;        ///< words moved SRF <-> memory
  std::int64_t srf_peak_words = 0;
  int n_kernel_launches = 0;
  int n_memory_ops = 0;
  std::uint64_t sdr_stall_cycles = 0;  ///< memory ops ready but no SDR
  mem::MemSystemStats mem_stats;
  mem::CacheStats cache_stats;
  mem::DramStats dram_stats;
  mem::ScatterAddStats scatter_add_stats;
  Timeline timeline;

  double seconds(double clock_ghz) const {
    return static_cast<double>(cycles) / (clock_ghz * 1e9);
  }
};

/// Every counter, the nested stats structs, the derived fractions and a
/// timeline summary -- the run record of bench JSON and --json outputs.
obs::Json to_json(const RunStats& s);

/// The tree the bit-identity gates compare: to_json, whose timeline entry
/// is only a summary, with every timeline interval added under
/// timeline.intervals.
obs::Json gated_json(const RunStats& s);

/// Comparison of two runs: obs::diff over gated_json, so "" exactly when
/// every field to_json emits and every interval agree, else the first
/// mismatching paths. This is the equivalence oracle behind
/// SimEngine::kLockstep and the lockstep ctest.
std::string diff_run_stats(const RunStats& a, const RunStats& b);

/// Executes a StreamProgram against a memory image, cycle by cycle.
class Controller {
 public:
  Controller(const MachineConfig& cfg, mem::GlobalMemory* memory);

  /// Run to completion; returns statistics. Throws on deadlock (program
  /// bug: dependence cycle or SRF overcommit).
  RunStats run(const StreamProgram& program);

 private:
  const MachineConfig& cfg_;
  mem::GlobalMemory* memory_;
};

}  // namespace smd::sim
