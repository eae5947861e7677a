// Machine configuration -- the paper's Table 1.
//
//   Number of stream cache banks            8
//   Number of scatter-add units per bank    1
//   Latency of scatter-add functional unit  4
//   Number of combining store entries       8
//   Number of DRAM interface channels       8
//   Number of address generators            2
//   Operating frequency                     1 GHz
//   Peak DRAM bandwidth                     38.4 GB/s
//   Stream cache bandwidth                  64 GB/s
//   Number of clusters                      16
//   Peak floating point operations/cycle    128 (64 MADD FPUs)
//   SRF bandwidth                           512 GB/s (4 words/cycle/cluster)
//   SRF size                                1 MB
//   Stream cache size                       1 MB
#pragma once

#include <string>

#include "src/analysis/diag.h"
#include "src/kernel/schedule.h"
#include "src/kernel/vm.h"
#include "src/mem/memsys.h"

namespace smd::sim {

/// Policy for allocating/releasing stream descriptor registers (SDRs) --
/// the "low-level hardware register which holds a mapping between an active
/// stream in the SRF and its corresponding memory address" of Section 4.2.
enum class SdrPolicy {
  /// The original flawed allocation: an SDR stays bound to a loaded stream
  /// until the kernel that consumes it retires, so later transfers cannot
  /// start and memory serializes behind compute (Figure 7a).
  kConservative,
  /// The fixed allocation: the SDR is held only for the duration of the
  /// transfer itself, giving perfect memory/compute overlap (Figure 7b).
  kTransferScoped,
};

/// Which simulation core Controller::run uses. Both engines produce
/// bit-identical RunStats (cycle counts, every attribution bucket, every
/// timeline interval) -- the event-driven core is simply faster, advancing
/// time in jumps between retirement events instead of busy-waiting one
/// cycle at a time. kLockstep runs both and throws on any field mismatch;
/// it is the cross-check mode wired into ctest (see DESIGN.md section 10).
enum class SimEngine {
  kStepped,   ///< original cycle-stepped busy-wait loop
  kEvent,     ///< event-driven ready-list core (default)
  kLockstep,  ///< run both, assert bit-identical stats, return the result
};

const char* engine_name(SimEngine e);
/// "conservative" | "transfer-scoped": the name reports and baselines use.
const char* sdr_policy_name(SdrPolicy p);
/// Parse "stepped" | "event" | "lockstep" (throws std::invalid_argument).
SimEngine parse_engine(const std::string& name);

struct MachineConfig {
  int n_clusters = 16;
  int fpus_per_cluster = 4;
  double clock_ghz = 1.0;
  int lrf_words_per_cluster = 768;
  std::int64_t srf_words = 131072;  ///< 1 MB
  int srf_words_per_cycle_per_cluster = 4;

  mem::MemSystemConfig mem;

  int n_stream_descriptor_registers = 8;
  SdrPolicy sdr_policy = SdrPolicy::kTransferScoped;
  SimEngine engine = SimEngine::kEvent;
  /// Functional kernel executor (interp | vm | lockstep). Both backends
  /// are bit-identical (DESIGN.md section 17); the VM is faster and is
  /// the default. kLockstep runs both and throws on any divergence.
  kernel::KernelBackend kernel_backend = kernel::KernelBackend::kVm;

  /// Scalar-core + microcontroller overhead to launch a kernel and prime
  /// its software pipeline (Section 5.1 lists this among the reasons for
  /// sub-optimal sustained performance).
  int kernel_startup_cycles = 100;
  /// Scalar-core overhead to issue one stream memory instruction.
  int stream_issue_cycles = 4;

  kernel::ScheduleOptions sched;

  /// Peak double-precision GFLOPS (MADD counts 2 flops).
  double peak_gflops() const {
    return n_clusters * fpus_per_cluster * 2.0 * clock_ghz;
  }

  /// Structured sanity checks over the configuration (check IDs MC001..;
  /// catalogue in DESIGN.md "Static checking"): non-positive cluster/FPU/
  /// bandwidth counts, an SRF too small to double-buffer strips, and so
  /// on. Controller::run calls this before executing a program and throws
  /// analysis::CheckFailure on errors, so nonsense overrides (e.g. from a
  /// tune sweep) fail at the front door instead of deep inside the memory
  /// model. Tuner/CLI callers can validate ahead of time.
  analysis::Diagnostics validate() const;

  /// The paper's single-node Merrimac configuration.
  static MachineConfig merrimac() {
    MachineConfig cfg;
    cfg.sched.n_fpus = cfg.fpus_per_cluster;
    cfg.sched.srf_words_per_cycle = cfg.srf_words_per_cycle_per_cluster;
    cfg.sched.unroll = 2;
    cfg.sched.software_pipeline = true;
    return cfg;
  }
};

}  // namespace smd::sim
