// The functional stage of a stream-program run.
//
// The stream controller's timing model -- scoreboard, SRF allocator, SDRs
// and the MemSystem pipeline -- reads only addresses and kernel schedules,
// never stream data. So a run's data effects (load copies, kernel runs,
// store and scatter-add writes) trail on a helper thread of their own: the
// controller hands each instruction over as it issues it, and the helper
// applies them in exactly that order -- the order in which a one-thread
// run applies them at issue -- so memory images, kernel outputs and the
// InterpStats census are bit-identical to it.
//
// The helper owns the stream buffers. It frees each buffer after the last
// instruction that touches it, and skips loads whose data nothing reads
// (the per-strip index streams, whose indices the address generators take
// from the op descriptor). Live stream data is thus bounded by the
// modelled SRF rather than by the run's whole traffic; its peak is the
// registry gauge sim.stream_buffer_peak_words.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <thread>
#include <vector>

#include "src/kernel/vm.h"
#include "src/mem/memsys.h"
#include "src/obs/registry.h"
#include "src/sim/config.h"
#include "src/sim/streamop.h"

namespace smd::sim {

/// One run's functional stage: a helper thread that applies the data
/// effects of issued instructions in issue order. Not copyable; one per
/// run, used from the thread that created it.
class DataPath {
 public:
  /// Starts the helper. Its counters go to the registry the creating
  /// thread sees (CounterRegistry::global(), redirect included).
  DataPath(const MachineConfig& cfg, mem::GlobalMemory* memory,
           const StreamProgram& program);
  /// Stops the helper if finish() has not.
  ~DataPath();
  DataPath(const DataPath&) = delete;
  DataPath& operator=(const DataPath&) = delete;

  /// Hand instruction `i` to the helper, after every instruction handed
  /// over before it. Throws the helper's first error once it is known, so
  /// a failing run stops early.
  void issue(int i);

  /// Wait until every issued instruction is applied, stop the helper, set
  /// the peak-buffer gauge and return the kernels' census. Rethrows the
  /// helper's first error: it was issued before anything that failed
  /// after it on the controller's thread.
  kernel::InterpStats finish();

 private:
  void loop();
  void apply(int i);
  void run_kernel(const KernelOp& k);
  kernel::KernelExec& executor_for(const kernel::KernelDef& def);
  void stop();

  const MachineConfig& cfg_;
  mem::GlobalMemory* memory_;
  const StreamProgram& program_;
  obs::CounterRegistry& registry_;

  // Helper-owned state, read by the creator only after join().
  std::vector<std::vector<double>> buffers_;  ///< per StreamId
  /// Per instr: the distinct streams it touches; empty for skipped loads.
  std::vector<std::vector<StreamId>> touched_;
  std::vector<int> touches_left_;  ///< per StreamId, counts touched_
  std::map<const kernel::KernelDef*, kernel::KernelExec> executors_;
  kernel::InterpStats interp_;
  std::int64_t live_words_ = 0;
  std::int64_t peak_words_ = 0;
  /// The helper's first error; the creator reads it once failed_ is set.
  std::exception_ptr error_;

  // Hand-off. order_[k] is the k-th issued instr; state_ holds the issued
  // count shifted left by one, with bit 0 set once the creator closes it.
  std::vector<int> order_;
  std::uint32_t issued_ = 0;  ///< creator-owned copy of the count
  std::atomic<std::uint32_t> state_{0};
  std::atomic<bool> failed_{false};
  std::thread helper_;
};

}  // namespace smd::sim
