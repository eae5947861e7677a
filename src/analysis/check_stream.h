// Static checker for stream-level programs (the second smdcheck pass).
//
// Validates a sim::StreamProgram -- the sequence of stream memory
// operations and kernel invocations the scalar core issues to the stream
// unit -- before the controller executes it, plus a standalone race check
// over a blocking scheme's scatter assignment.
//
// The concurrency model mirrors the stream controller exactly: it executes
// out of order subject to RAW dependences on a slot's producer and WAW/WAR
// dependences on overwrites, so two memory operations with no dependence
// path between them are potentially in flight together. The race detector
// takes the transitive closure of that dependence graph and checks every
// unordered pair of memory operations for address overlap; overlapping
// concurrent updates are legal only when both go through the scatter-add
// units, whose read-modify-write combining is the paper's Section 4
// correctness argument for colliding force updates.
//
// Check-ID catalogue (severity in parentheses; see DESIGN.md):
//   SP001 (error)   stream slot out of range / negative declared capacity
//   SP002 (error)   guaranteed read of a stream slot with no prior producing
//                   load/kernel (consumers that provably never touch the
//                   slot, e.g. a zero-round kernel, are exempt)
//   SP003 (warning) overwrite of a slot whose previous value was never read
//   SP004 (note)    slot produced more than once: consecutive uses serialize
//                   on WAW/WAR dependences (consider a second buffer)
//   SP005 (error)   kernel op with null def or binding arity mismatch
//   SP006 (error)   kernel invoked with negative rounds
//           (warning) ... with zero rounds (prologue only, no body work)
//   SP007 (error)   guaranteed kernel consumption (or production, or memory
//                   transfer size) exceeds the slot's declared capacity
//   SP008 (error)   transfer address range exceeds the memory extent
//   SP009 (error)   gather/scatter index-stream length != n_records
//   SP010 (error)   duplicate target record within one non-combining scatter
//                   (lost update inside a single store)
//   SP011 (error)   write-write address overlap between two potentially
//                   concurrent memory ops outside the scatter-add guarantee
//   SP012 (error)   read-write address overlap between two potentially
//                   concurrent memory ops
//   SP013 (error)   scatter-assignment collision: two lanes of one block
//                   update the same central-force address without the
//                   scatter-add combining guarantee
//   SP014 (note)    scatter-assignment duplicate covered by scatter-add
//   SP015 (error)   declared slot capacity exceeds the whole SRF
//   SP016 (error)   scatter-assignment row out of range
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/diag.h"
#include "src/sim/config.h"
#include "src/sim/streamop.h"

namespace smd::analysis {

struct StreamCheckOptions {
  /// Name used as the diagnostic unit.
  std::string program_name = "stream_program";
  /// SIMD width: plain kernel reads/writes consume one record per cluster.
  int n_clusters = sim::MachineConfig{}.n_clusters;
  /// Global-memory extent in words; 0 disables the SP008 range checks.
  std::int64_t memory_words = 0;
  /// Total SRF capacity in words; 0 disables the SP015 capacity check.
  std::int64_t srf_words = 0;
};

/// Run all stream-program checks; never throws.
Diagnostics check_stream_program(const sim::StreamProgram& program,
                                 const StreamCheckOptions& opts = {});

/// Pre-flight entry point used by the stream controller: counts findings
/// into the global registry under "analysis.stream" and throws
/// CheckFailure when the checker reports errors.
void require_valid_stream_program(const sim::StreamProgram& program,
                                  const StreamCheckOptions& opts = {});

// ---------------------------------------------------------------------------
// Scatter-assignment race check (blocking schemes).
// ---------------------------------------------------------------------------

/// A blocking scheme's interaction assignment, reduced to what the race
/// check needs: for every block (one kernel round of a central group), the
/// central-force row each SIMD lane updates. Padding lanes point at the
/// trash row, which is a designated sink and exempt from collision checks.
struct ScatterAssignment {
  std::string name = "scatter_assignment";
  std::int64_t n_rows = 0;      ///< addressable force rows (incl. trash)
  std::int64_t trash_row = -1;  ///< padding sink; -1 = none
  /// True when the writeback goes through the scatter-add units, whose
  /// memory-side combining serializes colliding updates.
  bool combining = true;
  /// Word address of force row 0 and words per row, for naming the
  /// concrete colliding address in diagnostics.
  std::uint64_t base = 0;
  int record_words = 9;
  /// blocks x lanes: the force row each lane of each block updates.
  std::vector<std::vector<std::int64_t>> block_rows;
};

/// Prove the assignment collision-free (or report each colliding
/// (block, address) pair). Duplicates under `combining` are reported as
/// SP014 notes so the reliance on the scatter-add unit stays visible.
Diagnostics check_scatter_assignment(const ScatterAssignment& assignment);

}  // namespace smd::analysis
