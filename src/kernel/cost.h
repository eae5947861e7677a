// Per-operation cost model for the Merrimac arithmetic cluster.
//
// Each cluster has 4 fully pipelined 64-bit multiply-add (MADD) FPUs.
// Divides and square roots have no dedicated unit: they are iterative
// Newton-Raphson sequences executed on a MADD FPU, occupying it for several
// consecutive issue slots ("divides and square-roots are computed
// iteratively and require several operations", Section 5.1). This is the
// reason sustained "solution" GFLOPS is far below the 128 GFLOPS peak.
//
// MOV/CONST are handled by the intra-cluster switch and preloaded
// microcode immediates; they cost no FPU slot.
#pragma once

#include "src/kernel/ir.h"

namespace smd::kernel {

struct OpCost {
  int fpu_slots;  ///< consecutive issue slots on one FPU (0 = no FPU use)
  int latency;    ///< cycles until the result may be consumed
};

constexpr OpCost op_cost(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kMadd:
    case Opcode::kMsub:
      return {1, 4};
    case Opcode::kCmpEq:
    case Opcode::kCmpLt:
      return {1, 2};
    case Opcode::kSel:
      return {1, 1};
    case Opcode::kDiv:
      // Double-precision Newton-Raphson reciprocal: seed + 4 iterations
      // (the MADD datapath has no wide seed table) + rounding fix-up.
      return {14, 20};
    case Opcode::kSqrt:
    case Opcode::kRsqrt:
      // Double-precision reciprocal square root: seed + 4 NR iterations of
      // 3 fused ops + correction.
      return {16, 24};
    case Opcode::kConst:
    case Opcode::kMov:
      return {0, 1};
    case Opcode::kRead:
    case Opcode::kReadCond:
      return {0, 3};    // SRF access; bandwidth modeled separately
    case Opcode::kReadBcast:
      return {0, 4};    // SRF access + inter-cluster switch traversal
    case Opcode::kWrite:
    case Opcode::kWriteCond:
      return {0, 1};
  }
  return {1, 1};
}

constexpr bool is_stream_read(Opcode op) {
  return op == Opcode::kRead || op == Opcode::kReadCond ||
         op == Opcode::kReadBcast;
}

constexpr bool is_stream_op(Opcode op) {
  return is_stream_read(op) || op == Opcode::kWrite ||
         op == Opcode::kWriteCond;
}

constexpr bool is_conditional_stream_op(Opcode op) {
  return op == Opcode::kReadCond || op == Opcode::kWriteCond;
}

}  // namespace smd::kernel
