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
// microcode immediates; they cost no FPU slot. The numbers are rows of
// kOpTable (ir.h); the functions below read them.
#pragma once

#include "src/kernel/ir.h"

namespace smd::kernel {

constexpr OpCost op_cost(Opcode op) { return op_info(op).cost; }

constexpr bool is_stream_read(Opcode op) {
  const StreamAccess s = op_info(op).stream;
  return s == StreamAccess::kRead || s == StreamAccess::kBcastRead;
}

constexpr bool is_stream_op(Opcode op) {
  return op_info(op).stream != StreamAccess::kNone;
}

constexpr bool is_conditional_stream_op(Opcode op) {
  return op_info(op).conditional;
}

}  // namespace smd::kernel
