// Hand-built malformed kernels, shared by analysis_test (one golden
// diagnostic per kernel) and kernel_golden_test (digests of the full
// verifier output for each).
//
// Kernels are built by hand, not through KernelBuilder, whose build()
// runs the verifier, so each one isolates exactly one defect: every
// kernel below is skeleton() with one aspect mutated. The kernels are
// part of the kernel_golden_test digests: changing one changes its
// recorded digest.
#pragma once

#include <string>
#include <vector>

#include "src/kernel/ir.h"

namespace smd::malformed {

using kernel::Instr;
using kernel::KernelDef;
using kernel::Opcode;
using kernel::StreamDir;

/// Minimal well-formed skeleton: one input, one output, body copies a
/// record through.
inline KernelDef skeleton() {
  KernelDef k;
  k.name = "malformed";
  k.n_regs = 8;
  k.streams.push_back({"x", StreamDir::kIn, 1, false});
  k.streams.push_back({"y", StreamDir::kOut, 1, false});
  k.body.push_back({Opcode::kRead, /*dst=*/0, -1, -1, -1, /*stream=*/0, 1});
  k.body.push_back({Opcode::kWrite, -1, /*a=*/0, -1, -1, /*stream=*/1, 1});
  return k;
}

/// IR001: a mov reads register 99 of 8.
inline KernelDef register_out_of_range() {
  KernelDef k = skeleton();
  k.body.insert(k.body.begin() + 1, {Opcode::kMov, /*dst=*/7, /*a=*/99});
  return k;
}

/// IR002: the read names slot 3; only slots 0 and 1 are declared.
inline KernelDef stream_slot_out_of_range() {
  KernelDef k = skeleton();
  k.body[0].stream = 3;
  return k;
}

/// IR003: register 5 is never defined anywhere but feeds the sum.
inline KernelDef undefined_source() {
  KernelDef k = skeleton();
  k.body.insert(k.body.begin() + 1,
                {Opcode::kAdd, /*dst=*/1, /*a=*/0, /*b=*/5});
  return k;
}

/// IR005: the read targets the output decl.
inline KernelDef read_of_output_stream() {
  KernelDef k = skeleton();
  k.body[0].stream = 1;
  return k;
}

/// IR006: the read moves 2 words; the decl says 1 word per record.
inline KernelDef count_mismatch() {
  KernelDef k = skeleton();
  k.body[0].count = 2;
  return k;
}

/// IR007: a conditional read of a plain decl.
inline KernelDef conditional_access_of_plain_decl() {
  KernelDef k = skeleton();
  k.prologue.push_back({Opcode::kConst, /*dst=*/4});  // predicate
  k.body[0] = {Opcode::kReadCond, /*dst=*/0, -1, -1, /*c=*/4, /*stream=*/0, 1};
  return k;
}

/// IR008: a plain read of a conditional decl.
inline KernelDef plain_access_of_conditional_decl() {
  KernelDef k = skeleton();
  k.streams[0].conditional = true;
  return k;
}

/// IR009: predicate register 4 is never defined, so the SIMD clusters
/// cannot evaluate the condition.
inline KernelDef undefined_predicate() {
  KernelDef k = skeleton();
  k.streams[0].conditional = true;
  k.body[0] = {Opcode::kReadCond, /*dst=*/0, -1, -1, /*c=*/4, /*stream=*/0, 1};
  return k;
}

/// IR010: two broadcast reads of one stream in the body.
inline KernelDef double_broadcast() {
  KernelDef k = skeleton();
  k.body[0].op = Opcode::kReadBcast;
  k.body.insert(k.body.begin() + 1,
                Instr{Opcode::kReadBcast, /*dst=*/1, -1, -1, -1,
                      /*stream=*/0, 1});
  return k;
}

/// IR011: a read of zero words.
inline KernelDef zero_count() {
  KernelDef k = skeleton();
  k.body[0].count = 0;
  return k;
}

/// IR012: register 2 is computed but feeds nothing.
inline KernelDef dead_write() {
  KernelDef k = skeleton();
  k.body.insert(k.body.begin() + 1,
                Instr{Opcode::kAdd, /*dst=*/2, /*a=*/0, /*b=*/0});
  return k;
}

/// IR013: a declared stream no instruction accesses.
inline KernelDef unused_stream() {
  KernelDef k = skeleton();
  k.streams.push_back({"ghost", StreamDir::kIn, 1, false});
  return k;
}

/// IR014: block_len 0.
inline KernelDef zero_block_len() {
  KernelDef k = skeleton();
  k.block_len = 0;
  return k;
}

/// LRF bound under which six_live_sums() overflows.
constexpr int kTinyLrfWords = 4;

/// IR015 and IR022 under kTinyLrfWords: six sums live at once, then
/// reduced into register 7 and written out.
inline KernelDef six_live_sums() {
  KernelDef k = skeleton();
  for (int r = 1; r <= 6; ++r) {
    k.body.insert(k.body.begin() + 1,
                  Instr{Opcode::kAdd, /*dst=*/r, /*a=*/0, /*b=*/0});
  }
  k.body.insert(k.body.end() - 1,
                Instr{Opcode::kAdd, /*dst=*/7, /*a=*/1, /*b=*/2});
  for (int r = 3; r <= 6; ++r) {
    k.body.insert(k.body.end() - 1,
                  Instr{Opcode::kAdd, /*dst=*/7, /*a=*/7, /*b=*/r});
  }
  k.body.back().a = 7;  // write out the sum
  return k;
}

/// IR017: r2 is defined at body[1] and overwritten at body[2] before any
/// use; the second definition IS consumed, so this is a dead instance of
/// a used register, not IR012.
inline KernelDef overwritten_definition() {
  KernelDef k = skeleton();
  k.body.insert(k.body.begin() + 1,
                Instr{Opcode::kAdd, /*dst=*/2, /*a=*/0, /*b=*/0});
  k.body.insert(k.body.begin() + 2,
                Instr{Opcode::kSub, /*dst=*/2, /*a=*/0, /*b=*/0});
  k.body.back().a = 2;  // write r2
  return k;
}

/// IR018: body[2] recomputes body[1]'s sum, still held in register 2.
inline KernelDef recomputation() {
  KernelDef k = skeleton();
  k.n_regs = 16;
  k.body.insert(k.body.begin() + 1,
                Instr{Opcode::kAdd, /*dst=*/2, /*a=*/0, /*b=*/0});
  k.body.insert(k.body.begin() + 2,
                Instr{Opcode::kAdd, /*dst=*/3, /*a=*/0, /*b=*/0});  // dup
  k.body.insert(k.body.begin() + 3,
                Instr{Opcode::kMul, /*dst=*/4, /*a=*/2, /*b=*/3});
  k.body.back().a = 4;
  return k;
}

/// IR019: an add of two constants in the body.
inline KernelDef foldable_add() {
  KernelDef k = skeleton();
  Instr cst{Opcode::kConst, /*dst=*/1};
  cst.imm = 2.0;
  k.body.insert(k.body.begin() + 1, cst);
  k.body.insert(k.body.begin() + 2,
                Instr{Opcode::kAdd, /*dst=*/2, /*a=*/1, /*b=*/1});
  k.body.back().a = 2;
  return k;
}

/// IR020: a mov of a mov.
inline KernelDef copy_of_copy() {
  KernelDef k = skeleton();
  k.body.insert(k.body.begin() + 1, Instr{Opcode::kMov, /*dst=*/1, /*a=*/0});
  k.body.insert(k.body.begin() + 2, Instr{Opcode::kMov, /*dst=*/2, /*a=*/1});
  k.body.back().a = 2;
  return k;
}

/// IR021: a read of two words nothing uses.
inline KernelDef unused_read() {
  KernelDef k = skeleton();
  k.streams.push_back({"junk", StreamDir::kIn, 2, false});
  k.body.insert(k.body.begin() + 1,
                Instr{Opcode::kRead, /*dst=*/4, -1, -1, -1, /*stream=*/2, 2});
  return k;
}

/// IR023: predicate r0 lies inside the destination range [0, 1), so a
/// taken read destroys the predicate the untaken clusters still carry.
inline KernelDef self_overwriting_read() {
  KernelDef k = skeleton();
  k.streams[0].conditional = true;
  k.prologue.push_back({Opcode::kConst, /*dst=*/0});
  k.body[0] = {Opcode::kReadCond, /*dst=*/0, -1, -1, /*c=*/0, /*stream=*/0, 1};
  return k;
}

/// IR024: the predicate is the constant 1.0.
inline KernelDef constant_predicate() {
  KernelDef k = skeleton();
  k.streams[0].conditional = true;
  Instr pred{Opcode::kConst, /*dst=*/4};
  pred.imm = 1.0;
  k.prologue.push_back(pred);
  k.body[0] = {Opcode::kReadCond, /*dst=*/0, -1, -1, /*c=*/4, /*stream=*/0, 1};
  return k;
}

/// One malformed kernel and the LRF bound it is verified under.
struct Case {
  std::string name;
  KernelDef def;
  int lrf_words = 768;
};

/// Every kernel above, in check-ID order.
inline std::vector<Case> cases() {
  return {
      {"register_out_of_range", register_out_of_range()},
      {"stream_slot_out_of_range", stream_slot_out_of_range()},
      {"undefined_source", undefined_source()},
      {"read_of_output_stream", read_of_output_stream()},
      {"count_mismatch", count_mismatch()},
      {"conditional_access_of_plain_decl", conditional_access_of_plain_decl()},
      {"plain_access_of_conditional_decl", plain_access_of_conditional_decl()},
      {"undefined_predicate", undefined_predicate()},
      {"double_broadcast", double_broadcast()},
      {"zero_count", zero_count()},
      {"dead_write", dead_write()},
      {"unused_stream", unused_stream()},
      {"zero_block_len", zero_block_len()},
      {"six_live_sums", six_live_sums(), kTinyLrfWords},
      {"overwritten_definition", overwritten_definition()},
      {"recomputation", recomputation()},
      {"foldable_add", foldable_add()},
      {"copy_of_copy", copy_of_copy()},
      {"unused_read", unused_read()},
      {"self_overwriting_read", self_overwriting_read()},
      {"constant_predicate", constant_predicate()},
  };
}

}  // namespace smd::malformed
