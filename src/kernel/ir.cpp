#include "src/kernel/ir.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/analysis/verify_ir.h"

namespace smd::kernel {

FlopCensus& FlopCensus::operator+=(const FlopCensus& o) {
  flops += o.flops;
  divides += o.divides;
  square_roots += o.square_roots;
  fpu_ops += o.fpu_ops;
  words_read += o.words_read;
  words_written += o.words_written;
  return *this;
}

obs::Json to_json(const FlopCensus& c) {
  obs::Json j = obs::Json::object();
  j.set("flops", c.flops)
      .set("divides", c.divides)
      .set("square_roots", c.square_roots)
      .set("fpu_ops", c.fpu_ops)
      .set("words_read", c.words_read)
      .set("words_written", c.words_written);
  return j;
}

FlopCensus instr_census(const Instr& in) {
  const OpInfo& info = op_info(in.op);
  FlopCensus c;
  c.flops = info.flops;
  c.divides = info.divides;
  c.square_roots = info.square_roots;
  c.fpu_ops = info.cost.fpu_slots > 0 ? 1 : 0;
  // For kReadBcast this is the per-iteration SRF traffic; the record is
  // fanned out to all clusters by the switch, not re-read.
  if (info.stream == StreamAccess::kWrite) {
    c.words_written = in.count;
  } else if (info.stream != StreamAccess::kNone) {
    c.words_read = in.count;
  }
  return c;
}

FlopCensus KernelDef::body_census() const {
  FlopCensus c;
  for (const auto& in : body) c += instr_census(in);
  return c;
}

RegOperands reg_operands(const Instr& in) {
  const OpInfo& info = op_info(in.op);
  RegOperands o;
  const int srcs[] = {in.a, in.b, in.c};
  o.srcs.assign(srcs, srcs + info.n_srcs);
  if (info.conditional) o.pred = in.c;
  auto words = [&](int base) {
    std::vector<int> w(static_cast<std::size_t>(std::max(in.count, 0)));
    std::iota(w.begin(), w.end(), base);
    return w;
  };
  switch (info.stream) {
    case StreamAccess::kNone:
      o.defs = {in.dst};
      break;
    case StreamAccess::kRead:
    case StreamAccess::kBcastRead:
      o.defs = words(in.dst);
      if (info.conditional) o.kept = o.defs;
      break;
    case StreamAccess::kWrite:
      o.srcs = words(in.a);
      break;
  }
  return o;
}

KernelBuilder::KernelBuilder(std::string name) { def_.name = std::move(name); }

int KernelBuilder::stream_in(const std::string& name, int record_words,
                             bool conditional) {
  def_.streams.push_back({name, StreamDir::kIn, record_words, conditional});
  return static_cast<int>(def_.streams.size()) - 1;
}

int KernelBuilder::stream_out(const std::string& name, int record_words,
                              bool conditional) {
  def_.streams.push_back({name, StreamDir::kOut, record_words, conditional});
  return static_cast<int>(def_.streams.size()) - 1;
}

void KernelBuilder::block_len(int l) { def_.block_len = l; }

KernelBuilder::Reg KernelBuilder::alloc() { return {def_.n_regs++}; }

std::vector<KernelBuilder::Reg> KernelBuilder::alloc_n(int n) {
  std::vector<Reg> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(alloc());
  return v;
}

void KernelBuilder::emit(Instr in) {
  switch (section_) {
    case Section::kPrologue: def_.prologue.push_back(in); break;
    case Section::kOuterPre: def_.outer_pre.push_back(in); break;
    case Section::kBody: def_.body.push_back(in); break;
    case Section::kOuterPost: def_.outer_post.push_back(in); break;
  }
}

KernelBuilder::Reg KernelBuilder::constant(double v) {
  Reg r = alloc();
  emit({.op = Opcode::kConst, .dst = r.idx, .imm = v});
  return r;
}

KernelBuilder::Reg KernelBuilder::mov(Reg a) {
  Reg r = alloc();
  mov_to(r, a);
  return r;
}

void KernelBuilder::mov_to(Reg dst, Reg a) {
  emit({.op = Opcode::kMov, .dst = dst.idx, .a = a.idx});
}

#define SMD_BINOP(fn, opc)                                  \
  KernelBuilder::Reg KernelBuilder::fn(Reg a, Reg b) {      \
    Reg r = alloc();                                        \
    emit({.op = Opcode::opc, .dst = r.idx, .a = a.idx, .b = b.idx}); \
    return r;                                               \
  }

SMD_BINOP(add, kAdd)
SMD_BINOP(sub, kSub)
SMD_BINOP(mul, kMul)
SMD_BINOP(div, kDiv)
SMD_BINOP(cmp_eq, kCmpEq)
SMD_BINOP(cmp_lt, kCmpLt)
#undef SMD_BINOP

void KernelBuilder::add_to(Reg dst, Reg a, Reg b) {
  emit({.op = Opcode::kAdd, .dst = dst.idx, .a = a.idx, .b = b.idx});
}

KernelBuilder::Reg KernelBuilder::madd(Reg a, Reg b, Reg c) {
  Reg r = alloc();
  madd_to(r, a, b, c);
  return r;
}

void KernelBuilder::madd_to(Reg dst, Reg a, Reg b, Reg c) {
  emit({.op = Opcode::kMadd, .dst = dst.idx, .a = a.idx, .b = b.idx, .c = c.idx});
}

KernelBuilder::Reg KernelBuilder::msub(Reg a, Reg b, Reg c) {
  Reg r = alloc();
  emit({.op = Opcode::kMsub, .dst = r.idx, .a = a.idx, .b = b.idx, .c = c.idx});
  return r;
}

KernelBuilder::Reg KernelBuilder::sqrt(Reg a) {
  Reg r = alloc();
  emit({.op = Opcode::kSqrt, .dst = r.idx, .a = a.idx});
  return r;
}

KernelBuilder::Reg KernelBuilder::rsqrt(Reg a) {
  Reg r = alloc();
  emit({.op = Opcode::kRsqrt, .dst = r.idx, .a = a.idx});
  return r;
}

KernelBuilder::Reg KernelBuilder::sel(Reg pred, Reg a, Reg b) {
  Reg r = alloc();
  sel_to(r, pred, a, b);
  return r;
}

void KernelBuilder::sel_to(Reg dst, Reg pred, Reg a, Reg b) {
  emit({.op = Opcode::kSel, .dst = dst.idx, .a = a.idx, .b = b.idx, .c = pred.idx});
}

std::vector<KernelBuilder::Reg> KernelBuilder::read(int stream, int n) {
  auto regs = alloc_n(n);
  read_to(stream, regs.front(), n);
  return regs;
}

void KernelBuilder::read_to(int stream, Reg base, int n) {
  emit({.op = Opcode::kRead, .dst = base.idx, .stream = stream, .count = n});
}

void KernelBuilder::read_cond_to(int stream, Reg base, int n, Reg pred) {
  emit({.op = Opcode::kReadCond, .dst = base.idx, .c = pred.idx,
        .stream = stream, .count = n});
}

void KernelBuilder::read_bcast_to(int stream, Reg base, int n) {
  emit({.op = Opcode::kReadBcast, .dst = base.idx, .stream = stream, .count = n});
}

void KernelBuilder::write(int stream, Reg base, int n) {
  emit({.op = Opcode::kWrite, .a = base.idx, .stream = stream, .count = n});
}

void KernelBuilder::write_cond(int stream, Reg base, int n, Reg pred) {
  emit({.op = Opcode::kWriteCond, .a = base.idx, .c = pred.idx,
        .stream = stream, .count = n});
}

KernelDef KernelBuilder::build() {
  analysis::VerifyOptions opts;
  opts.report_pressure = false;
  opts.dataflow = false;
  analysis::Diagnostics d = analysis::verify_kernel(def_, opts);
  if (d.errors() > 0) throw analysis::CheckFailure(std::move(d));
  return def_;
}

}  // namespace smd::kernel
