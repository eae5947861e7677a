#include "src/kernel/ir.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/analysis/verify_ir.h"

namespace smd::kernel {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kConst: return "CONST";
    case Opcode::kMov: return "MOV";
    case Opcode::kAdd: return "ADD";
    case Opcode::kSub: return "SUB";
    case Opcode::kMul: return "MUL";
    case Opcode::kMadd: return "MADD";
    case Opcode::kMsub: return "MSUB";
    case Opcode::kDiv: return "DIV";
    case Opcode::kSqrt: return "SQRT";
    case Opcode::kRsqrt: return "RSQRT";
    case Opcode::kCmpEq: return "CMPEQ";
    case Opcode::kCmpLt: return "CMPLT";
    case Opcode::kSel: return "SEL";
    case Opcode::kRead: return "READ";
    case Opcode::kReadCond: return "READC";
    case Opcode::kReadBcast: return "READB";
    case Opcode::kWrite: return "WRITE";
    case Opcode::kWriteCond: return "WRITEC";
  }
  return "?";
}

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
  FlopCensus c;
  switch (in.op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
      c.flops = 1;
      c.fpu_ops = 1;
      break;
    case Opcode::kMadd:
    case Opcode::kMsub:
      c.flops = 2;
      c.fpu_ops = 1;
      break;
    case Opcode::kDiv:
      c.flops = 1;
      c.divides = 1;
      c.fpu_ops = 1;
      break;
    case Opcode::kSqrt:
      c.flops = 1;
      c.square_roots = 1;
      c.fpu_ops = 1;
      break;
    case Opcode::kRsqrt:
      // Paper convention: rinv = 1/sqrt(r2) is "1 divide + 1 square root".
      c.flops = 2;
      c.divides = 1;
      c.square_roots = 1;
      c.fpu_ops = 1;
      break;
    case Opcode::kCmpEq:
    case Opcode::kCmpLt:
    case Opcode::kSel:
      // Not counted as solution flops, but they occupy FPU issue slots.
      c.fpu_ops = 1;
      break;
    case Opcode::kConst:
    case Opcode::kMov:
      break;  // handled by the cluster switch / preloaded constants
    case Opcode::kRead:
    case Opcode::kReadCond:
    case Opcode::kReadBcast:
      // For kReadBcast this is the per-iteration SRF traffic; the record
      // is fanned out to all clusters by the switch, not re-read.
      c.words_read = in.count;
      break;
    case Opcode::kWrite:
    case Opcode::kWriteCond:
      c.words_written = in.count;
      break;
  }
  return c;
}

FlopCensus KernelDef::body_census() const {
  FlopCensus c;
  for (const auto& in : body) c += instr_census(in);
  return c;
}

RegOperands reg_operands(const Instr& in) {
  RegOperands o;
  auto words = [&](int base) {
    std::vector<int> w(static_cast<std::size_t>(std::max(in.count, 0)));
    std::iota(w.begin(), w.end(), base);
    return w;
  };
  switch (in.op) {
    case Opcode::kConst:
      break;
    case Opcode::kMov:
    case Opcode::kSqrt:
    case Opcode::kRsqrt:
      o.srcs = {in.a};
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kCmpEq:
    case Opcode::kCmpLt:
      o.srcs = {in.a, in.b};
      break;
    case Opcode::kMadd:
    case Opcode::kMsub:
    case Opcode::kSel:
      o.srcs = {in.a, in.b, in.c};
      break;
    case Opcode::kRead:
    case Opcode::kReadBcast:
      o.defs = words(in.dst);
      return o;
    case Opcode::kReadCond:
      o.pred = in.c;
      o.kept = words(in.dst);
      o.defs = o.kept;
      return o;
    case Opcode::kWrite:
    case Opcode::kWriteCond:
      if (in.op == Opcode::kWriteCond) o.pred = in.c;
      o.srcs = words(in.a);
      return o;
  }
  o.defs = {in.dst};
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
