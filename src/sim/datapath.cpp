#include "src/sim/datapath.h"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

namespace smd::sim {

DataPath::DataPath(const MachineConfig& cfg, mem::GlobalMemory* memory,
                   const StreamProgram& program)
    : cfg_(cfg),
      memory_(memory),
      program_(program),
      registry_(obs::CounterRegistry::global()),
      buffers_(program.stream_words.size()),
      touched_(program.instrs.size()),
      touches_left_(program.stream_words.size(), 0),
      order_(program.instrs.size()) {
  // Backward pass. A load is skipped when nothing reads its stream before
  // the next load of it clears the buffer (or ever, for the index streams);
  // kernel outputs append, so any later reader keeps a load alive.
  std::vector<char> read_later(program.stream_words.size(), 0);
  for (std::size_t i = program.instrs.size(); i-- > 0;) {
    std::vector<StreamId>& touched = touched_[i];
    const StreamInstr& instr = program.instrs[i];
    if (const auto* load = std::get_if<LoadOp>(&instr)) {
      const auto dst = static_cast<std::size_t>(load->dst);
      if (read_later[dst] != 0) touched.push_back(load->dst);
      read_later[dst] = 0;
    } else if (const auto* store = std::get_if<StoreOp>(&instr)) {
      touched.push_back(store->src);
      read_later[static_cast<std::size_t>(store->src)] = 1;
    } else {
      const auto& k = std::get<KernelOp>(instr);
      for (std::size_t s = 0; s < k.bindings.size(); ++s) {
        const StreamId b = k.bindings[s];
        if (std::find(touched.begin(), touched.end(), b) == touched.end()) {
          touched.push_back(b);
        }
        if (k.def->streams.at(s).dir == kernel::StreamDir::kIn) {
          read_later[static_cast<std::size_t>(b)] = 1;
        }
      }
    }
    for (const StreamId s : touched) {
      ++touches_left_[static_cast<std::size_t>(s)];
    }
  }
  helper_ = std::thread([this] { loop(); });
}

DataPath::~DataPath() { stop(); }

void DataPath::issue(int i) {
  if (failed_.load()) std::rethrow_exception(error_);
  order_[issued_++] = i;
  state_.store(issued_ << 1);
  state_.notify_one();
}

kernel::InterpStats DataPath::finish() {
  stop();
  if (error_) std::rethrow_exception(error_);
  registry_.set_gauge("sim.stream_buffer_peak_words",
                      static_cast<double>(peak_words_));
  return interp_;
}

void DataPath::stop() {
  if (!helper_.joinable()) return;
  state_.fetch_or(1);
  state_.notify_one();
  helper_.join();
}

void DataPath::loop() {
  const obs::ScopedRegistryRedirect redirect(registry_);
  std::uint32_t done = 0;
  for (;;) {
    std::uint32_t state = state_.load();
    while ((state >> 1) == done) {
      if ((state & 1) != 0) return;  // closed, and every instr applied
      state_.wait(state);
      state = state_.load();
    }
    try {
      for (; done < (state >> 1); ++done) apply(order_[done]);
    } catch (...) {
      error_ = std::current_exception();
      failed_.store(true);
      return;
    }
  }
}

void DataPath::apply(int i) {
  const std::vector<StreamId>& touched = touched_[static_cast<std::size_t>(i)];
  const auto words = [&](StreamId s) {
    return static_cast<std::int64_t>(
        buffers_[static_cast<std::size_t>(s)].size());
  };
  std::int64_t before = 0;
  for (const StreamId s : touched) before += words(s);

  const StreamInstr& instr = program_.instrs[static_cast<std::size_t>(i)];
  if (const auto* load = std::get_if<LoadOp>(&instr)) {
    if (touched.empty()) return;  // nothing reads it
    mem::MemSystem::transfer(load->desc, *memory_,
                             &buffers_[static_cast<std::size_t>(load->dst)],
                             nullptr);
  } else if (const auto* store = std::get_if<StoreOp>(&instr)) {
    mem::MemSystem::transfer(store->desc, *memory_, nullptr,
                             &buffers_[static_cast<std::size_t>(store->src)]);
  } else {
    run_kernel(std::get<KernelOp>(instr));
  }

  std::int64_t after = 0;
  for (const StreamId s : touched) after += words(s);
  live_words_ += after - before;
  peak_words_ = std::max(peak_words_, live_words_);
  for (const StreamId s : touched) {
    if (--touches_left_[static_cast<std::size_t>(s)] == 0) {
      live_words_ -= words(s);
      std::vector<double>().swap(buffers_[static_cast<std::size_t>(s)]);
    }
  }
}

void DataPath::run_kernel(const KernelOp& k) {
  kernel::StreamBindings bindings;
  bindings.inputs.resize(k.def->streams.size());
  bindings.outputs.resize(k.def->streams.size());
  for (std::size_t s = 0; s < k.bindings.size(); ++s) {
    auto& buf = buffers_[static_cast<std::size_t>(k.bindings[s])];
    if (k.def->streams[s].dir == kernel::StreamDir::kIn) {
      bindings.inputs[s] = std::span<const double>(buf);
    } else {
      bindings.outputs[s] = &buf;
    }
  }
  interp_ += executor_for(*k.def).run(bindings, k.rounds);
}

/// One executor per distinct KernelDef, constructed (verified + lowered) on
/// first launch and reused for every strip after. Keyed by pointer: defs
/// outlive the run.
kernel::KernelExec& DataPath::executor_for(const kernel::KernelDef& def) {
  auto it = executors_.find(&def);
  if (it == executors_.end()) {
    it = executors_
             .emplace(std::piecewise_construct, std::forward_as_tuple(&def),
                      std::forward_as_tuple(def, cfg_.n_clusters,
                                            cfg_.kernel_backend))
             .first;
  }
  return it->second;
}

}  // namespace smd::sim
