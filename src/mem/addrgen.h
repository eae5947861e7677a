// Stream address generators.
//
// Each Merrimac processor has two address generators which together produce
// up to 8 single-word addresses per cycle, supporting strided records and
// indexed gather/scatter where the indices themselves are a stream in the
// SRF (Section 2.2). An AddressGenerator walks one stream memory
// operation's address sequence; the memory system pulls up to its per-cycle
// quota and applies backpressure when downstream queues fill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace smd::mem {

/// Kinds of stream memory operations.
enum class MemOpKind : std::uint8_t {
  kLoadStrided,
  kLoadGather,
  kStoreStrided,
  kStoreScatter,
  kScatterAdd,
};

constexpr bool is_load(MemOpKind k) {
  return k == MemOpKind::kLoadStrided || k == MemOpKind::kLoadGather;
}
constexpr bool is_store(MemOpKind k) { return !is_load(k); }

/// Verb naming an op kind in timeline labels and diagnostics ("gather").
constexpr const char* mem_op_verb(MemOpKind kind) {
  switch (kind) {
    case MemOpKind::kLoadStrided: return "load";
    case MemOpKind::kLoadGather: return "gather";
    case MemOpKind::kStoreStrided: return "store";
    case MemOpKind::kStoreScatter: return "scatter";
    case MemOpKind::kScatterAdd: return "scatter-add";
  }
  return "mem";
}

/// Descriptor of one stream memory operation (addresses in 64-bit words).
struct MemOpDesc {
  MemOpKind kind = MemOpKind::kLoadStrided;
  std::uint64_t base = 0;        ///< word address of record 0
  std::int64_t n_records = 0;
  int record_words = 1;
  std::int64_t stride_words = 0; ///< strided: record-start distance; 0 = dense
  /// Gather/scatter/scatter-add: record index per record; address of
  /// record r = base + indices[r] * record_words.
  std::vector<std::uint64_t> indices;

  std::int64_t total_words() const {
    return n_records * static_cast<std::int64_t>(record_words);
  }
};

/// Walks the word addresses of a MemOpDesc in order. The memory system
/// calls peek once per run of consecutive words and skips over the run,
/// so both are inline and the current record's base address is kept
/// rather than re-derived per word.
/// The descriptor (and its index vector) must outlive the walk.
class AddressGenerator {
 public:
  void start(const MemOpDesc* desc);
  bool done() const { return record_ >= n_records_; }

  /// Next word address without advancing.
  std::uint64_t peek() const {
    if (done()) throw_exhausted();
    return record_base_ + static_cast<std::uint64_t>(word_in_record_);
  }
  /// Advance to the next word.
  void advance() {
    if (done()) return;
    if (++word_in_record_ >= record_words_) {
      word_in_record_ = 0;
      ++record_;
      load_record();
    }
  }

  /// Words from peek() to the end of the current record: addresses
  /// peek() .. peek() + n - 1 come next, in order. At least 1 while the
  /// walk is not done (a record of no words still yields one address,
  /// as advance() does).
  int record_words_left() const {
    return std::max(record_words_ - word_in_record_, 1);
  }
  /// advance() `n` times, 0 < n <= record_words_left().
  void skip(int n) {
    word_in_record_ += n;
    if (word_in_record_ >= record_words_) {
      word_in_record_ = 0;
      ++record_;
      load_record();
    }
  }

 private:
  void load_record() {
    if (done()) return;
    record_base_ =
        indices_ != nullptr
            ? base_ + indices_[record_] * static_cast<std::uint64_t>(record_words_)
            : base_ + static_cast<std::uint64_t>(record_ * stride_);
  }
  [[noreturn]] static void throw_exhausted();

  const std::uint64_t* indices_ = nullptr;  ///< null for strided walks
  std::uint64_t base_ = 0;
  std::int64_t stride_ = 0;
  std::int64_t n_records_ = 0;
  int record_words_ = 1;
  std::int64_t record_ = 0;
  int word_in_record_ = 0;
  std::uint64_t record_base_ = 0;
};

}  // namespace smd::mem
