#include "src/mem/addrgen.h"

#include <stdexcept>

namespace smd::mem {

void AddressGenerator::start(const MemOpDesc* desc) {
  record_ = 0;
  word_in_record_ = 0;
  indices_ = nullptr;
  n_records_ = 0;
  if (desc == nullptr) return;
  const bool indexed = desc->kind == MemOpKind::kLoadGather ||
                       desc->kind == MemOpKind::kStoreScatter ||
                       desc->kind == MemOpKind::kScatterAdd;
  if (indexed &&
      static_cast<std::int64_t>(desc->indices.size()) < desc->n_records) {
    throw std::runtime_error("address generator: index stream too short");
  }
  indices_ = indexed ? desc->indices.data() : nullptr;
  base_ = desc->base;
  stride_ = desc->stride_words != 0 ? desc->stride_words : desc->record_words;
  n_records_ = desc->n_records;
  record_words_ = desc->record_words;
  load_record();
}

void AddressGenerator::throw_exhausted() {
  throw std::runtime_error("address generator exhausted");
}

}  // namespace smd::mem
