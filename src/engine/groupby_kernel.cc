#include "engine/groupby_kernel.h"

namespace mddc {

std::uint64_t HashValueIds(const ValueId* ids, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t k = 0; k < n; ++k) h = Fnv1a64Word(ids[k].raw(), h);
  return h;
}

DenseSlotSpace::Plan DenseSlotSpace::Build(
    const std::vector<GroupingDim>& dims, std::uint64_t max_slots,
    DenseSlotSpace* out) {
  out->dims_.clear();
  out->dims_.reserve(dims.size());
  for (const GroupingDim& in : dims) {
    if (!in.index->has_flat_table()) return Plan::kNotIndexed;
    Dim dim;
    dim.index = in.index;
    const std::uint32_t* begin = in.index->CategoryBegin(in.category);
    const std::uint32_t* end = in.index->CategoryEnd(in.category);
    dim.range = begin;
    dim.card = static_cast<std::uint64_t>(end - begin);
    dim.ordinal_of_dense.assign(in.index->value_count(), RollupIndex::kNone);
    for (const std::uint32_t* it = begin; it != end; ++it) {
      dim.ordinal_of_dense[*it] = static_cast<std::uint32_t>(it - begin);
    }
    out->dims_.push_back(std::move(dim));
  }
  // Overflow-checked cross-product against the threshold. An empty
  // grouping category zeroes the space (no fact can land there), which
  // trivially fits.
  std::uint64_t slots = 1;
  for (const Dim& dim : out->dims_) {
    if (dim.card == 0) {
      slots = 0;
      break;
    }
    if (slots > max_slots / dim.card) return Plan::kTooManySlots;
    slots *= dim.card;
  }
  out->slot_count_ = slots;
  return Plan::kDense;
}

void DenseSlotSpace::KeyOf(std::uint64_t slot, std::vector<ValueId>& key) const {
  key.resize(dims_.size());
  for (std::size_t i = dims_.size(); i-- > 0;) {
    const Dim& dim = dims_[i];
    const std::uint64_t ordinal = slot % dim.card;
    slot /= dim.card;
    key[i] = dim.index->ValueOf(dim.range[ordinal]);
  }
}

}  // namespace mddc
