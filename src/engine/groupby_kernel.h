#ifndef MDDC_ENGINE_GROUPBY_KERNEL_H_
#define MDDC_ENGINE_GROUPBY_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_hash.h"
#include "core/dimension.h"
#include "engine/rollup_index.h"

namespace mddc {

/// Shared building blocks of the group-by engines (docs/groupby_kernel.md):
/// the dense row-major slot space the group-by scan composes from the
/// compiled rollup index, and the open-addressing flat-hash group index the
/// sparse paths (and relational group-by) fall back to. Both exist to kill
/// the per-fact heap-allocated group key and the std::map node churn of an
/// ordered-map grouping; that ordered map survives only as the executable
/// specification in tests/reference/.

/// FNV-1a over `n` surrogate ids, byte by byte — the group-key hash shared
/// by the flat-hash group index and the parallel partitioner, so a key's
/// owning partition and its table slot derive from one computation.
std::uint64_t HashValueIds(const ValueId* ids, std::size_t n);

/// A row-major slot space over the live grouping categories of a group-by
/// scan. Dimension 0 is the most significant digit and each dimension's
/// digit is the rank of the coordinate value within its grouping category
/// (categories are sorted by ValueId in the rollup snapshot), so ascending
/// slot order IS the lexicographic ValueId key order — canonical output
/// order falls out of the layout instead of a sort.
///
/// Holds raw pointers into the RollupIndex snapshots it was built from;
/// callers keep those snapshots alive for the space's lifetime.
class DenseSlotSpace {
 public:
  enum class Plan {
    /// Every grouping dimension has a flat table and the slot
    /// cross-product fits the threshold.
    kDense,
    /// Structurally dense, but the cross-product exceeds `max_slots`.
    kTooManySlots,
    /// Some grouping dimension has no usable flat rollup table.
    kNotIndexed,
  };

  /// One grouping dimension, backed by a compiled snapshot: the grouping
  /// category's values become the digit range.
  struct GroupingDim {
    const RollupIndex* index = nullptr;
    CategoryTypeIndex category = 0;
  };

  /// Plans the slot space. Returns kDense and fills `out` when the
  /// overflow-checked cross-product of category cardinalities is at most
  /// `max_slots`; otherwise reports why the dense engine cannot run.
  static Plan Build(const std::vector<GroupingDim>& dims,
                    std::uint64_t max_slots, DenseSlotSpace* out);

  std::uint64_t slot_count() const { return slot_count_; }
  std::size_t dim_count() const { return dims_.size(); }
  std::uint64_t cardinality(std::size_t i) const { return dims_[i].card; }

  /// The digit of dense value `dense` in dimension `i`: its rank within
  /// the grouping category, or RollupIndex::kNone for a value outside it.
  std::uint32_t OrdinalOf(std::size_t i, std::uint32_t dense) const {
    return dims_[i].ordinal_of_dense[dense];
  }

  /// Decomposes `slot` back into the grouping ValueIds, one per dimension
  /// — the inverse of the row-major composition.
  void KeyOf(std::uint64_t slot, std::vector<ValueId>& key) const;

 private:
  struct Dim {
    const RollupIndex* index = nullptr;
    std::uint64_t card = 1;
    const std::uint32_t* range = nullptr;  // category dense ids, ascending
    std::vector<std::uint32_t> ordinal_of_dense;
  };

  std::vector<Dim> dims_;
  std::uint64_t slot_count_ = 1;
};

/// The open-addressing group index is now the shared FlatHashIndex in
/// common/flat_hash.h (the same table backs the string interner and the
/// fact-term/per-fact-entry indexes). This subclass only preserves the
/// kernel-side name for the "slot empty / no group" sentinel.
class FlatHashGroupIndex : public FlatHashIndex {
 public:
  /// Sentinel ordinal: "slot empty" / "no group".
  static constexpr std::uint32_t kNoGroup = FlatHashIndex::kNone;
};

}  // namespace mddc

#endif  // MDDC_ENGINE_GROUPBY_KERNEL_H_
