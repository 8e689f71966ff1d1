#ifndef MDDC_ENGINE_ROLLUP_INDEX_H_
#define MDDC_ENGINE_ROLLUP_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/dimension.h"
#include "core/fact_dim_relation.h"
#include "engine/executor.h"

namespace mddc {

/// An immutable, compiled snapshot of one Dimension — the physical layer
/// under the clean algebra (the "special-purpose algorithms and data
/// structures" of the paper's future-work list, Section 5). Where the
/// Dimension answers every query through std::map-based partial-order
/// traversal, the snapshot lays the same data out flat:
///
///  * a dense remapping ValueId -> contiguous u32, in ascending ValueId
///    order (the Dimension's own iteration order, so walking the dense
///    range reproduces AllValues() exactly);
///  * per-value category and membership arrays (one array read replaces
///    the CategoryOf/MembershipOf map lookups on the timeslice path);
///  * per-category value ranges, sorted by ValueId; and
///  * when the hierarchy passes the strictness gate of Section 3.4 and
///    every edge lifespan is Always (the "non-temporal" case), a flat
///    descendant -> ancestor-at-category table with the closure
///    probability, so a rollup is one array lookup instead of a graph
///    walk. Strictness makes the table well-defined: each value has at
///    most one ancestor per category; and
///  * on first numeric use, a numeric column: each value's
///    NumericValueOf reading, decided once (Numeric()).
///
/// Snapshots are built lazily by For(), shared through the dimension's
/// type-erased compiled-snapshot slot (so Dimension copies — e.g. the
/// operand dimensions a Join carries into its result — inherit the
/// compiled form for free), and invalidated by the dimension's structural
/// version counter: any mutation bumps the version, For() rejects the
/// stale snapshot and recompiles. Consumers that need the flat table but
/// find the gate failed fall back to the memoized traversal, so results
/// stay bit-identical in every case.
class RollupIndex {
 public:
  /// Sentinel dense id: "no such value" / "no ancestor at this category".
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Returns the compiled snapshot for `dimension`, building (and caching
  /// in the dimension's snapshot slot) if the slot is empty or holds a
  /// snapshot of an older version. Thread-safe: all slot reads and writes
  /// are serialized process-wide, and the returned object is immutable.
  /// `stats`, when non-null, counts one index_builds per compilation.
  ///
  /// Must not be called concurrently with mutation of `dimension`, and —
  /// like any closure query — may lazily fill the dimension's reachability
  /// memo, so callers on the parallel engine invoke it from the query
  /// thread before fanning out workers.
  static std::shared_ptr<const RollupIndex> For(const Dimension& dimension,
                                                ExecStats* stats = nullptr);

  /// The dimension version this snapshot was compiled at.
  std::uint64_t version() const { return version_; }

  /// The dimension's *structural* version at compile time. A stale
  /// snapshot whose structural version still matches the dimension was
  /// outdated by appends only (new values under existing categories, new
  /// edges hanging fresh children) and can be patched instead of rebuilt
  /// (docs/ingestion.md).
  std::uint64_t structural_version() const { return structural_version_; }

  /// True when `dimension` has been mutated since this snapshot was
  /// compiled (the snapshot must then not be consulted for it).
  bool StaleFor(const Dimension& dimension) const {
    return version_ != dimension.version();
  }

  // ---- Dense value remapping ---------------------------------------------

  /// The numbering stamp of the dense ids below: Build mints a fresh
  /// generation (it may renumber), Patch inherits its source's (it keeps
  /// every non-top id). A relation's dense column compiled under one
  /// snapshot is readable through any snapshot of the same generation.
  std::uint64_t numbering_generation() const { return numbering_generation_; }

  /// The dense numbering as the relation layer takes it, for
  /// FactDimRelation::DenseColumn / SealDenseColumn.
  FactDimRelation::DenseNumbering numbering() const {
    return {numbering_generation_, value_of_,
            top_dense_ == kNone ? ValueId() : value_of_[top_dense_]};
  }

  std::uint32_t value_count() const {
    return static_cast<std::uint32_t>(value_of_.size());
  }
  std::uint32_t top_dense() const { return top_dense_; }

  /// Dense id of `v`, or kNone when the value is not in the dimension.
  std::uint32_t DenseOf(ValueId v) const;

  /// Inverse mapping; `dense` must be < value_count().
  ValueId ValueOf(std::uint32_t dense) const { return value_of_[dense]; }
  CategoryTypeIndex CategoryOfDense(std::uint32_t dense) const {
    return category_of_[dense];
  }
  const Lifespan& MembershipOfDense(std::uint32_t dense) const {
    return membership_of_[dense];
  }

  // ---- Per-category sorted value ranges ----------------------------------

  /// Dense ids of the values in `category`, sorted by ValueId. Empty for
  /// out-of-range categories.
  const std::uint32_t* CategoryBegin(CategoryTypeIndex category) const;
  const std::uint32_t* CategoryEnd(CategoryTypeIndex category) const;

  // ---- Flat rollup table -------------------------------------------------

  /// True when the strictness/non-temporal gate held at compile time and
  /// the flat descendant -> ancestor-at-category table below is usable.
  bool has_flat_table() const { return has_flat_table_; }

  /// The unique ancestor of dense value `d` at `category` (the value
  /// itself when `category` is its own; the top value at the top
  /// category), or kNone when it has none. Only valid when
  /// has_flat_table(). Under the gate every closure lifespan is Always,
  /// so the containment carries no time — only the probability below.
  std::uint32_t AncestorAt(std::uint32_t dense,
                           CategoryTypeIndex category) const {
    return flat_ancestor_[dense * category_count_ + category];
  }

  /// Closure probability of that containment (1.0 for the value itself
  /// and for top; meaningless when AncestorAt is kNone).
  double AncestorProbAt(std::uint32_t dense,
                        CategoryTypeIndex category) const {
    return flat_prob_[dense * category_count_ + category];
  }

  // ---- Numeric column ----------------------------------------------------

  /// How a dense value reads under Dimension::NumericValueOf.
  enum class NumericState : std::uint8_t {
    /// NumericValueOf returns the column's value at every chronon.
    kNumber,
    /// NumericValueOf fails at every chronon.
    kFails,
    /// The answer may depend on the chronon (a representation entry of
    /// the value is not valid at all times): ask NumericValueOf.
    kTimed,
  };

  /// One double and one state per dense id.
  struct NumericColumn {
    std::vector<double> value;  // meaningful where state is kNumber
    std::vector<NumericState> state;
    /// True when every non-top value is kNumber.
    bool numbers_only = true;
  };

  /// The numeric column over the dense ids: the measure reading of each
  /// dimension member decided once per snapshot instead of once per read
  /// (the paper's Section 5 special-purpose structures). Filled on the
  /// first call, under std::call_once, from `dimension` — a dimension
  /// this snapshot is current for (!StaleFor) — with NumericValueOf
  /// itself; a value is kNumber or kFails only when
  /// NumericValueIsTimeless holds, so the column answers every chronon,
  /// ASOF included. Build and Patch leave it empty: most snapshots (a
  /// formation's result MOs among them) are never read numerically.
  /// Thread-safe; the returned column is immutable.
  const NumericColumn& Numeric(const Dimension& dimension) const;

 private:
  RollupIndex() = default;

  /// Compiles a snapshot of `dimension` at its current version.
  static std::shared_ptr<const RollupIndex> Build(const Dimension& dimension);

  /// Compiles a snapshot by patching `old` — valid only when the
  /// dimension drifted from `old` by appends (equal structural versions):
  /// the dense remap is extended (fresh values slot in before top, which
  /// shifts to stay last), the cheap O(V) arrays are refilled, and only
  /// the fresh values' flat-table rows are computed via closure walks —
  /// old rows are copied with the top id remapped, since appended edges
  /// never change an old value's upward closure. Returns null when the
  /// patch gate fails (structural drift, reordered values, an appended
  /// edge whose child `old` already numbered) and the caller must Build.
  /// Byte-equivalent to Build in every consumable way: a fresh value
  /// with two ancestors in one category, or a non-Always appended edge,
  /// drops the flat table exactly as Build's gate would.
  static std::shared_ptr<const RollupIndex> Patch(const Dimension& dimension,
                                                  const RollupIndex& old);

  /// Shared O(V) category-range fill of Build and Patch; `value_of_` and
  /// `category_of_` must already be final.
  void FillCategoryRanges();

  std::uint64_t version_ = 0;
  std::uint64_t structural_version_ = 0;
  std::uint64_t numbering_generation_ = 0;
  /// dimension.edges().size() at compile time; a patch classifies
  /// edges beyond this as appended.
  std::size_t edge_count_ = 0;
  std::size_t category_count_ = 0;
  std::uint32_t top_dense_ = kNone;
  bool has_flat_table_ = false;

  std::vector<ValueId> value_of_;  // dense -> ValueId, ascending
  std::vector<CategoryTypeIndex> category_of_;
  std::vector<Lifespan> membership_of_;

  std::vector<std::uint32_t> category_begin_;   // category_count_ + 1
  std::vector<std::uint32_t> category_values_;  // dense ids, sorted

  std::vector<std::uint32_t> flat_ancestor_;  // value_count() * categories
  std::vector<double> flat_prob_;

  // Behind a pointer so that the many snapshots never read numerically
  // carry one word for it, not two empty vectors.
  mutable std::once_flag numeric_once_;
  mutable std::unique_ptr<const NumericColumn> numeric_;
};

}  // namespace mddc

#endif  // MDDC_ENGINE_ROLLUP_INDEX_H_
