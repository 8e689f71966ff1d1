#ifndef MDDC_ENGINE_PREAGG_CACHE_H_
#define MDDC_ENGINE_PREAGG_CACHE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/result.h"
#include "core/md_object.h"

namespace mddc {

/// A materialized-aggregate cache with summarizability-guided reuse —
/// the "efficient implementation using special-purpose algorithms and
/// data structures" the paper lists as future work (Section 5), built on
/// the machinery Section 3.4 motivates: pre-computed lower-level results
/// may be combined into higher-level results exactly when the aggregate
/// function is distributive, the paths are strict and the hierarchies
/// partitioning — which is precisely when aggregate formation does NOT
/// degrade the result's aggregation type to c.
///
/// Queries are aggregate specs over one base MO. On a miss, the cache
/// computes from the base and materializes. On a request whose grouping
/// categories are all at-or-above those of a cached entry with the same
/// function, and whose cached result is safely re-aggregable (bottom
/// aggregation type != c), the cache *rolls the cached MO up* instead of
/// touching the base — combining partial results with the function's
/// merge operation (SUM of SUMs, MIN of MINs, ...).
class PreAggregateCache {
 public:
  explicit PreAggregateCache(MdObject base);

  /// Shares an already-sealed base instead of copying it — the serving
  /// tier's constructor: each published epoch bundles the cache and the
  /// MO, and they hold the very same object (docs/ingestion.md).
  explicit PreAggregateCache(std::shared_ptr<const MdObject> base);

  const MdObject& base() const { return *base_; }

  /// Returns the aggregate for `grouping` (one category per base
  /// dimension) under `function`. The result dimension is always
  /// auto-built. `exec` runs the base scans (AggregateFormation, on the
  /// parallel engine when it asks for threads) and the rollups (the
  /// flat-hash merge over rollup-snapshot lookups); a null `exec` means
  /// a fresh one-thread context. Results and the cache's bookkeeping —
  /// in particular every Stats counter — do not depend on it. Contexts
  /// borrow the process-wide shared ThreadPool (engine/executor.h), so
  /// repeated misses — even across cache instances and fresh contexts —
  /// pay thread startup only once; exec->stats.pool_reuses records the
  /// amortization.
  Result<MdObject> Query(const AggFunction& function,
                         const std::vector<CategoryTypeIndex>& grouping,
                         ExecContext* exec = nullptr);

  /// Pre-materializes an aggregate without returning it.
  Status Materialize(const AggFunction& function,
                     const std::vector<CategoryTypeIndex>& grouping,
                     ExecContext* exec = nullptr);

  /// Materialize variant for the serving tier's seal step: always a base
  /// scan (never rollup reuse), capturing the raw accumulator state that
  /// makes the entry incrementally resumable by FoldAppend. Rollup reuse
  /// would be cheaper here but produces no capture — and its partial-sum
  /// merge order differs from a base scan's, so entries materialized this
  /// way are also byte-reproducible by a full replay (the differential
  /// oracle's invariant, docs/ingestion.md). An existing exact entry is
  /// kept as-is.
  Status MaterializeResumable(const AggFunction& function,
                              const std::vector<CategoryTypeIndex>& grouping,
                              ExecContext* exec = nullptr);

  /// Builds the successor cache for `new_base` — this cache's base plus
  /// `delta_facts` appended (ascending, all above every published fact).
  /// Entries with a valid capture resume via FoldAggregateAppend,
  /// touching only the delta facts (exec->stats.preagg_folds); entries
  /// whose fold gate fails — rollup-derived entries without capture,
  /// structural drift — rematerialize from the new base with a full scan
  /// (exec->stats.preagg_fold_invalidations), so every entry stays warm
  /// either way. Both paths produce bytes identical to materializing the
  /// entry against `new_base` from scratch.
  Result<PreAggregateCache> FoldAppend(std::shared_ptr<const MdObject> new_base,
                                       const std::vector<FactId>& delta_facts,
                                       ExecContext* exec = nullptr) const;

  /// Const exact-hit probe: the cached MO for exactly this
  /// (function, grouping), or nullptr when never materialized. Unlike
  /// Query it never computes, never rolls up, and never touches the
  /// Stats counters — the read path for *published* caches (the MVCC
  /// serving tier bundles an immutable PreAggregateCache per epoch, and
  /// concurrent readers may only probe it).
  const MdObject* Peek(const AggFunction& function,
                       const std::vector<CategoryTypeIndex>& grouping) const;

  struct Stats {
    std::size_t exact_hits = 0;   ///< same grouping served from cache
    std::size_t rollup_hits = 0;  ///< coarser grouping derived from cache
    std::size_t base_scans = 0;   ///< computed from the base MO
    std::size_t reuse_refusals = 0;  ///< reuse blocked by aggregation type c
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::vector<CategoryTypeIndex> grouping;
    MdObject result;
    AggregationType result_agg_type;
    /// The materializing function, kept whole (the map key only has its
    /// name) so FoldAppend can re-run it.
    AggFunction function;
    /// Raw per-group accumulator capture from the materializing base scan.
    /// Rollup-hit entries carry none (fold.valid == false) and
    /// rematerialize on FoldAppend.
    AggregateFoldState fold;
  };

  using Key = std::pair<std::string, std::vector<CategoryTypeIndex>>;

  /// Finds a cached entry whose grouping is component-wise <= the
  /// requested one (in the category lattices) and safely re-aggregable.
  const Entry* FindReusable(const AggFunction& function,
                            const std::vector<CategoryTypeIndex>& grouping,
                            bool* refused_due_to_type);

  /// Rolls a cached aggregate up to the coarser grouping by re-grouping
  /// its set-facts (flat-hash merge keys) and merging their partial
  /// results. The per-group rollup step consults the cached dimensions'
  /// compiled rollup snapshots (engine/rollup_index.h): under the
  /// strictness gate the unique ancestor at the requested category is
  /// one flat-table lookup instead of an AncestorsIn traversal, counted
  /// in exec.stats.index_hits / index_fallbacks.
  Result<MdObject> RollUpCached(
      const Entry& entry, const AggFunction& function,
      const std::vector<CategoryTypeIndex>& grouping,
      ExecContext& exec) const;

  /// Never null. Shared with the epoch bundle on the serving path; a
  /// privately-owned copy for direct construction from an MdObject.
  std::shared_ptr<const MdObject> base_;
  std::map<Key, Entry> entries_;
  Stats stats_;
};

}  // namespace mddc

#endif  // MDDC_ENGINE_PREAGG_CACHE_H_
