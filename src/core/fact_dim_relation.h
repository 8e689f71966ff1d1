#ifndef MDDC_CORE_FACT_DIM_RELATION_H_
#define MDDC_CORE_FACT_DIM_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/id.h"
#include "common/result.h"
#include "temporal/lifespan.h"

namespace mddc {

/// A fact-dimension relation R = {(f, e)} (paper Section 3.1) linking
/// facts to dimension values. Crucially — and unlike the models the paper
/// surveys — R is many-to-many (requirement 6) and e may belong to *any*
/// category, not just the bottom one (requirement 9, different levels of
/// granularity: "we can relate facts to values in higher-level
/// categories").
///
/// Each pair carries a Lifespan ((f,e) in_Tv R, Section 3.2) and a
/// probability ((f,e) in_p R, Section 3.3). Pairs are coalesced: adding
/// the same (f,e) twice unions the attached time, so value-equivalent
/// pairs never exist.
///
/// Storage is flat (docs/memory_layout.md): the by-fact / by-value
/// indexes are open-addressing hash tables over dense key arrays (no
/// tree nodes), and sorted-lockstep consumers read a CSR span view built
/// once per freeze (`FactSpans`).
class FactDimRelation {
 public:
  struct Entry {
    FactId fact;
    ValueId value;
    Lifespan life;
    double prob = 1.0;
  };

  /// One row of the CSR by-fact view: the entries of `fact` are
  /// `SpanEntryIndexes()[begin..end)`, facts ascending.
  struct FactSpan {
    FactId fact;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// A borrowed contiguous run of entry indexes — the uniform shape hot
  /// loops consume whether the run comes from the CSR view or from a
  /// per-fact list.
  struct EntrySpan {
    const std::size_t* data = nullptr;
    std::size_t count = 0;
    const std::size_t* begin() const { return data; }
    const std::size_t* end() const { return data + count; }
    std::size_t front() const { return data[0]; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    static EntrySpan Of(const std::vector<std::size_t>& list) {
      return EntrySpan{list.data(), list.size()};
    }
  };

  FactDimRelation() = default;
  FactDimRelation(const FactDimRelation& other);
  FactDimRelation(FactDimRelation&& other) noexcept;
  FactDimRelation& operator=(const FactDimRelation& other);
  FactDimRelation& operator=(FactDimRelation&& other) noexcept;

  /// Adds (fact, value) during `life` with probability `prob`. Coalesces
  /// with an existing pair (probabilities must agree).
  Status Add(FactId fact, ValueId value,
             const Lifespan& life = Lifespan::AlwaysSpan(),
             double prob = 1.0);

  /// Removes every pair whose fact is not in the sorted vector `facts`
  /// (used by selection and difference).
  void RestrictToFacts(const std::vector<FactId>& facts);

  /// All pairs, in insertion order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// The pairs for one fact.
  std::vector<const Entry*> ForFact(FactId fact) const;

  /// The pairs for one dimension value.
  std::vector<const Entry*> ForValue(ValueId value) const;

  /// No-copy variants of the above for read-only hot loops: indices into
  /// entries() (empty when the fact/value has no pairs). Invalidated by
  /// Add and RestrictToFacts.
  const std::vector<std::size_t>& EntryIndexesForFact(FactId fact) const;
  const std::vector<std::size_t>& EntryIndexesForValue(ValueId value) const;

  /// The CSR by-fact view, facts ascending — for hot loops that walk a
  /// sorted fact list in lockstep as a pointer sweep instead of issuing
  /// one lookup per fact. Built lazily (thread-safe, double-checked) or
  /// eagerly by SealIndexes; Add and RestrictToFacts invalidate it.
  const std::vector<FactSpan>& FactSpans() const {
    SealIndexes();
    return spans_;
  }
  const std::vector<std::size_t>& SpanEntryIndexes() const {
    SealIndexes();
    return span_entries_;
  }

  /// Builds the CSR view now (the seal step of snapshot publication calls
  /// this so published epochs never build indexes under readers).
  void SealIndexes() const;

  /// A numbering of one dimension's values into dense ids: the engine's
  /// rollup snapshot (engine/rollup_index.h), handed in so core stays
  /// free of the engine. `values` ascend and a value's dense id is its
  /// index. `generation` names the numbering: a snapshot patched from
  /// another keeps every non-top id and inherits its generation; a full
  /// build may renumber and mints a new one.
  struct DenseNumbering {
    std::uint64_t generation = 0;
    std::span<const ValueId> values;
    ValueId top;
  };

  /// Column slot of a fact that is not gather-eligible.
  static constexpr std::uint32_t kNoDense = 0xffffffffu;

  /// The dense-id column beside the CSR view (docs/memory_layout.md): one
  /// slot per FactSpans() row, holding the dense id under `numbering` of
  /// the fact's only pair when that pair is Always, has probability 1 and
  /// is not top; kNoDense otherwise. Built on first use (double-checked
  /// under the CSR mutex) or by SealDenseColumn, carried by copies while
  /// valid, invalidated by Add and extended with the CSR tail (the last
  /// sealed row is recomputed, as an append may have grown it), dropped
  /// when the view is rebuilt. In-place coalesces only widen lifespans,
  /// so a slot can go conservatively stale, never wrong. Null when the
  /// valid column was compiled under another numbering generation: a
  /// reader never recompiles a valid column, so published epochs stay
  /// lock-free.
  const std::vector<std::uint32_t>* DenseColumn(
      const DenseNumbering& numbering) const;

  /// Seals the column under `numbering` now, recompiling a valid column
  /// of another generation. For the owner of the relation only (the
  /// publication seal): unlike DenseColumn it may rewrite a column that
  /// readers could be holding.
  void SealDenseColumn(const DenseNumbering& numbering) const;

  /// What one SealIndexes call actually did — the serve layer's telemetry
  /// hook for the incremental-ingestion path (docs/ingestion.md).
  enum class SealOutcome {
    /// The view was already valid (no changes since the last seal).
    kReused,
    /// Appended entries were spliced onto the span tail (appends whose
    /// facts all sort at or after the last sealed fact — the shape of a
    /// batched fact append); in-place coalesces revalidate this way too.
    kExtended,
    /// Full re-sort: first seal, restricted fact set, or out-of-order
    /// appends.
    kRebuilt,
  };

  /// SealIndexes, reporting the outcome.
  SealOutcome SealIndexesReporting() const;

  /// True iff some pair references `fact`.
  bool HasFact(FactId fact) const;

  /// Lowest index of an entry edited in place — a coalescing Add that
  /// changed an existing pair's lifespan — since this relation was built
  /// or copied, or kNoEdit. Copies start clean, so a writer's draft
  /// reports exactly the edits made since it was cloned from the
  /// published relation (MoStore's append gate reads this). An
  /// idempotent coalesce is not an edit; RestrictToFacts renumbers every
  /// entry and counts as an edit of entry 0.
  static constexpr std::size_t kNoEdit = static_cast<std::size_t>(-1);
  std::size_t first_edited_entry() const { return first_edited_entry_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Set-union of two relations with pairwise lifespan coalescing (the
  /// temporal union rule of Section 4.2).
  static Result<FactDimRelation> UnionWith(const FactDimRelation& a,
                                           const FactDimRelation& b);

 private:
  /// One side (by-fact or by-value) of the flat index: open-addressing
  /// table over dense parallel (key, entry-index-list) arrays.
  ///
  /// The per-key lists are copy-on-write: a copied relation (the MVCC
  /// draft clone, or a reader's WithRegistry view) shares every list with
  /// its source — |keys| refcount bumps instead of |keys| heap
  /// allocations — and ListFor un-shares one list only when a writer
  /// actually mutates it. Retired epochs then free only the lists they
  /// uniquely own, which is what keeps continuous-ingestion clone and
  /// teardown O(batch), not O(|F|) (docs/ingestion.md). Sharing is safe
  /// because relation mutation is single-writer (the store's draft) while
  /// concurrent readers only copy shared_ptrs: a list with use_count() 1
  /// is provably private — no other thread holds a handle to copy from.
  template <typename Key>
  struct FlatListIndex {
    FlatHashIndex table;
    std::vector<Key> keys;
    std::vector<std::shared_ptr<std::vector<std::size_t>>> lists;

    std::uint32_t FindOrdinal(Key key) const {
      return table.Find(Fnv1a64Word(key.raw()), [&](std::uint32_t ordinal) {
        return keys[ordinal] == key;
      });
    }
    const std::vector<std::size_t>& ListAt(std::uint32_t ordinal) const {
      return *lists[ordinal];
    }
    std::vector<std::size_t>& ListFor(Key key) {
      bool inserted = false;
      const std::uint32_t ordinal = table.FindOrInsert(
          Fnv1a64Word(key.raw()), static_cast<std::uint32_t>(keys.size()),
          [&](std::uint32_t o) { return keys[o] == key; }, &inserted);
      if (inserted) {
        keys.push_back(key);
        lists.push_back(std::make_shared<std::vector<std::size_t>>());
      } else if (lists[ordinal].use_count() > 1) {
        lists[ordinal] =
            std::make_shared<std::vector<std::size_t>>(*lists[ordinal]);
      }
      return *lists[ordinal];
    }
    void Clear() {
      table.Clear();
      keys.clear();
      lists.clear();
    }
  };

  void ReindexAll();
  void InvalidateCsr() {
    csr_valid_.store(false, std::memory_order_release);
    column_valid_.store(false, std::memory_order_release);
  }
  void CopyFrom(const FactDimRelation& other);
  void MoveFrom(FactDimRelation&& other);

  std::vector<Entry> entries_;
  std::size_t first_edited_entry_ = kNoEdit;
  FlatListIndex<FactId> by_fact_;
  FlatListIndex<ValueId> by_value_;

  /// Splices the entries appended since the last seal onto the span tail;
  /// false when the delta is not a pure in-order append and a full
  /// rebuild is needed. Caller holds CsrMutex.
  bool TryExtendCsrTailLocked() const;
  /// Revalidates the CSR view (tail extension or full rebuild). Caller
  /// holds CsrMutex and has seen csr_valid_ false.
  SealOutcome SealCsrLocked() const;
  /// (Re)compiles the dense column under `numbering`, extending a column
  /// of the same generation from its last row. Caller holds CsrMutex.
  void SealDenseColumnLocked(const DenseNumbering& numbering) const;
  /// The column slot of spans_[row] under `numbering`.
  std::uint32_t DenseSlotOf(std::size_t row,
                            const DenseNumbering& numbering) const;

  // Lazily-built CSR by-fact view. `csr_valid_` is the publication flag:
  // set with release after the arrays are final, read with acquire before
  // touching them (the RollupIndex slot idiom), so sealed snapshots serve
  // concurrent readers lock-free. A stale-but-kept view (`csr_valid_`
  // false, `sealed_entry_count_` > 0) is the append-patch state: entries
  // [0, sealed_entry_count_) are still laid out in the arrays, and a
  // reseal extends the tail instead of re-sorting when the delta allows.
  mutable std::atomic<bool> csr_valid_{false};
  mutable std::vector<FactSpan> spans_;
  mutable std::vector<std::size_t> span_entries_;
  mutable std::size_t sealed_entry_count_ = 0;

  // The dense-id column (see DenseColumn), published like the CSR view:
  // `column_valid_` set with release once `column_` covers every span
  // under `column_generation_`. Invalid but non-empty, `column_` covers a
  // prefix of the rows of a tail-extended view and is extended in place.
  mutable std::atomic<bool> column_valid_{false};
  mutable std::vector<std::uint32_t> column_;
  mutable std::uint64_t column_generation_ = 0;
};

}  // namespace mddc

#endif  // MDDC_CORE_FACT_DIM_RELATION_H_
