#ifndef MDDC_CORE_FACT_DIM_RELATION_H_
#define MDDC_CORE_FACT_DIM_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/chunked_vector.h"
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
/// Storage is flat (docs/memory_layout.md). The by-fact index is the
/// CSR span view (`FactSpans`): one row per fact, facts ascending, over
/// a run of entry indexes, built once per seal and binary-searched by the
/// per-fact lookups. Beside it a hash index covers only the entries the
/// view does not (the tail): every entry of a relation that was never
/// copied or published, only the batch of a writer's draft. There is no
/// by-value index: the algebra reads R from fact to value (Sections 3.1
/// and 4.1), and the one value-first query, MdObject::FactsWith, scans
/// the entries. The entries, the CSR arrays and the dense column are
/// ChunkedVectors: a copy shares their chunks, and a write clones only
/// the chunk it lands in, so a draft cloned from a published relation
/// and extended by a batch owns just the chunks the batch touched plus
/// its tail index.
class FactDimRelation {
 public:
  struct Entry {
    FactId fact;
    ValueId value;
    Lifespan life;
    double prob = 1.0;
  };

  /// One row of the CSR by-fact view, facts ascending: the entries of
  /// `fact` are the run [begin, end) of the CSR entry-index array, read
  /// through SpanEntries.
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

  FactDimRelation();
  ~FactDimRelation();
  /// A copy shares the source's CSR view, sealing the source first when
  /// needed (the lazy seal any reader may run), and starts with an empty
  /// tail index.
  FactDimRelation(const FactDimRelation& other);
  FactDimRelation(FactDimRelation&& other) noexcept;
  FactDimRelation& operator=(const FactDimRelation& other);
  FactDimRelation& operator=(FactDimRelation&& other) noexcept;

  /// Adds (fact, value) during `life` with probability `prob`. Coalesces
  /// with an existing pair (probabilities must agree), which it finds in
  /// the CSR rows (kept, stale, across appends) and the tail index
  /// without sealing.
  Status Add(FactId fact, ValueId value,
             const Lifespan& life = Lifespan::AlwaysSpan(),
             double prob = 1.0);

  /// Removes every pair whose fact is not in the sorted vector `facts`
  /// (used by selection and difference).
  void RestrictToFacts(const std::vector<FactId>& facts);

  /// All pairs, in insertion order.
  const ChunkedVector<Entry>& entries() const { return entries_; }

  /// The pairs for one fact.
  std::vector<const Entry*> ForFact(FactId fact) const;

  /// No-copy variant of ForFact for read-only hot loops: indices into
  /// entries(), ascending (empty when the fact has no pairs).
  /// Invalidated by Add and RestrictToFacts. One hash probe while the
  /// tail index covers every entry; otherwise the lazy seal (a no-op on
  /// a sealed relation) and a binary search of the CSR rows.
  EntrySpan EntryIndexesForFact(FactId fact) const;

  /// The CSR by-fact view, facts ascending — for hot loops that walk a
  /// sorted fact list in lockstep, chunk by chunk, instead of issuing one
  /// lookup per fact. Built lazily (thread-safe, double-checked) or
  /// eagerly by SealIndexes; Add and RestrictToFacts invalidate it.
  const ChunkedVector<FactSpan>& FactSpans() const {
    SealIndexes();
    return spans_;
  }

  /// The entry indexes of one FactSpans() row, in insertion order. A run
  /// never straddles a chunk of the CSR entry-index array (the seal pads
  /// to the next chunk instead), so this is a pointer into one chunk; a
  /// run longer than a chunk is also kept out of line, whole, and served
  /// from there.
  EntrySpan SpanEntries(const FactSpan& span) const {
    if (span.end == span.begin) return {};
    if ((span.begin >> kIndexChunkShift) ==
        ((span.end - 1) >> kIndexChunkShift)) {
      return EntrySpan{&span_entries_[span.begin], span.end - span.begin};
    }
    return LongRunOf(span.fact);
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
  const ChunkedVector<std::uint32_t>* DenseColumn(
      const DenseNumbering& numbering) const;

  /// The kNoDense slots of the column DenseColumn returned: kept by every
  /// write of the column (the first build, a seal, a tail extension, a
  /// copy) in O(rows written), so a scan knows in O(1) whether every row
  /// gathers. Read it only after DenseColumn returned the column.
  std::size_t dense_misses() const { return column_misses_; }

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

  /// The owner's publication seal: SealIndexesReporting, then drops the
  /// tail index, so the CSR view is the relation's only by-fact index.
  /// For the owner only, before the relation is shared (MoStore::Seal
  /// runs it on the draft before it turns const).
  SealOutcome Compact();

  /// True iff some pair references `fact`. The const overload is a
  /// reader's lookup (as EntryIndexesForFact); the non-const one is the
  /// writer's (as Add): it reads the CSR rows and the tail index without
  /// sealing, so a writer that interleaves lookups with Add (CoverWithTop
  /// on a draft) never reseals.
  bool HasFact(FactId fact) const;
  bool HasFact(FactId fact);

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

  /// Storage chunks over every chunked array (entries, CSR arrays,
  /// dense column), and how many of
  /// them are the very same chunks `other` holds at the same positions:
  /// what a copy shares and its writes since un-shared (tests and
  /// docs/memory_layout.md measure it).
  std::size_t chunk_count() const;
  std::size_t SharedChunksWith(const FactDimRelation& other) const;

  /// Set-union of two relations with pairwise lifespan coalescing (the
  /// temporal union rule of Section 4.2).
  static Result<FactDimRelation> UnionWith(const FactDimRelation& a,
                                           const FactDimRelation& b);

 private:
  static constexpr std::size_t kIndexChunkShift =
      ChunkedVector<std::size_t>::kChunkShift;

  class TailIndex;

  /// A run of more than a chunk's entries, kept whole for SpanEntries.
  /// Immutable once laid out, so copies share it.
  struct LongRun {
    FactId fact;
    std::shared_ptr<const std::vector<std::size_t>> entries;
  };

  void ReindexAll();
  void InvalidateCsr() {
    csr_valid_.store(false, std::memory_order_release);
    column_valid_.store(false, std::memory_order_release);
  }
  void CopyFrom(const FactDimRelation& other);
  void MoveFrom(FactDimRelation&& other);

  /// The row of `fact` in the laid-out CSR rows, valid or kept stale
  /// across appends; nullptr when it has none.
  const FactSpan* FindRow(FactId fact) const;
  /// The writer's lookup: calls `fn(index)` on the entries of `fact`,
  /// ascending, until it returns false — those below tail_begin_ from
  /// the laid-out rows, then the tail index's. Never seals.
  template <typename Fn>
  void VisitWriterEntries(FactId fact, const Fn& fn) const;
  /// The out-of-line run of `fact` (a row longer than a chunk).
  EntrySpan LongRunOf(FactId fact) const;

  ChunkedVector<Entry> entries_;
  std::size_t first_edited_entry_ = kNoEdit;
  /// Entries [tail_begin_, size()) are indexed by `tail_`; entries below
  /// are covered by the laid-out CSR rows (sealed_entry_count_ >=
  /// tail_begin_). 0 for a relation never copied or published, whose
  /// tail index covers every entry; null `tail_` when the tail is empty.
  /// Private to this object: copies and readers never touch it.
  std::size_t tail_begin_ = 0;
  std::unique_ptr<TailIndex> tail_;

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

  /// Appends `fact`'s run of entry indexes to span_entries_, padding
  /// first so that the run does not straddle a chunk (a run longer than
  /// a chunk is also kept out of line); returns its begin. Caller holds
  /// CsrMutex.
  std::uint32_t AppendRunLocked(FactId fact, EntrySpan run) const;

  // Lazily-built CSR by-fact view. `csr_valid_` is the publication flag:
  // set with release after the arrays are final, read with acquire before
  // touching them (the RollupIndex slot idiom), so sealed snapshots serve
  // concurrent readers lock-free. A stale-but-kept view (`csr_valid_`
  // false, `sealed_entry_count_` > 0) is the append-patch state: entries
  // [0, sealed_entry_count_) are still laid out in the arrays, and a
  // reseal extends the tail instead of re-sorting when the delta allows.
  // span_entries_ may hold padding and abandoned runs between the runs
  // the spans name.
  mutable std::atomic<bool> csr_valid_{false};
  mutable ChunkedVector<FactSpan> spans_;
  mutable ChunkedVector<std::size_t> span_entries_;
  mutable std::vector<LongRun> long_runs_;  // facts ascending
  mutable std::size_t sealed_entry_count_ = 0;

  // The dense-id column (see DenseColumn), published like the CSR view:
  // `column_valid_` set with release once `column_` covers every span
  // under `column_generation_`. Invalid but non-empty, `column_` covers a
  // prefix of the rows of a tail-extended view and is extended in place.
  mutable std::atomic<bool> column_valid_{false};
  mutable ChunkedVector<std::uint32_t> column_;
  mutable std::uint64_t column_generation_ = 0;
  mutable std::size_t column_misses_ = 0;
};

}  // namespace mddc

#endif  // MDDC_CORE_FACT_DIM_RELATION_H_
