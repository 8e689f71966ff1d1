#include "core/fact_dim_relation.h"

#include <algorithm>
#include <mutex>

#include "common/strings.h"

namespace mddc {

void FactDimRelation::CopyFrom(const FactDimRelation& other) {
  // Every chunked array is shared, chunk by chunk: the copy costs the
  // index table's slot arrays plus O(chunks), and the copy's first write
  // into a chunk clones that chunk only (docs/ingestion.md).
  entries_ = other.entries_;
  first_edited_entry_ = kNoEdit;
  by_fact_ = other.by_fact_;
  // A *valid* (sealed) CSR view is index-based, so it stays correct for
  // the copied arrays and is carried over — this is what lets a writer's
  // draft extend the published view's span tail after a batched append
  // instead of re-sorting every entry (docs/ingestion.md). An in-flight
  // lazy build in `other` (csr_valid_ false) is not copied: its arrays
  // may be half-written by another thread, so the copy rebuilds on
  // demand.
  if (other.csr_valid_.load(std::memory_order_acquire)) {
    spans_ = other.spans_;
    span_entries_ = other.span_entries_;
    sealed_entry_count_ = other.sealed_entry_count_;
    csr_valid_.store(true, std::memory_order_release);
  } else {
    spans_.clear();
    span_entries_.clear();
    sealed_entry_count_ = 0;
    csr_valid_.store(false, std::memory_order_release);
  }
  // The dense column rides along under the same rule: a valid column is
  // final, an invalid one may be mid-build on another thread.
  if (csr_valid_.load(std::memory_order_relaxed) &&
      other.column_valid_.load(std::memory_order_acquire)) {
    column_ = other.column_;
    column_generation_ = other.column_generation_;
    column_misses_ = other.column_misses_;
    column_valid_.store(true, std::memory_order_release);
  } else {
    column_.clear();
    column_generation_ = 0;
    column_misses_ = 0;
    column_valid_.store(false, std::memory_order_release);
  }
}

void FactDimRelation::MoveFrom(FactDimRelation&& other) {
  entries_ = std::move(other.entries_);
  first_edited_entry_ = other.first_edited_entry_;
  by_fact_ = std::move(other.by_fact_);
  spans_ = std::move(other.spans_);
  span_entries_ = std::move(other.span_entries_);
  sealed_entry_count_ = other.sealed_entry_count_;
  other.sealed_entry_count_ = 0;
  csr_valid_.store(other.csr_valid_.load(std::memory_order_acquire),
                   std::memory_order_release);
  other.csr_valid_.store(false, std::memory_order_release);
  column_ = std::move(other.column_);
  column_generation_ = other.column_generation_;
  column_misses_ = other.column_misses_;
  column_valid_.store(other.column_valid_.load(std::memory_order_acquire),
                      std::memory_order_release);
  other.column_valid_.store(false, std::memory_order_release);
}

FactDimRelation::FactDimRelation(const FactDimRelation& other) {
  CopyFrom(other);
}

FactDimRelation::FactDimRelation(FactDimRelation&& other) noexcept {
  MoveFrom(std::move(other));
}

FactDimRelation& FactDimRelation::operator=(const FactDimRelation& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

FactDimRelation& FactDimRelation::operator=(
    FactDimRelation&& other) noexcept {
  if (this != &other) MoveFrom(std::move(other));
  return *this;
}

Status FactDimRelation::Add(FactId fact, ValueId value, const Lifespan& life,
                            double prob) {
  if (!fact.valid() || !value.valid()) {
    return Status::InvalidArgument(
        "fact-dimension pair with invalid fact or value id");
  }
  if (life.Empty()) {
    return Status::InvalidArgument(
        StrCat("fact-dimension pair (", fact, ",", value,
               ") with empty lifespan"));
  }
  if (prob <= 0.0 || prob > 1.0) {
    return Status::InvalidArgument(
        StrCat("fact-dimension probability ", prob, " outside (0,1]"));
  }
  if (const std::uint32_t ordinal = by_fact_.FindOrdinal(fact);
      ordinal != FlatHashIndex::kNone) {
    for (std::size_t index : by_fact_.ListAt(ordinal)) {
      const Entry& entry = entries_[index];
      if (entry.value != value) continue;
      if (entry.prob != prob) {
        return Status::InvariantViolation(
            StrCat("conflicting probabilities for pair (", fact, ",", value,
                   "): ", entry.prob, " vs ", prob));
      }
      // Coalesce when the union stays a product of two chronon sets: the
      // component-wise union of two Lifespans only equals the set union
      // of the bitemporal regions when the operands agree on one axis.
      // Bitemporal corrections (same pair, different rectangles) keep
      // separate entries.
      TemporalElement Lifespan::*widened = nullptr;
      if (entry.life.valid == life.valid) {
        widened = &Lifespan::transaction;
      } else if (entry.life.transaction == life.transaction) {
        widened = &Lifespan::valid;
      }
      if (widened != nullptr) {
        TemporalElement merged = (entry.life.*widened).Union(life.*widened);
        if (!(merged == entry.life.*widened)) {
          // The one write into an existing entry: it clones the entry's
          // chunk when a copy shares it.
          entries_.Mut(index).life.*widened = std::move(merged);
          first_edited_entry_ = std::min(first_edited_entry_, index);
        }
        InvalidateCsr();
        return Status::OK();
      }
    }
  }
  by_fact_.ListFor(fact).push_back(entries_.size());
  entries_.push_back(Entry{fact, value, life, prob});
  InvalidateCsr();
  return Status::OK();
}

void FactDimRelation::ReindexAll() {
  by_fact_.Clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    by_fact_.ListFor(entries_[i].fact).push_back(i);
  }
  // Entry indexes were rewritten wholesale, so the kept CSR layout (and
  // the column aligned with it) is meaningless: drop it and force the
  // next seal to rebuild.
  spans_.clear();
  span_entries_.clear();
  sealed_entry_count_ = 0;
  column_.clear();
  InvalidateCsr();
}

void FactDimRelation::RestrictToFacts(const std::vector<FactId>& facts) {
  ChunkedVector<Entry> kept;
  for (const Entry& entry : entries_) {
    if (std::binary_search(facts.begin(), facts.end(), entry.fact)) {
      kept.push_back(entry);
    }
  }
  entries_ = std::move(kept);
  first_edited_entry_ = 0;
  ReindexAll();
}

std::vector<const FactDimRelation::Entry*> FactDimRelation::ForFact(
    FactId fact) const {
  std::vector<const Entry*> result;
  const std::uint32_t ordinal = by_fact_.FindOrdinal(fact);
  if (ordinal == FlatHashIndex::kNone) return result;
  for (std::size_t index : by_fact_.ListAt(ordinal)) {
    result.push_back(&entries_[index]);
  }
  return result;
}

namespace {
// Guards lazy CSR builds on unsealed relations (the RollupIndex SlotMutex
// idiom): one process-wide mutex, never destroyed, so sealing races from
// multiple contexts serialize without per-relation storage.
std::mutex& CsrMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}
}  // namespace

FactDimRelation::EntrySpan FactDimRelation::EntryIndexesForFact(
    FactId fact) const {
  const std::uint32_t ordinal = by_fact_.FindOrdinal(fact);
  return ordinal == FlatHashIndex::kNone ? EntrySpan{}
                                         : by_fact_.ListAt(ordinal);
}

void FactDimRelation::SealIndexes() const { (void)SealIndexesReporting(); }

std::uint32_t FactDimRelation::AppendRunLocked(EntrySpan run) const {
  const auto begin =
      static_cast<std::uint32_t>(span_entries_.AlignForRun(run.size()));
  for (std::size_t index : run) span_entries_.push_back(index);
  return begin;
}

bool FactDimRelation::TryExtendCsrTailLocked() const {
  // Nothing sealed yet (or the layout was dropped): only a rebuild can
  // establish the view.
  if (sealed_entry_count_ == 0) return false;
  if (sealed_entry_count_ > entries_.size()) return false;
  // Pure in-place coalesces since the last seal: the index structure is
  // untouched, the view is still exact.
  if (sealed_entry_count_ == entries_.size()) return true;
  if (spans_.empty()) return false;
  // Order the appended entries by fact (stably, preserving insertion
  // order within a fact — the order the by-fact lists and the full
  // rebuild both use). Extendable iff every appended fact sorts at or
  // after the last sealed fact: then the delta only grows the final span
  // and appends new ones, keeping every sealed row contiguous.
  std::vector<std::size_t> tail;
  tail.reserve(entries_.size() - sealed_entry_count_);
  for (std::size_t i = sealed_entry_count_; i < entries_.size(); ++i) {
    tail.push_back(i);
  }
  std::stable_sort(tail.begin(), tail.end(),
                   [&](std::size_t a, std::size_t b) {
                     return entries_[a].fact < entries_[b].fact;
                   });
  if (entries_[tail.front()].fact < spans_.back().fact) return false;
  std::size_t k = 0;
  if (entries_[tail.front()].fact == spans_.back().fact) {
    // The last sealed fact grew: its run is the by-fact list, re-laid
    // whole at the tail (the old slots are abandoned) unless the new
    // entries still fit its chunk.
    const FactSpan last = spans_.back();
    while (k < tail.size() && entries_[tail[k]].fact == last.fact) ++k;
    FactSpan& grown = spans_.MutBack();
    if (last.end == span_entries_.size() &&
        ((last.end + k - 1) >> kIndexChunkShift) ==
            (last.begin >> kIndexChunkShift)) {
      for (std::size_t i = 0; i < k; ++i) span_entries_.push_back(tail[i]);
    } else {
      grown.begin = AppendRunLocked(
          by_fact_.ListAt(by_fact_.FindOrdinal(last.fact)));
    }
    grown.end = grown.begin + static_cast<std::uint32_t>(last.end -
                                                         last.begin + k);
  }
  while (k < tail.size()) {
    const FactId fact = entries_[tail[k]].fact;
    std::size_t next = k;
    while (next < tail.size() && entries_[tail[next]].fact == fact) ++next;
    FactSpan span;
    span.fact = fact;
    span.begin = AppendRunLocked(
        EntrySpan{tail.data() + k, next - k});
    span.end = span.begin + static_cast<std::uint32_t>(next - k);
    spans_.push_back(span);
    k = next;
  }
  sealed_entry_count_ = entries_.size();
  return true;
}

FactDimRelation::SealOutcome FactDimRelation::SealIndexesReporting() const {
  if (csr_valid_.load(std::memory_order_acquire)) {
    return SealOutcome::kReused;
  }
  std::lock_guard<std::mutex> lock(CsrMutex());
  if (csr_valid_.load(std::memory_order_relaxed)) {
    return SealOutcome::kReused;
  }
  return SealCsrLocked();
}

FactDimRelation::SealOutcome FactDimRelation::SealCsrLocked() const {
  if (TryExtendCsrTailLocked()) {
    csr_valid_.store(true, std::memory_order_release);
    return SealOutcome::kExtended;
  }
  spans_.clear();
  span_entries_.clear();
  column_.clear();
  std::vector<std::uint32_t> order(by_fact_.keys.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return by_fact_.keys[a] < by_fact_.keys[b];
            });
  for (std::uint32_t ordinal : order) {
    const EntrySpan list = by_fact_.ListAt(ordinal);
    FactSpan span;
    span.fact = by_fact_.keys[ordinal];
    span.begin = AppendRunLocked(list);
    span.end = span.begin + static_cast<std::uint32_t>(list.size());
    spans_.push_back(span);
  }
  sealed_entry_count_ = entries_.size();
  csr_valid_.store(true, std::memory_order_release);
  return SealOutcome::kRebuilt;
}

std::uint32_t FactDimRelation::DenseSlotOf(
    std::size_t row, const DenseNumbering& numbering) const {
  const FactSpan& span = spans_[row];
  if (span.end - span.begin != 1) return kNoDense;
  const Entry& entry = entries_[span_entries_[span.begin]];
  if (entry.prob != 1.0 || entry.value == numbering.top ||
      !entry.life.IsAlways()) {
    return kNoDense;
  }
  const auto it = std::lower_bound(numbering.values.begin(),
                                   numbering.values.end(), entry.value);
  if (it == numbering.values.end() || *it != entry.value) return kNoDense;
  return static_cast<std::uint32_t>(it - numbering.values.begin());
}

void FactDimRelation::SealDenseColumnLocked(
    const DenseNumbering& numbering) const {
  if (!csr_valid_.load(std::memory_order_relaxed)) (void)SealCsrLocked();
  // A column of this numbering covers a prefix of the rows: a tail
  // extension only appends rows and may grow the last sealed one, so the
  // extension recomputes that row and fills the appended ones — O(batch),
  // not O(|F|). The last row is written only when it changed, so a copy
  // keeps sharing its chunk.
  // The miss count follows the same rows: the recomputed last row
  // trades its old slot's miss for its new one's.
  std::size_t from = 0;
  if (column_generation_ == numbering.generation && !column_.empty() &&
      column_.size() <= spans_.size()) {
    const std::size_t last = column_.size() - 1;
    const std::uint32_t slot = DenseSlotOf(last, numbering);
    if (column_[last] != slot) {
      column_misses_ -= column_[last] == kNoDense ? 1 : 0;
      column_misses_ += slot == kNoDense ? 1 : 0;
      column_.Mut(last) = slot;
    }
    from = column_.size();
  } else {
    column_misses_ = 0;
  }
  column_.resize(spans_.size());
  // Chunk by chunk: each writable run clones its chunk once if a copy
  // shares it (the tail a draft extends), then is a plain pointer sweep.
  for (std::size_t row = from; row < spans_.size();) {
    const std::span<std::uint32_t> run = column_.MutableRun(row);
    for (std::uint32_t& slot : run) {
      slot = DenseSlotOf(row++, numbering);
      column_misses_ += slot == kNoDense ? 1 : 0;
    }
  }
  column_generation_ = numbering.generation;
  column_valid_.store(true, std::memory_order_release);
}

const ChunkedVector<std::uint32_t>* FactDimRelation::DenseColumn(
    const DenseNumbering& numbering) const {
  if (!column_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(CsrMutex());
    if (!column_valid_.load(std::memory_order_relaxed)) {
      SealDenseColumnLocked(numbering);
    }
  }
  return column_generation_ == numbering.generation ? &column_ : nullptr;
}

void FactDimRelation::SealDenseColumn(const DenseNumbering& numbering) const {
  std::lock_guard<std::mutex> lock(CsrMutex());
  if (!column_valid_.load(std::memory_order_relaxed) ||
      column_generation_ != numbering.generation) {
    SealDenseColumnLocked(numbering);
  }
}

std::size_t FactDimRelation::chunk_count() const {
  return entries_.chunk_count() + by_fact_.keys.chunk_count() +
         by_fact_.lists.chunk_count() + spans_.chunk_count() +
         span_entries_.chunk_count() + column_.chunk_count();
}

std::size_t FactDimRelation::SharedChunksWith(
    const FactDimRelation& other) const {
  return entries_.SharedChunksWith(other.entries_) +
         by_fact_.keys.SharedChunksWith(other.by_fact_.keys) +
         by_fact_.lists.SharedChunksWith(other.by_fact_.lists) +
         spans_.SharedChunksWith(other.spans_) +
         span_entries_.SharedChunksWith(other.span_entries_) +
         column_.SharedChunksWith(other.column_);
}

bool FactDimRelation::HasFact(FactId fact) const {
  return by_fact_.FindOrdinal(fact) != FlatHashIndex::kNone;
}

Result<FactDimRelation> FactDimRelation::UnionWith(const FactDimRelation& a,
                                                   const FactDimRelation& b) {
  FactDimRelation result = a;
  for (const Entry& entry : b.entries_) {
    MDDC_RETURN_NOT_OK(
        result.Add(entry.fact, entry.value, entry.life, entry.prob));
  }
  return result;
}

}  // namespace mddc
