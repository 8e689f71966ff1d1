#include "core/fact_dim_relation.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/flat_hash.h"
#include "common/strings.h"

namespace mddc {

/// The hash index over a relation's tail entries: fact -> its entry
/// indexes, ascending. A fact's first index sits inline, so a fact with
/// one pair in the tail costs no allocation.
class FactDimRelation::TailIndex {
 public:
  EntrySpan Find(FactId fact) const {
    const std::uint32_t ordinal = table_.Find(
        Fnv1a64Word(fact.raw()),
        [&](std::uint32_t o) { return keys_[o] == fact; });
    if (ordinal == FlatHashIndex::kNone) return {};
    const List& list = lists_[ordinal];
    return list.more.empty() ? EntrySpan{&list.first, 1}
                             : EntrySpan::Of(list.more);
  }

  void Append(FactId fact, std::size_t index) {
    bool inserted = false;
    const std::uint32_t ordinal = table_.FindOrInsert(
        Fnv1a64Word(fact.raw()), static_cast<std::uint32_t>(keys_.size()),
        [&](std::uint32_t o) { return keys_[o] == fact; }, &inserted);
    if (inserted) {
      keys_.push_back(fact);
      lists_.push_back(List{index, {}});
      return;
    }
    List& list = lists_[ordinal];
    if (list.more.empty()) list.more.push_back(list.first);
    list.more.push_back(index);
  }

 private:
  /// `first` alone, or every index in `more` once there are two.
  struct List {
    std::size_t first = 0;
    std::vector<std::size_t> more;
  };

  FlatHashIndex table_;
  std::vector<FactId> keys_;
  std::vector<List> lists_;
};

FactDimRelation::FactDimRelation() = default;
FactDimRelation::~FactDimRelation() = default;

void FactDimRelation::CopyFrom(const FactDimRelation& other) {
  // A copy reads the source's by-fact index from its CSR view, so the
  // source is sealed first (the lazy seal any reader may run; a no-op on
  // a published relation). Every chunked array is then shared, chunk by
  // chunk: the copy costs O(chunks), and its first write into a chunk
  // clones that chunk only (docs/ingestion.md). The tail index is not
  // copied: the copy's starts empty and takes only the copy's own
  // appends, which a later seal splices onto the shared span tail
  // instead of re-sorting every entry.
  other.SealIndexes();
  entries_ = other.entries_;
  first_edited_entry_ = kNoEdit;
  tail_begin_ = entries_.size();
  tail_.reset();
  spans_ = other.spans_;
  span_entries_ = other.span_entries_;
  long_runs_ = other.long_runs_;
  sealed_entry_count_ = other.sealed_entry_count_;
  csr_valid_.store(true, std::memory_order_release);
  // The dense column rides along while valid: a valid column is final,
  // an invalid one may be mid-build on another thread.
  if (other.column_valid_.load(std::memory_order_acquire)) {
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
  tail_begin_ = std::exchange(other.tail_begin_, 0);
  tail_ = std::move(other.tail_);
  spans_ = std::move(other.spans_);
  span_entries_ = std::move(other.span_entries_);
  long_runs_ = std::move(other.long_runs_);
  other.long_runs_.clear();
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

const FactDimRelation::FactSpan* FactDimRelation::FindRow(
    FactId fact) const {
  // Appended facts sort past the last row: one compare, not a search.
  if (spans_.empty() || spans_.back().fact < fact) return nullptr;
  const auto it = std::lower_bound(
      spans_.begin(), spans_.end(), fact,
      [](const FactSpan& span, FactId f) { return span.fact < f; });
  return it->fact == fact ? &*it : nullptr;
}

template <typename Fn>
void FactDimRelation::VisitWriterEntries(FactId fact, const Fn& fn) const {
  if (tail_begin_ > 0) {
    if (const FactSpan* row = FindRow(fact)) {
      // The rows may cover entries past tail_begin_ (a reader sealed the
      // draft); those are the tail's to report.
      for (std::size_t index : SpanEntries(*row)) {
        if (index >= tail_begin_) break;
        if (!fn(index)) return;
      }
    }
  }
  if (tail_ == nullptr) return;
  for (std::size_t index : tail_->Find(fact)) {
    if (!fn(index)) return;
  }
}

FactDimRelation::EntrySpan FactDimRelation::LongRunOf(FactId fact) const {
  const auto it = std::lower_bound(
      long_runs_.begin(), long_runs_.end(), fact,
      [](const LongRun& run, FactId f) { return run.fact < f; });
  return EntrySpan::Of(*it->entries);
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
  // The pair's existing entries: those with `value` coalesce, unless
  // the two lifespans differ on both axes (a bitemporal correction keeps
  // a separate entry).
  Status conflict = Status::OK();
  std::size_t coalesce_into = kNoEdit;
  TemporalElement Lifespan::*widened = nullptr;
  VisitWriterEntries(fact, [&](std::size_t index) {
    const Entry& entry = entries_[index];
    if (entry.value != value) return true;
    if (entry.prob != prob) {
      conflict = Status::InvariantViolation(
          StrCat("conflicting probabilities for pair (", fact, ",", value,
                 "): ", entry.prob, " vs ", prob));
      return false;
    }
    // Coalesce when the union stays a product of two chronon sets: the
    // component-wise union of two Lifespans only equals the set union
    // of the bitemporal regions when the operands agree on one axis.
    if (entry.life.valid == life.valid) {
      widened = &Lifespan::transaction;
    } else if (entry.life.transaction == life.transaction) {
      widened = &Lifespan::valid;
    } else {
      return true;
    }
    coalesce_into = index;
    return false;
  });
  MDDC_RETURN_NOT_OK(conflict);
  if (widened != nullptr) {
    const Entry& entry = entries_[coalesce_into];
    TemporalElement merged = (entry.life.*widened).Union(life.*widened);
    if (!(merged == entry.life.*widened)) {
      // The one write into an existing entry: it clones the entry's
      // chunk when a copy shares it.
      entries_.Mut(coalesce_into).life.*widened = std::move(merged);
      first_edited_entry_ = std::min(first_edited_entry_, coalesce_into);
    }
    InvalidateCsr();
    return Status::OK();
  }
  if (tail_ == nullptr) tail_ = std::make_unique<TailIndex>();
  tail_->Append(fact, entries_.size());
  entries_.push_back(Entry{fact, value, life, prob});
  InvalidateCsr();
  return Status::OK();
}

void FactDimRelation::ReindexAll() {
  tail_ = std::make_unique<TailIndex>();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    tail_->Append(entries_[i].fact, i);
  }
  tail_begin_ = 0;
  // Entry indexes were rewritten wholesale, so the kept CSR layout (and
  // the column aligned with it) is meaningless: drop it and force the
  // next seal to rebuild.
  spans_.clear();
  span_entries_.clear();
  long_runs_.clear();
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
  for (std::size_t index : EntryIndexesForFact(fact)) {
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
  if (tail_begin_ == 0) {
    return tail_ == nullptr ? EntrySpan{} : tail_->Find(fact);
  }
  SealIndexes();
  const FactSpan* row = FindRow(fact);
  return row == nullptr ? EntrySpan{} : SpanEntries(*row);
}

bool FactDimRelation::HasFact(FactId fact) const {
  return !EntryIndexesForFact(fact).empty();
}

bool FactDimRelation::HasFact(FactId fact) {
  bool found = false;
  VisitWriterEntries(fact, [&found](std::size_t) {
    found = true;
    return false;
  });
  return found;
}

void FactDimRelation::SealIndexes() const { (void)SealIndexesReporting(); }

FactDimRelation::SealOutcome FactDimRelation::Compact() {
  const SealOutcome outcome = SealIndexesReporting();
  tail_begin_ = entries_.size();
  tail_.reset();
  return outcome;
}

std::uint32_t FactDimRelation::AppendRunLocked(FactId fact,
                                               EntrySpan run) const {
  const auto begin =
      static_cast<std::uint32_t>(span_entries_.AlignForRun(run.size()));
  span_entries_.Append(std::span<const std::size_t>(run.data, run.count));
  if (run.size() > ChunkedVector<std::size_t>::kChunkSize) {
    // Rows are laid out in ascending fact order; only the last fact's
    // row is ever re-laid (a tail extension growing it).
    auto entries =
        std::make_shared<const std::vector<std::size_t>>(run.begin(), run.end());
    if (!long_runs_.empty() && long_runs_.back().fact == fact) {
      long_runs_.back().entries = std::move(entries);
    } else {
      long_runs_.push_back(LongRun{fact, std::move(entries)});
    }
  }
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
  // order within a fact — the order the full rebuild uses too). Extendable iff every appended fact sorts at or
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
    // The last sealed fact grew: its run is re-laid whole at the tail
    // (the old slots are abandoned) unless the new entries still fit
    // its chunk.
    const FactSpan last = spans_.back();
    while (k < tail.size() && entries_[tail[k]].fact == last.fact) ++k;
    FactSpan& grown = spans_.MutBack();
    if (last.end == span_entries_.size() &&
        ((last.end + k - 1) >> kIndexChunkShift) ==
            (last.begin >> kIndexChunkShift)) {
      for (std::size_t i = 0; i < k; ++i) span_entries_.push_back(tail[i]);
    } else {
      // Its sealed run, then its appended entries (all above it).
      std::vector<std::size_t> run;
      run.reserve(last.end - last.begin + k);
      for (std::uint32_t i = last.begin; i < last.end; ++i) {
        run.push_back(span_entries_[i]);
      }
      run.insert(run.end(), tail.begin(),
                 tail.begin() + static_cast<std::ptrdiff_t>(k));
      grown.begin = AppendRunLocked(last.fact, EntrySpan::Of(run));
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
    span.begin = AppendRunLocked(fact, EntrySpan{tail.data() + k, next - k});
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
  long_runs_.clear();
  column_.clear();
  // Every entry by (fact, index): each fact's run in insertion order.
  // Entries added fact by fact are sorted already.
  std::vector<std::pair<FactId, std::size_t>> order;
  order.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    order.emplace_back(entries_[i].fact, i);
  }
  if (!std::is_sorted(order.begin(), order.end())) {
    std::sort(order.begin(), order.end());
  }
  std::vector<std::size_t> runs(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) runs[i] = order[i].second;
  for (std::size_t k = 0; k < order.size();) {
    std::size_t next = k;
    while (next < order.size() && order[next].first == order[k].first) {
      ++next;
    }
    FactSpan span;
    span.fact = order[k].first;
    span.begin = AppendRunLocked(span.fact,
                                 EntrySpan{runs.data() + k, next - k});
    span.end = span.begin + static_cast<std::uint32_t>(next - k);
    spans_.push_back(span);
    k = next;
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
  return entries_.chunk_count() + spans_.chunk_count() +
         span_entries_.chunk_count() + column_.chunk_count();
}

std::size_t FactDimRelation::SharedChunksWith(
    const FactDimRelation& other) const {
  return entries_.SharedChunksWith(other.entries_) +
         spans_.SharedChunksWith(other.spans_) +
         span_entries_.SharedChunksWith(other.span_entries_) +
         column_.SharedChunksWith(other.column_);
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
