#include "engine/rollup_index.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "core/properties.h"

namespace mddc {
namespace {

/// Serializes all compiled-snapshot slot reads and writes process-wide.
/// A single global mutex keeps the core layer free of any threading
/// machinery (the slot itself is a plain shared_ptr) and is never
/// contended on the hot path: operators call For() once per dimension
/// from the query thread, before fanning out workers.
std::mutex& SlotMutex() {
  static std::mutex mutex;
  return mutex;
}

/// Numbering generations: process-unique, never 0 (a relation's empty
/// column stamp).
std::uint64_t MintNumberingGeneration() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint32_t RollupIndex::DenseOf(ValueId v) const {
  auto it = std::lower_bound(value_of_.begin(), value_of_.end(), v);
  if (it == value_of_.end() || *it != v) return kNone;
  return static_cast<std::uint32_t>(it - value_of_.begin());
}

const std::uint32_t* RollupIndex::CategoryBegin(
    CategoryTypeIndex category) const {
  if (category + 1 >= category_begin_.size()) return category_values_.data();
  return category_values_.data() + category_begin_[category];
}

const std::uint32_t* RollupIndex::CategoryEnd(
    CategoryTypeIndex category) const {
  if (category + 1 >= category_begin_.size()) return category_values_.data();
  return category_values_.data() + category_begin_[category + 1];
}

std::shared_ptr<const RollupIndex> RollupIndex::For(const Dimension& dimension,
                                                    ExecStats* stats) {
  // Publish-frozen dimensions (the MVCC serving tier, src/serve) promise
  // that the slot is filled, final, and never written again, so the read
  // needs no mutex — this keeps concurrent reader sessions lock-free on
  // the hot path. Should a frozen dimension nevertheless arrive with an
  // empty or stale slot (a publisher that forgot to pre-compile), build a
  // one-off snapshot WITHOUT caching it: writing the slot of a frozen
  // dimension would race against other lock-free readers.
  // A stale snapshot whose structural version still matches was outdated
  // by appends only and is patched — O(V) plus closure walks for just
  // the fresh values — instead of recompiled from scratch.
  auto compile = [&](const std::shared_ptr<const RollupIndex>& cached)
      -> std::shared_ptr<const RollupIndex> {
    if (cached != nullptr &&
        cached->structural_version() == dimension.structural_version()) {
      std::shared_ptr<const RollupIndex> patched =
          Patch(dimension, *cached);
      if (patched != nullptr) {
        if (stats != nullptr) {
          ++stats->index_builds;
          ++stats->rollup_patches;
        }
        return patched;
      }
    }
    std::shared_ptr<const RollupIndex> built = Build(dimension);
    if (stats != nullptr) ++stats->index_builds;
    return built;
  };

  if (dimension.publish_frozen()) {
    auto cached = std::static_pointer_cast<const RollupIndex>(
        dimension.compiled_snapshot_slot());
    if (cached != nullptr && !cached->StaleFor(dimension)) {
      return cached;
    }
    return compile(cached);
  }

  std::lock_guard<std::mutex> lock(SlotMutex());
  auto cached = std::static_pointer_cast<const RollupIndex>(
      dimension.compiled_snapshot_slot());
  if (cached != nullptr && !cached->StaleFor(dimension)) {
    return cached;
  }
  std::shared_ptr<const RollupIndex> built = compile(cached);
  dimension.set_compiled_snapshot_slot(built);
  return built;
}

const RollupIndex::NumericColumn& RollupIndex::Numeric(
    const Dimension& dimension) const {
  std::call_once(numeric_once_, [&] {
    auto column = std::make_unique<NumericColumn>();
    const std::uint32_t n = value_count();
    column->value.assign(n, 0.0);
    column->state.assign(n, NumericState::kFails);
    for (std::uint32_t d = 0; d < n; ++d) {
      const ValueId value = value_of_[d];
      if (!dimension.NumericValueIsTimeless(value)) {
        column->state[d] = NumericState::kTimed;
      } else if (Result<double> number = dimension.NumericValueOf(value);
                 number.ok()) {
        column->value[d] = *number;
        column->state[d] = NumericState::kNumber;
      }
      column->numbers_only &=
          d == top_dense_ || column->state[d] == NumericState::kNumber;
    }
    numeric_ = std::move(column);
  });
  return *numeric_;
}

void RollupIndex::FillCategoryRanges() {
  // Per-category ranges, sorted by ValueId (= by dense id).
  const std::uint32_t n = value_count();
  category_begin_.assign(category_count_ + 1, 0);
  for (std::uint32_t d = 0; d < n; ++d) {
    ++category_begin_[category_of_[d] + 1];
  }
  for (std::size_t c = 0; c < category_count_; ++c) {
    category_begin_[c + 1] += category_begin_[c];
  }
  category_values_.resize(n);
  std::vector<std::uint32_t> category_cursor(category_begin_.begin(),
                                             category_begin_.end() - 1);
  for (std::uint32_t d = 0; d < n; ++d) {
    category_values_[category_cursor[category_of_[d]]++] = d;
  }
}

std::shared_ptr<const RollupIndex> RollupIndex::Build(
    const Dimension& dimension) {
  auto index = std::shared_ptr<RollupIndex>(new RollupIndex());
  index->version_ = dimension.version();
  index->structural_version_ = dimension.structural_version();
  index->numbering_generation_ = MintNumberingGeneration();
  index->category_count_ = dimension.type().category_count();

  // Dense remapping: AllValues() iterates the dimension's value map in
  // ascending ValueId order, so dense ids are ascending too and DenseOf
  // can binary-search value_of_.
  const std::vector<ValueId> values = dimension.AllValues();
  const std::uint32_t n = static_cast<std::uint32_t>(values.size());
  index->value_of_ = values;
  index->category_of_.resize(n);
  index->membership_of_.resize(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    if (values[d] == dimension.top_value()) index->top_dense_ = d;
    auto category = dimension.CategoryOf(values[d]);
    auto membership = dimension.MembershipOf(values[d]);
    index->category_of_[d] = category.ok() ? *category : 0;
    if (membership.ok()) index->membership_of_[d] = *membership;
  }

  index->FillCategoryRanges();
  const std::vector<Dimension::Edge>& edges = dimension.edges();
  index->edge_count_ = edges.size();
  bool all_edges_always = true;
  for (const Dimension::Edge& edge : edges) {
    if (!(edge.life == Lifespan::AlwaysSpan())) {
      all_edges_always = false;
      break;
    }
  }

  // Flat descendant -> ancestor-at-category table, gated on Section 3.4
  // strictness plus non-temporal edges. Under that gate every closure
  // lifespan is Always (intersections and unions of Always stay Always),
  // so the table needs no lifespan column, and strictness guarantees at
  // most one ancestor per category — the single-array-lookup rollup.
  index->has_flat_table_ = all_edges_always && IsStrict(dimension);
  if (index->has_flat_table_) {
    index->flat_ancestor_.assign(n * index->category_count_, kNone);
    index->flat_prob_.assign(n * index->category_count_, 0.0);
    for (std::uint32_t d = 0; d < n; ++d) {
      auto set = [&](CategoryTypeIndex category, std::uint32_t ancestor,
                     double p) {
        index->flat_ancestor_[d * index->category_count_ + category] =
            ancestor;
        index->flat_prob_[d * index->category_count_ + category] = p;
      };
      // The value answers a rollup to its own category with itself.
      set(index->category_of_[d], d, 1.0);
      if (d == index->top_dense_) continue;
      for (const Dimension::Containment& c :
           dimension.AncestorsView(values[d])) {
        const std::uint32_t ancestor = index->DenseOf(c.value);
        if (ancestor == kNone) continue;
        set(index->category_of_[ancestor], ancestor, c.prob);
      }
    }
  }
  return index;
}

std::shared_ptr<const RollupIndex> RollupIndex::Patch(
    const Dimension& dimension, const RollupIndex& old) {
  // The patch gate: the dimension must be `old` plus appends. Appends
  // insert fresh values (auto ids above every old non-top id, below the
  // top sentinel) and hang edges under them only, so in ascending ValueId
  // order the old non-top values keep their dense ids, fresh values slot
  // in before top, and top — the maximal raw id — shifts to stay last.
  // Anything else (values vanished, top not last, category schema moved)
  // means structural drift the caller must Build through.
  const std::vector<ValueId> values = dimension.AllValues();
  const std::uint32_t n = static_cast<std::uint32_t>(values.size());
  const std::uint32_t old_n = old.value_count();
  if (old_n == 0 || n < old_n) return nullptr;
  if (old.top_dense_ != old_n - 1) return nullptr;
  if (values[n - 1] != dimension.top_value()) return nullptr;
  if (old.value_of_[old_n - 1] != values[n - 1]) return nullptr;
  for (std::uint32_t d = 0; d + 1 < old_n; ++d) {
    if (values[d] != old.value_of_[d]) return nullptr;
  }
  const std::vector<Dimension::Edge>& edges = dimension.edges();
  if (edges.size() < old.edge_count_) return nullptr;
  if (dimension.type().category_count() != old.category_count_) {
    return nullptr;
  }
  // An appended edge must hang a value `old` did not number: a numbered
  // child's row would be copied below without the new ancestor. The
  // dimension classifies such an edge as an append when its child was
  // added in the current append run (a compile between AddValueAuto and
  // AddOrder numbers it).
  for (std::size_t e = old.edge_count_; e < edges.size(); ++e) {
    if (old.DenseOf(edges[e].child) != kNone) return nullptr;
  }

  auto index = std::shared_ptr<RollupIndex>(new RollupIndex());
  index->version_ = dimension.version();
  index->structural_version_ = dimension.structural_version();
  index->numbering_generation_ = old.numbering_generation_;
  index->category_count_ = old.category_count_;
  index->value_of_ = values;
  index->top_dense_ = n - 1;
  // The O(V) arrays are refilled outright — they are the cheap part;
  // what the patch saves is the closure walk per value below.
  index->category_of_.resize(n);
  index->membership_of_.assign(n, Lifespan());
  for (std::uint32_t d = 0; d < n; ++d) {
    auto category = dimension.CategoryOf(values[d]);
    auto membership = dimension.MembershipOf(values[d]);
    index->category_of_[d] = category.ok() ? *category : 0;
    if (membership.ok()) index->membership_of_[d] = *membership;
  }
  index->FillCategoryRanges();
  index->edge_count_ = edges.size();

  // Flat table: old rows are copied verbatim (appended edges never alter
  // an old value's upward closure — they only hang fresh children), with
  // references to the old top dense id remapped to the shifted one. Only
  // fresh values pay a closure walk. The patch re-applies Build's gate
  // incrementally: a non-Always appended edge breaks the non-temporal
  // half, and a fresh value with two ancestors in one category breaks
  // strictness — either drops the table, exactly as Build would conclude.
  index->has_flat_table_ = false;
  if (old.has_flat_table_) {
    bool appended_always = true;
    for (std::size_t e = old.edge_count_; e < edges.size(); ++e) {
      if (!(edges[e].life == Lifespan::AlwaysSpan())) {
        appended_always = false;
        break;
      }
    }
    if (appended_always) {
      index->has_flat_table_ = true;
      index->flat_ancestor_.assign(n * index->category_count_, kNone);
      index->flat_prob_.assign(n * index->category_count_, 0.0);
      const std::uint32_t old_top = old_n - 1;
      const std::uint32_t new_top = n - 1;
      for (std::uint32_t d = 0; d + 1 < old_n; ++d) {
        for (std::size_t c = 0; c < index->category_count_; ++c) {
          std::uint32_t ancestor =
              old.flat_ancestor_[d * old.category_count_ + c];
          if (ancestor == old_top) ancestor = new_top;
          index->flat_ancestor_[d * index->category_count_ + c] = ancestor;
          index->flat_prob_[d * index->category_count_ + c] =
              old.flat_prob_[d * old.category_count_ + c];
        }
      }
      index->flat_ancestor_[new_top * index->category_count_ +
                            index->category_of_[new_top]] = new_top;
      index->flat_prob_[new_top * index->category_count_ +
                        index->category_of_[new_top]] = 1.0;
      for (std::uint32_t d = old_n - 1;
           d + 1 < n && index->has_flat_table_; ++d) {
        auto set = [&](CategoryTypeIndex category, std::uint32_t ancestor,
                       double p) -> bool {
          std::uint32_t& slot =
              index->flat_ancestor_[d * index->category_count_ + category];
          if (slot != kNone && slot != ancestor) return false;
          slot = ancestor;
          index->flat_prob_[d * index->category_count_ + category] = p;
          return true;
        };
        if (!set(index->category_of_[d], d, 1.0)) {
          index->has_flat_table_ = false;
          break;
        }
        for (const Dimension::Containment& c :
             dimension.AncestorsView(values[d])) {
          const std::uint32_t ancestor = index->DenseOf(c.value);
          if (ancestor == kNone) continue;
          if (!set(index->category_of_[ancestor], ancestor, c.prob)) {
            index->has_flat_table_ = false;
            break;
          }
        }
      }
      if (!index->has_flat_table_) {
        index->flat_ancestor_.clear();
        index->flat_prob_.clear();
      }
    }
  }
  return index;
}

}  // namespace mddc
