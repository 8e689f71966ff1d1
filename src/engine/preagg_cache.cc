#include "engine/preagg_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "engine/groupby_kernel.h"
#include "engine/rollup_index.h"

namespace mddc {
namespace {

/// Merges two partial results of a distributive function.
double Merge(AggregateFunctionKind kind, double a, double b) {
  switch (kind) {
    case AggregateFunctionKind::kSum:
    case AggregateFunctionKind::kCount:
    case AggregateFunctionKind::kSetCount:
      return a + b;
    case AggregateFunctionKind::kMin:
      return std::min(a, b);
    case AggregateFunctionKind::kMax:
      return std::max(a, b);
    case AggregateFunctionKind::kAvg:
      break;  // not distributive; never merged
  }
  return a;
}

}  // namespace

PreAggregateCache::PreAggregateCache(MdObject base)
    : base_(std::make_shared<const MdObject>(std::move(base))) {}

PreAggregateCache::PreAggregateCache(std::shared_ptr<const MdObject> base)
    : base_(std::move(base)) {}

const MdObject* PreAggregateCache::Peek(
    const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping) const {
  auto it = entries_.find(Key{function.name(), grouping});
  return it == entries_.end() ? nullptr : &it->second.result;
}

Result<MdObject> PreAggregateCache::Query(
    const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping, ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  Key key{function.name(), grouping};
  if (auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.exact_hits;
    return it->second.result;
  }

  bool refused = false;
  if (const Entry* reusable = FindReusable(function, grouping, &refused);
      reusable != nullptr) {
    auto rolled = RollUpCached(*reusable, function, grouping, *exec);
    if (rolled.ok()) {
      ++stats_.rollup_hits;
      Entry entry{grouping, *rolled, AggregationType::kConstant, function,
                  AggregateFoldState{}};
      const DimensionType& result_type =
          rolled->dimension(rolled->dimension_count() - 1).type();
      entry.result_agg_type = result_type.AggType(result_type.bottom());
      entries_.emplace(std::move(key), std::move(entry));
      return rolled;
    }
    // A non-strict step between the cached and requested categories makes
    // partial-result reuse unsafe; fall through to a base scan.
    ++stats_.reuse_refusals;
  } else if (refused) {
    ++stats_.reuse_refusals;
  }

  AggregateFoldState fold;
  AggregateSpec spec{function, grouping, ResultDimensionSpec::Auto(),
                     kNowChronon, true, false, &fold};
  MDDC_ASSIGN_OR_RETURN(MdObject result,
                        AggregateFormation(*base_, spec, exec));
  ++stats_.base_scans;
  Entry entry{grouping, result, AggregationType::kConstant, function,
              std::move(fold)};
  const DimensionType& result_type =
      result.dimension(result.dimension_count() - 1).type();
  entry.result_agg_type = result_type.AggType(result_type.bottom());
  entries_.emplace(std::move(key), std::move(entry));
  return result;
}

Status PreAggregateCache::Materialize(
    const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping, ExecContext* exec) {
  MDDC_ASSIGN_OR_RETURN(MdObject ignored, Query(function, grouping, exec));
  (void)ignored;
  return Status::OK();
}

Status PreAggregateCache::MaterializeResumable(
    const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping, ExecContext* exec) {
  Key key{function.name(), grouping};
  if (entries_.find(key) != entries_.end()) return Status::OK();
  AggregateFoldState fold;
  AggregateSpec spec{function, grouping, ResultDimensionSpec::Auto(),
                     kNowChronon, true, false, &fold};
  MDDC_ASSIGN_OR_RETURN(MdObject result,
                        AggregateFormation(*base_, spec, exec));
  ++stats_.base_scans;
  Entry entry{grouping, std::move(result), AggregationType::kConstant,
              function, std::move(fold)};
  const DimensionType& result_type =
      entry.result.dimension(entry.result.dimension_count() - 1).type();
  entry.result_agg_type = result_type.AggType(result_type.bottom());
  entries_.emplace(std::move(key), std::move(entry));
  return Status::OK();
}

Result<PreAggregateCache> PreAggregateCache::FoldAppend(
    std::shared_ptr<const MdObject> new_base,
    const std::vector<FactId>& delta_facts, ExecContext* exec) const {
  PreAggregateCache next(std::move(new_base));
  for (const auto& [key, entry] : entries_) {
    AggregateFoldState refreshed;
    AggregateSpec spec{entry.function, entry.grouping,
                       ResultDimensionSpec::Auto(), kNowChronon, true, false,
                       &refreshed};
    std::optional<MdObject> folded;
    if (entry.fold.valid) {
      Result<MdObject> attempt = FoldAggregateAppend(*next.base_, spec,
                                                     entry.fold, delta_facts,
                                                     exec);
      if (attempt.ok()) folded = std::move(*attempt);
      // A failed fold (structural drift, member order surprises) is not
      // an error: the entry takes the rescan path below.
    }
    if (folded.has_value()) {
      if (exec != nullptr) ++exec->stats.preagg_folds;
    } else {
      if (exec != nullptr) ++exec->stats.preagg_fold_invalidations;
      refreshed = AggregateFoldState{};  // drop any partial capture
      MDDC_ASSIGN_OR_RETURN(MdObject rescanned,
                            AggregateFormation(*next.base_, spec, exec));
      ++next.stats_.base_scans;
      folded = std::move(rescanned);
    }
    Entry fresh{entry.grouping, std::move(*folded),
                AggregationType::kConstant, entry.function,
                std::move(refreshed)};
    const DimensionType& result_type =
        fresh.result.dimension(fresh.result.dimension_count() - 1).type();
    fresh.result_agg_type = result_type.AggType(result_type.bottom());
    next.entries_.emplace(key, std::move(fresh));
  }
  return next;
}

const PreAggregateCache::Entry* PreAggregateCache::FindReusable(
    const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping,
    bool* refused_due_to_type) {
  *refused_due_to_type = false;
  const Entry* best = nullptr;
  for (const auto& [key, entry] : entries_) {
    if (key.first != function.name()) continue;
    if (entry.grouping.size() != grouping.size()) continue;
    bool finer_or_equal = true;
    for (std::size_t i = 0; i < grouping.size(); ++i) {
      if (!base_->dimension(i).type().LessEq(entry.grouping[i],
                                             grouping[i])) {
        finer_or_equal = false;
        break;
      }
    }
    if (!finer_or_equal) continue;
    if (entry.result_agg_type == AggregationType::kConstant) {
      // The paper's safety rule in action: a c-typed result may contain
      // overlapping data and must not be combined further.
      *refused_due_to_type = true;
      continue;
    }
    // Prefer the coarsest reusable entry (fewest groups to merge).
    if (best == nullptr || entry.result.fact_count() <
                               best->result.fact_count()) {
      best = &entry;
    }
  }
  return best;
}

Result<MdObject> PreAggregateCache::RollUpCached(
    const Entry& entry, const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping, ExecContext& exec) const {
  const MdObject& cached = entry.result;
  const std::size_t n = grouping.size();

  // Map requested base-type category indexes to the cached (restricted)
  // dimension types by category name.
  std::vector<CategoryTypeIndex> cached_categories(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name =
        base_->dimension(i).type().category(grouping[i]).name;
    MDDC_ASSIGN_OR_RETURN(cached_categories[i],
                          cached.dimension(i).type().Find(name));
  }

  // Compiled snapshots of the cached dimensions: under the strictness
  // gate the per-group ancestor-at-category step below becomes one
  // flat-table lookup. Dimensions whose gate fails keep the AncestorsIn
  // traversal — same key either way, since the flat table is compiled
  // from the very same closure.
  std::vector<std::shared_ptr<const RollupIndex>> indexes(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (cached_categories[i] == cached.dimension(i).type().top()) continue;
    std::shared_ptr<const RollupIndex> index =
        RollupIndex::For(cached.dimension(i), &exec.stats);
    if (index->has_flat_table()) {
      indexes[i] = std::move(index);
      ++exec.stats.index_hits;
    } else {
      ++exec.stats.index_fallbacks;
    }
  }

  struct Merged {
    std::vector<FactId> members;
    double value = 0.0;
    bool first = true;
  };
  // Merge-key interning by the flat-hash engine (docs/groupby_kernel.md):
  // keys live in one fixed-stride buffer probed through the
  // open-addressing index; the assembly below walks the groups in
  // lexicographic key order.
  FlatHashGroupIndex flat_index;
  std::vector<ValueId> key_storage;  // stride n
  std::vector<Merged> flat_slots;
  ++exec.stats.flat_hash_runs;
  const std::size_t result_dim = cached.dimension_count() - 1;

  // CSR lockstep (docs/memory_layout.md): cached.facts() is sorted, so a
  // single pointer sweep over each relation's span view replaces one hash
  // probe per (group, dimension).
  const std::vector<FactId>& groups = cached.facts();
  auto sweep = [&groups](const FactDimRelation& relation) {
    std::vector<FactDimRelation::EntrySpan> per_fact(groups.size());
    const ChunkedVector<FactDimRelation::FactSpan>& spans =
        relation.FactSpans();
    std::size_t f = 0;
    for (std::size_t k = 0; k < spans.chunk_count() && f < groups.size();
         ++k) {
      for (const FactDimRelation::FactSpan& span : spans.Chunk(k)) {
        while (f < groups.size() && groups[f] < span.fact) ++f;
        if (f == groups.size()) break;
        if (groups[f] == span.fact) per_fact[f] = relation.SpanEntries(span);
      }
    }
    return per_fact;
  };
  std::vector<std::vector<FactDimRelation::EntrySpan>> group_entries(n);
  for (std::size_t i = 0; i < n; ++i) {
    group_entries[i] = sweep(cached.relation(i));
  }
  const std::vector<FactDimRelation::EntrySpan> result_entries =
      sweep(cached.relation(result_dim));

  std::vector<ValueId> key(n);
  for (std::size_t f = 0; f < groups.size(); ++f) {
    const FactId group = groups[f];
    for (std::size_t i = 0; i < n; ++i) {
      const FactDimRelation& relation = cached.relation(i);
      const FactDimRelation::EntrySpan pairs = group_entries[i][f];
      if (pairs.empty()) {
        return Status::InvariantViolation("cached group missing a value");
      }
      ValueId fine = relation.entries()[pairs.front()].value;
      const Dimension& dimension = cached.dimension(i);
      if (cached_categories[i] == dimension.type().top()) {
        key[i] = dimension.top_value();
        continue;
      }
      auto fine_category = dimension.CategoryOf(fine);
      if (fine_category.ok() && *fine_category == cached_categories[i]) {
        key[i] = fine;
        continue;
      }
      if (indexes[i] != nullptr) {
        const RollupIndex& index = *indexes[i];
        const std::uint32_t dense = index.DenseOf(fine);
        const std::uint32_t ancestor =
            dense == RollupIndex::kNone
                ? RollupIndex::kNone
                : index.AncestorAt(dense, cached_categories[i]);
        if (ancestor == RollupIndex::kNone) {
          // Strictness holds (the table exists), so the traversal below
          // would have found zero ancestors — the same merge failure.
          return Status::InvariantViolation(
              StrCat("non-strict step above cached grouping in dimension '",
                     dimension.name(),
                     "'; partial results cannot be merged"));
        }
        key[i] = index.ValueOf(ancestor);
        continue;
      }
      auto coarser = dimension.AncestorsIn(fine, cached_categories[i]);
      if (coarser.size() != 1) {
        return Status::InvariantViolation(
            StrCat("non-strict step above cached grouping in dimension '",
                   dimension.name(), "'; partial results cannot be merged"));
      }
      key[i] = coarser.front().value;
    }
    const FactDimRelation& result_relation = cached.relation(result_dim);
    const FactDimRelation::EntrySpan result_pairs = result_entries[f];
    if (result_pairs.empty()) {
      return Status::InvariantViolation("cached group missing its result");
    }
    MDDC_ASSIGN_OR_RETURN(
        double partial,
        cached.dimension(result_dim)
            .NumericValueOf(
                result_relation.entries()[result_pairs.front()].value));
    MDDC_ASSIGN_OR_RETURN(FactTerm term, cached.registry()->Get(group));
    bool inserted = false;
    const std::uint32_t g = flat_index.FindOrInsert(
        HashValueIds(key.data(), n),
        static_cast<std::uint32_t>(flat_slots.size()),
        [&](std::uint32_t ordinal) {
          return std::equal(key.begin(), key.end(),
                            key_storage.begin() +
                                static_cast<std::ptrdiff_t>(ordinal * n));
        },
        &inserted);
    if (inserted) {
      key_storage.insert(key_storage.end(), key.begin(), key.end());
      flat_slots.emplace_back();
    }
    Merged* slot = &flat_slots[g];
    slot->members.insert(slot->members.end(), term.members.begin(),
                         term.members.end());
    slot->value = slot->first ? partial
                              : Merge(function.kind(), slot->value, partial);
    slot->first = false;
  }

  // Canonical lexicographic key order.
  std::vector<std::pair<const ValueId*, const Merged*>> ordered;
  ordered.reserve(flat_slots.size());
  for (std::size_t g = 0; g < flat_slots.size(); ++g) {
    ordered.push_back({key_storage.data() + g * n, &flat_slots[g]});
  }
  std::sort(ordered.begin(), ordered.end(),
            [n](const auto& a, const auto& b) {
              return std::lexicographical_compare(a.first, a.first + n,
                                                  b.first, b.first + n);
            });

  // Assemble the rolled-up MO: argument dimensions restricted above the
  // requested categories plus a fresh auto result dimension.
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(
        Dimension restricted,
        cached.dimension(i).RestrictAbove(cached_categories[i]));
    dimensions.push_back(std::move(restricted));
  }
  DimensionTypeBuilder builder("Result");
  builder.AddCategory("Value", entry.result_agg_type);
  MDDC_ASSIGN_OR_RETURN(auto result_type, builder.Build());
  dimensions.emplace_back(result_type);

  MdObject result(cached.schema().fact_type(), std::move(dimensions),
                  cached.registry(), cached.temporal_type());
  Dimension& out_result = result.dimension_mutable(n);
  CategoryTypeIndex bottom = result_type->bottom();
  Representation& rep = out_result.RepresentationFor(bottom, "Value");
  // Result values intern by the double's bit pattern — FormatDouble
  // collapses NaN payloads, and two distinct results must never share a
  // value. The formatted text is display-only.
  std::map<std::uint64_t, ValueId> value_ids;
  for (const auto& [group_key, slot] : ordered) {
    FactId fact = cached.registry()->Set(slot->members);
    MDDC_RETURN_NOT_OK(result.AddFact(fact));
    for (std::size_t i = 0; i < n; ++i) {
      MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(fact, group_key[i]));
    }
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(slot->value);
    auto it = value_ids.find(bits);
    ValueId value;
    if (it == value_ids.end()) {
      MDDC_ASSIGN_OR_RETURN(value, out_result.AddValueAuto(bottom));
      MDDC_RETURN_NOT_OK(rep.Set(value, FormatDouble(slot->value)));
      value_ids.emplace(bits, value);
    } else {
      value = it->second;
    }
    MDDC_RETURN_NOT_OK(result.relation_mutable(n).Add(fact, value));
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

}  // namespace mddc
