#include "reference/aggregate_reference.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/strings.h"
#include "core/properties.h"

namespace mddc {
namespace reference {
namespace {

/// One grouping coordinate of a fact: a value of the grouping category
/// characterizing it, with the characterization's time and probability.
struct Coordinate {
  ValueId value;
  Lifespan life;
  double prob;
};

/// The fact's coordinates in every grouping category (a dimension grouped
/// at top contributes its top value, always, with probability 1), or
/// nullopt when some dimension has none — the fact then joins no group.
std::optional<std::vector<std::vector<Coordinate>>> GroupingCoordinates(
    const MdObject& mo, const AggregateSpec& spec, FactId fact) {
  const std::size_t n = mo.dimension_count();
  std::vector<std::vector<Coordinate>> per_dim(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Dimension& dimension = mo.dimension(i);
    if (spec.grouping[i] == dimension.type().top()) {
      per_dim[i].push_back(
          Coordinate{dimension.top_value(), Lifespan::AlwaysSpan(), 1.0});
      continue;
    }
    for (const MdObject::Characterization& c :
         mo.CharacterizedBy(fact, i, spec.prob_at)) {
      auto category = dimension.CategoryOf(c.value);
      if (category.ok() && *category == spec.grouping[i]) {
        per_dim[i].push_back(Coordinate{c.value, c.life, c.prob});
      }
    }
    if (per_dim[i].empty()) return std::nullopt;
  }
  return per_dim;
}

/// One group under construction. The group's time per dimension is the
/// intersection over members of their characterization spans;
/// probabilities multiply over members.
struct Group {
  std::vector<FactId> members;
  std::vector<Lifespan> life_per_dim;
  std::vector<double> prob_per_dim;
  /// Per member: the product of its coordinate probabilities across the
  /// dimensions, the member's weight in an expected count.
  std::vector<double> member_probs;
};

using GroupKey = std::vector<ValueId>;

/// Adds `fact` to the group of every key in the cross product of its
/// coordinate lists.
void AccumulateFact(std::size_t n, FactId fact,
                    const std::vector<std::vector<Coordinate>>& per_dim,
                    std::map<GroupKey, Group>& groups) {
  std::vector<std::size_t> cursor(n, 0);
  while (true) {
    GroupKey key(n);
    for (std::size_t i = 0; i < n; ++i) key[i] = per_dim[i][cursor[i]].value;
    auto [it, inserted] = groups.try_emplace(std::move(key));
    Group& group = it->second;
    if (inserted) {
      group.life_per_dim.assign(n, Lifespan::AlwaysSpan());
      group.prob_per_dim.assign(n, 1.0);
    }
    group.members.push_back(fact);
    double member_prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Coordinate& c = per_dim[i][cursor[i]];
      if (!c.life.IsAlways()) {
        group.life_per_dim[i] = group.life_per_dim[i].Intersect(c.life);
      }
      group.prob_per_dim[i] *= c.prob;
      member_prob *= c.prob;
    }
    group.member_probs.push_back(member_prob);
    std::size_t i = 0;
    while (i < n && ++cursor[i] == per_dim[i].size()) {
      cursor[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
}

struct Evaluation {
  double value = 0.0;
  Lifespan result_life;
};

/// g(group) over the canonically sorted members, and the Section 4.2
/// result lifespan: the intersection over members and g's argument
/// dimensions of the times the member was related to its data.
Result<Evaluation> Evaluate(const MdObject& mo, const AggregateSpec& spec,
                            Group& group) {
  Evaluation eval;
  double expected = 0.0;
  for (double p : group.member_probs) expected += p;
  std::sort(group.members.begin(), group.members.end());
  if (spec.expected_counts &&
      spec.function.kind() == AggregateFunctionKind::kSetCount) {
    eval.value = expected;
  } else {
    MDDC_ASSIGN_OR_RETURN(
        eval.value, spec.function.Evaluate(mo, group.members, spec.prob_at));
  }
  eval.result_life = Lifespan::AlwaysSpan();
  for (std::size_t dim : spec.function.args()) {
    if (dim >= mo.dimension_count()) continue;
    const FactDimRelation& relation = mo.relation(dim);
    for (FactId member : group.members) {
      TemporalElement valid;
      TemporalElement transaction;
      for (const FactDimRelation::Entry* entry : relation.ForFact(member)) {
        valid = valid.Union(entry->life.valid);
        transaction = transaction.Union(entry->life.transaction);
      }
      eval.result_life =
          eval.result_life.Intersect(Lifespan{valid, transaction});
    }
  }
  return eval;
}

/// The result dimension D_{n+1} with its bottom typed per the Section
/// 4.1 rule: min over Args(g) of the argument bottoms' aggregation types
/// when the request is summarizable, c otherwise. An explicit prototype
/// is rebuilt under the adjusted type (higher categories capped at the
/// bottom's type).
Result<Dimension> ResultDimension(const MdObject& mo,
                                  const AggregateSpec& spec,
                                  const SummarizabilityReport& report) {
  AggregationType bottom_agg = AggregationType::kConstant;
  if (report.summarizable) {
    bottom_agg = AggregationType::kSum;
    for (std::size_t dim : spec.function.args()) {
      const DimensionType& type = mo.dimension(dim).type();
      bottom_agg = MinAggregationType(bottom_agg, type.AggType(type.bottom()));
    }
  }
  if (spec.result.is_auto()) {
    DimensionTypeBuilder builder(spec.result.auto_name());
    builder.AddCategory("Value", bottom_agg);
    MDDC_ASSIGN_OR_RETURN(auto type, builder.Build());
    return Dimension(type);
  }
  const Dimension& prototype = spec.result.prototype();
  auto adjusted =
      prototype.type_ptr()->WithAggType(prototype.type().bottom(), bottom_agg);
  for (CategoryTypeIndex c = 0; c < adjusted->category_count(); ++c) {
    if (c == adjusted->bottom()) continue;
    adjusted = adjusted->WithAggType(
        c, MinAggregationType(adjusted->AggType(c), bottom_agg));
  }
  Dimension rebuilt(adjusted);
  for (ValueId value : prototype.AllValues()) {
    if (value == prototype.top_value()) continue;
    MDDC_RETURN_NOT_OK(rebuilt.AddValue(*prototype.CategoryOf(value), value,
                                        *prototype.MembershipOf(value)));
  }
  for (const Dimension::Edge& edge : prototype.edges()) {
    MDDC_RETURN_NOT_OK(
        rebuilt.AddOrder(edge.child, edge.parent, edge.life, edge.prob));
  }
  for (const auto& [category, rep_name, rep] : prototype.AllRepresentations()) {
    Representation& target = rebuilt.RepresentationFor(category, rep_name);
    for (ValueId value : prototype.ValuesIn(category)) {
      for (const auto& [text, life] : rep->GetAll(value)) {
        MDDC_RETURN_NOT_OK(target.Set(value, text, life));
      }
    }
  }
  return rebuilt;
}

}  // namespace

Result<MdObject> AggregateFormation(const MdObject& mo,
                                    const AggregateSpec& spec) {
  const std::size_t n = mo.dimension_count();
  if (spec.grouping.size() != n) {
    return Status::InvalidArgument(
        StrCat("aggregate formation got ", spec.grouping.size(),
               " grouping categories for a ", n, "-dimensional MO"));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.grouping[i] >= mo.dimension(i).type().category_count()) {
      return Status::InvalidArgument(
          StrCat("grouping category ", spec.grouping[i],
                 " out of range for dimension '", mo.dimension(i).name(),
                 "'"));
    }
  }
  if (spec.enforce_aggregation_types) {
    MDDC_RETURN_NOT_OK(spec.function.CheckApplicable(mo));
  }
  const SummarizabilityReport summarizability =
      CheckSummarizability(mo, spec.function.kind(), spec.grouping);

  // Group the facts, then evaluate every group in canonical order.
  std::map<GroupKey, Group> groups;
  for (FactId fact : mo.facts()) {
    auto coordinates = GroupingCoordinates(mo, spec, fact);
    if (coordinates.has_value()) AccumulateFact(n, fact, *coordinates, groups);
  }
  std::vector<Evaluation> evals;
  evals.reserve(groups.size());
  for (auto& [key, group] : groups) {
    MDDC_ASSIGN_OR_RETURN(Evaluation eval, Evaluate(mo, spec, group));
    evals.push_back(std::move(eval));
  }

  // Argument dimensions restricted to the categories at or above the
  // grouping categories, plus the result dimension.
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(Dimension restricted,
                          mo.dimension(i).RestrictAbove(spec.grouping[i]));
    dimensions.push_back(std::move(restricted));
  }
  MDDC_ASSIGN_OR_RETURN(Dimension result_dim,
                        ResultDimension(mo, spec, summarizability));
  const CategoryTypeIndex result_bottom = result_dim.type().bottom();
  dimensions.push_back(std::move(result_dim));
  MdObject result(StrCat("Set-of-", mo.schema().fact_type()),
                  std::move(dimensions), mo.registry(), mo.temporal_type());

  // One set-fact per group, related to its grouping values and to
  // g(group). Auto result values intern by the double's bit pattern.
  std::map<std::uint64_t, ValueId> auto_values;
  std::size_t g = 0;
  for (const auto& [key, group] : groups) {
    const Evaluation& eval = evals[g++];
    const FactId group_fact = mo.registry()->Set(group.members);
    MDDC_RETURN_NOT_OK(result.AddFact(group_fact));
    for (std::size_t i = 0; i < n; ++i) {
      // Members whose spans do not overlap still group atemporally.
      const Lifespan& life = group.life_per_dim[i];
      MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(
          group_fact, key[i], life.Empty() ? Lifespan::AlwaysSpan() : life,
          group.prob_per_dim[i]));
    }
    Dimension& out = result.dimension_mutable(n);
    ValueId result_value;
    if (spec.result.is_auto()) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(eval.value);
      auto it = auto_values.find(bits);
      if (it == auto_values.end()) {
        MDDC_ASSIGN_OR_RETURN(result_value, out.AddValueAuto(result_bottom));
        MDDC_RETURN_NOT_OK(out.RepresentationFor(result_bottom, "Value")
                               .Set(result_value, FormatDouble(eval.value)));
        auto_values.emplace(bits, result_value);
      } else {
        result_value = it->second;
      }
    } else {
      MDDC_ASSIGN_OR_RETURN(result_value, spec.result.Map(eval.value));
      if (!out.HasValue(result_value)) {
        return Status::InvalidArgument(
            StrCat("result mapper returned value ", result_value,
                   " not present in the result dimension prototype"));
      }
    }
    MDDC_RETURN_NOT_OK(result.relation_mutable(n).Add(
        group_fact, result_value,
        eval.result_life.Empty() ? Lifespan::AlwaysSpan() : eval.result_life));
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

namespace {

/// Merges two partial results of a distributive function.
double MergePartials(AggregateFunctionKind kind, double a, double b) {
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

Result<MdObject> RollUpAggregate(
    const MdObject& base, const MdObject& cached, const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping) {
  const std::size_t n = grouping.size();
  const std::size_t result_dim = cached.dimension_count() - 1;
  // The requested base categories, found in the cached (restricted)
  // dimension types by name.
  std::vector<CategoryTypeIndex> categories(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name =
        base.dimension(i).type().category(grouping[i]).name;
    MDDC_ASSIGN_OR_RETURN(categories[i],
                          cached.dimension(i).type().Find(name));
  }

  struct Merged {
    std::vector<FactId> members;
    double value = 0.0;
    bool first = true;
  };
  std::map<GroupKey, Merged> merged;
  for (FactId group : cached.facts()) {
    GroupKey key(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Dimension& dimension = cached.dimension(i);
      const std::vector<const FactDimRelation::Entry*> pairs =
          cached.relation(i).ForFact(group);
      if (pairs.empty()) {
        return Status::InvariantViolation("cached group missing a value");
      }
      const ValueId fine = pairs.front()->value;
      if (categories[i] == dimension.type().top()) {
        key[i] = dimension.top_value();
        continue;
      }
      auto fine_category = dimension.CategoryOf(fine);
      if (fine_category.ok() && *fine_category == categories[i]) {
        key[i] = fine;
        continue;
      }
      auto coarser = dimension.AncestorsIn(fine, categories[i]);
      if (coarser.size() != 1) {
        return Status::InvariantViolation(
            StrCat("non-strict step above cached grouping in dimension '",
                   dimension.name(), "'; partial results cannot be merged"));
      }
      key[i] = coarser.front().value;
    }
    const std::vector<const FactDimRelation::Entry*> result_pairs =
        cached.relation(result_dim).ForFact(group);
    if (result_pairs.empty()) {
      return Status::InvariantViolation("cached group missing its result");
    }
    MDDC_ASSIGN_OR_RETURN(double partial,
                          cached.dimension(result_dim)
                              .NumericValueOf(result_pairs.front()->value));
    MDDC_ASSIGN_OR_RETURN(FactTerm term, cached.registry()->Get(group));
    Merged& slot = merged[key];
    slot.members.insert(slot.members.end(), term.members.begin(),
                        term.members.end());
    slot.value = slot.first
                     ? partial
                     : MergePartials(function.kind(), slot.value, partial);
    slot.first = false;
  }

  // Argument dimensions restricted above the requested categories, plus
  // a fresh auto result dimension typed like the cached one.
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(Dimension restricted,
                          cached.dimension(i).RestrictAbove(categories[i]));
    dimensions.push_back(std::move(restricted));
  }
  const DimensionType& cached_type = cached.dimension(result_dim).type();
  DimensionTypeBuilder builder("Result");
  builder.AddCategory("Value", cached_type.AggType(cached_type.bottom()));
  MDDC_ASSIGN_OR_RETURN(auto result_type, builder.Build());
  dimensions.emplace_back(result_type);
  MdObject result(cached.schema().fact_type(), std::move(dimensions),
                  cached.registry(), cached.temporal_type());
  Dimension& out = result.dimension_mutable(n);
  const CategoryTypeIndex bottom = result_type->bottom();
  Representation& rep = out.RepresentationFor(bottom, "Value");
  std::map<std::uint64_t, ValueId> values;  // by the double's bits
  for (const auto& [key, slot] : merged) {
    const FactId fact = cached.registry()->Set(slot.members);
    MDDC_RETURN_NOT_OK(result.AddFact(fact));
    for (std::size_t i = 0; i < n; ++i) {
      MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(fact, key[i]));
    }
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(slot.value);
    auto it = values.find(bits);
    if (it == values.end()) {
      MDDC_ASSIGN_OR_RETURN(ValueId value, out.AddValueAuto(bottom));
      MDDC_RETURN_NOT_OK(rep.Set(value, FormatDouble(slot.value)));
      it = values.emplace(bits, value).first;
    }
    MDDC_RETURN_NOT_OK(result.relation_mutable(n).Add(fact, it->second));
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

}  // namespace reference
}  // namespace mddc
