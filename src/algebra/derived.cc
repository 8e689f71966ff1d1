#include "algebra/derived.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace mddc {

Result<MdObject> RollUp(const MdObject& mo, std::size_t dim,
                        CategoryTypeIndex category,
                        const AggFunction& function) {
  if (dim >= mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("roll-up dimension ", dim, " out of range"));
  }
  AggregateSpec spec{function, {}, ResultDimensionSpec::Auto(), kNowChronon,
                     true};
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    spec.grouping.push_back(i == dim ? category : mo.dimension(i).type().top());
  }
  return AggregateFormation(mo, spec);
}

Result<MdObject> DrillDown(const MdObject& base, std::size_t dim,
                           CategoryTypeIndex finer_category,
                           const AggFunction& function) {
  return RollUp(base, dim, finer_category, function);
}

Result<MdObject> ValueJoin(const MdObject& m1, std::size_t dim1,
                           const MdObject& m2, std::size_t dim2,
                           CategoryTypeIndex match_category) {
  if (dim1 >= m1.dimension_count() || dim2 >= m2.dimension_count()) {
    return Status::InvalidArgument("value-join dimension index out of range");
  }
  if (m1.registry() != m2.registry()) {
    return Status::InvalidArgument(
        "value-join requires both MOs to share one fact registry");
  }
  const Dimension& d1 = m1.dimension(dim1);
  const std::string category_name =
      d1.type().category(match_category).name;
  MDDC_ASSIGN_OR_RETURN(CategoryTypeIndex category2,
                        m2.dimension(dim2).type().Find(category_name));

  // Index m2's facts by their characterizing values in the match
  // category.
  std::map<ValueId, std::vector<FactId>> m2_by_value;
  for (FactId fact : m2.facts()) {
    for (const MdObject::Characterization& c :
         m2.CharacterizedBy(fact, dim2)) {
      auto category = m2.dimension(dim2).CategoryOf(c.value);
      if (category.ok() && *category == category2) {
        m2_by_value[c.value].push_back(fact);
      }
    }
  }

  // Result dimensions: all of m1's plus all of m2's (renamed if needed).
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    dimensions.push_back(m1.dimension(i));
  }
  for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
    std::string name = m2.dimension(j).name();
    bool clash = false;
    for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
      if (m1.dimension(i).name() == name) clash = true;
    }
    dimensions.push_back(clash ? m2.dimension(j).RenamedAs(name + "'")
                               : m2.dimension(j));
  }
  MdObject result(
      StrCat("(", m1.schema().fact_type(), ",", m2.schema().fact_type(), ")"),
      std::move(dimensions), m1.registry(), m1.temporal_type());

  FactRegistry& registry = *m1.registry();
  const std::size_t n1 = m1.dimension_count();
  for (FactId f1 : m1.facts()) {
    std::map<FactId, bool> matched;
    for (const MdObject::Characterization& c :
         m1.CharacterizedBy(f1, dim1)) {
      auto category = d1.CategoryOf(c.value);
      if (!category.ok() || *category != match_category) continue;
      auto it = m2_by_value.find(c.value);
      if (it == m2_by_value.end()) continue;
      for (FactId f2 : it->second) matched[f2] = true;
    }
    for (const auto& [f2, unused] : matched) {
      (void)unused;
      FactId pair = registry.Pair(f1, f2);
      MDDC_RETURN_NOT_OK(result.AddFact(pair));
      for (std::size_t i = 0; i < n1; ++i) {
        for (const FactDimRelation::Entry* entry :
             m1.relation(i).ForFact(f1)) {
          MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(
              pair, entry->value, entry->life, entry->prob));
        }
      }
      for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
        for (const FactDimRelation::Entry* entry :
             m2.relation(j).ForFact(f2)) {
          MDDC_RETURN_NOT_OK(result.relation_mutable(n1 + j).Add(
              pair, entry->value, entry->life, entry->prob));
        }
      }
    }
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> DrillAcross(const MoFamily& family, const std::string& a,
                             std::size_t dim_a, const std::string& b,
                             std::size_t dim_b,
                             CategoryTypeIndex match_category) {
  MDDC_ASSIGN_OR_RETURN(bool shared,
                        family.SharesSubdimension(a, dim_a, b, dim_b));
  if (!shared) {
    return Status::SchemaMismatch(
        StrCat("MOs '", a, "' and '", b,
               "' do not share the requested subdimension; drill-across "
               "requires identical value sets and order"));
  }
  MDDC_ASSIGN_OR_RETURN(const MdObject* mo_a, family.Get(a));
  MDDC_ASSIGN_OR_RETURN(const MdObject* mo_b, family.Get(b));
  return ValueJoin(*mo_a, dim_a, *mo_b, dim_b, match_category);
}

Result<MdObject> DuplicateRemoval(const MdObject& mo) {
  // Signature: per dimension, the sorted set of directly related values.
  using Signature = std::vector<std::vector<ValueId>>;
  std::map<Signature, std::vector<FactId>> groups;
  for (FactId fact : mo.facts()) {
    Signature signature(mo.dimension_count());
    for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
      for (const FactDimRelation::Entry* entry :
           mo.relation(i).ForFact(fact)) {
        signature[i].push_back(entry->value);
      }
      std::sort(signature[i].begin(), signature[i].end());
    }
    groups[std::move(signature)].push_back(fact);
  }

  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    dimensions.push_back(mo.dimension(i));
  }
  MdObject result(StrCat("Set-of-", mo.schema().fact_type()),
                  std::move(dimensions), mo.registry(), mo.temporal_type());
  FactRegistry& registry = *mo.registry();
  for (const auto& [signature, members] : groups) {
    FactId group_fact = registry.Set(members);
    MDDC_RETURN_NOT_OK(result.AddFact(group_fact));
    for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
      // The merged pair's time is the union over members (the value
      // combination was current whenever any duplicate was).
      std::map<ValueId, std::pair<Lifespan, double>> merged;
      for (FactId member : members) {
        for (const FactDimRelation::Entry* entry :
             mo.relation(i).ForFact(member)) {
          auto [it, inserted] = merged.try_emplace(
              entry->value, std::make_pair(entry->life, entry->prob));
          if (!inserted) {
            it->second.first = it->second.first.Union(entry->life);
            it->second.second = std::max(it->second.second, entry->prob);
          }
        }
      }
      for (const auto& [value, attachment] : merged) {
        MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(
            group_fact, value, attachment.first, attachment.second));
      }
    }
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> StarJoin(
    const MdObject& mo,
    const std::vector<std::optional<ValueId>>& restrictions) {
  if (restrictions.size() != mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("star-join got ", restrictions.size(),
               " restrictions for a ", mo.dimension_count(),
               "-dimensional MO"));
  }
  Predicate predicate = Predicate::True();
  for (std::size_t i = 0; i < restrictions.size(); ++i) {
    if (restrictions[i].has_value()) {
      predicate = predicate.And(Predicate::CharacterizedBy(i, *restrictions[i]));
    }
  }
  return Select(mo, predicate);
}

Result<std::vector<CategoryTypeIndex>> SqlGrouping(
    const MdObject& mo, const std::vector<SqlGroupBy>& group_by) {
  std::vector<CategoryTypeIndex> grouping(mo.dimension_count(), 0);
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping[i] = mo.dimension(i).type().top();
  }
  for (const SqlGroupBy& column : group_by) {
    if (column.dim >= mo.dimension_count()) {
      return Status::InvalidArgument(
          StrCat("group-by dimension ", column.dim, " out of range"));
    }
    grouping[column.dim] = column.category;
  }
  return grouping;
}

Result<std::vector<SqlRow>> SqlAggregate(const MdObject& mo,
                                         const std::vector<SqlGroupBy>& group_by,
                                         const AggFunction& function,
                                         Chronon at, ExecContext* exec) {
  MDDC_ASSIGN_OR_RETURN(std::vector<CategoryTypeIndex> grouping,
                        SqlGrouping(mo, group_by));
  AggregateSpec spec{function, std::move(grouping),
                     ResultDimensionSpec::Auto(), at, true};
  MDDC_ASSIGN_OR_RETURN(MdObject aggregated, AggregateFormation(mo, spec, exec));
  return SqlRows(aggregated, group_by, at);
}

Result<std::vector<SqlRow>> SqlRows(const MdObject& aggregated,
                                    const std::vector<SqlGroupBy>& group_by,
                                    Chronon at) {
  const std::size_t result_dim = aggregated.dimension_count() - 1;
  std::vector<SqlRow> rows;
  for (FactId group : aggregated.facts()) {
    SqlRow row;
    for (const SqlGroupBy& column : group_by) {
      auto pairs = aggregated.relation(column.dim).ForFact(group);
      std::string label = "?";
      if (!pairs.empty()) {
        ValueId value = pairs.front()->value;
        // New dimension indices: the restricted dimension keeps the
        // category name; find the representation there.
        const Dimension& dimension = aggregated.dimension(column.dim);
        auto category = dimension.CategoryOf(value);
        if (category.ok()) {
          auto rep =
              dimension.FindRepresentation(*category, column.representation);
          if (rep.ok()) {
            auto text = (*rep)->Get(value, at);
            if (text.ok()) label = *text;
          }
        }
        if (label == "?") label = StrCat("id:", value.raw());
      }
      row.group.push_back(std::move(label));
    }
    auto result_pairs = aggregated.relation(result_dim).ForFact(group);
    if (!result_pairs.empty()) {
      const Dimension& dimension = aggregated.dimension(result_dim);
      MDDC_ASSIGN_OR_RETURN(
          double value, dimension.NumericValueOf(result_pairs.front()->value));
      row.value = value;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const SqlRow& a, const SqlRow& b) {
    return a.group != b.group ? a.group < b.group : a.value < b.value;
  });
  return rows;
}

}  // namespace mddc
