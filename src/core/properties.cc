#include "core/properties.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace mddc {
namespace {

/// True when a lifespan's valid time covers chronon `at`.
bool AliveAt(const Lifespan& life, Chronon at) {
  return life.valid.Contains(at);
}

/// Instant or atemporal aliveness: with a chronon, containment at that
/// instant; without, any non-empty valid time counts.
bool AliveDuring(const Lifespan& life, std::optional<Chronon> at) {
  return at.has_value() ? life.valid.Contains(*at) : !life.valid.Empty();
}

/// Partitioning restricted to the part of the hierarchy at or below
/// `upper`: every value of a category strictly below `upper` must have a
/// direct parent in an immediate predecessor category that itself lies at
/// or below `upper`.
bool PartitioningUpTo(const Dimension& dimension, CategoryTypeIndex upper,
                      std::optional<Chronon> at) {
  const DimensionType& type = dimension.type();
  for (CategoryTypeIndex c = 0; c < type.category_count(); ++c) {
    if (c == upper || !type.LessEq(c, upper)) continue;
    std::vector<CategoryTypeIndex> preds;
    for (CategoryTypeIndex p : type.Pred(c)) {
      if (type.LessEq(p, upper)) preds.push_back(p);
    }
    if (preds.empty()) continue;
    for (ValueId e : dimension.ValuesIn(c)) {
      auto membership = dimension.MembershipOf(e);
      if (membership.ok() && !AliveDuring(*membership, at)) continue;
      bool has_parent = false;
      for (CategoryTypeIndex p : preds) {
        if (p == type.top()) {
          has_parent = true;
          break;
        }
        for (const Dimension::Containment& anc :
             dimension.AncestorsIn(e, p)) {
          if (AliveDuring(anc.life, at)) {
            has_parent = true;
            break;
          }
        }
        if (has_parent) break;
      }
      if (!has_parent) return false;
    }
  }
  return true;
}

bool PartitioningUpToAt(const Dimension& dimension, CategoryTypeIndex upper,
                        Chronon at) {
  return PartitioningUpTo(dimension, upper, at);
}

}  // namespace

bool IsStrictMappingAt(const Dimension& dimension, CategoryTypeIndex c1,
                       CategoryTypeIndex c2, Chronon at) {
  for (ValueId e : dimension.ValuesIn(c1)) {
    std::size_t parents = 0;
    for (const Dimension::Containment& anc :
         dimension.AncestorsIn(e, c2, at)) {
      if (AliveAt(anc.life, at)) ++parents;
    }
    if (parents > 1) return false;
  }
  return true;
}

bool IsStrictAt(const Dimension& dimension, Chronon at) {
  const DimensionType& type = dimension.type();
  for (ValueId e : dimension.AllValues()) {
    if (e == dimension.top_value()) continue;
    std::map<CategoryTypeIndex, std::size_t> per_category;
    for (const Dimension::Containment& anc : dimension.AncestorsView(e, at)) {
      if (!AliveAt(anc.life, at)) continue;
      auto category = dimension.CategoryOf(anc.value);
      if (!category.ok() || *category == type.top()) continue;
      if (++per_category[*category] > 1) return false;
    }
  }
  return true;
}

bool IsStrict(const Dimension& dimension) {
  const DimensionType& type = dimension.type();
  for (ValueId e : dimension.AllValues()) {
    if (e == dimension.top_value()) continue;
    std::map<CategoryTypeIndex, std::size_t> per_category;
    for (const Dimension::Containment& anc : dimension.AncestorsView(e)) {
      auto category = dimension.CategoryOf(anc.value);
      if (!category.ok() || *category == type.top()) continue;
      if (++per_category[*category] > 1) return false;
    }
  }
  return true;
}

std::vector<Chronon> CriticalChronons(const Dimension& dimension,
                                      Chronon now_reference) {
  std::set<Chronon> points;
  auto add_element = [&](const TemporalElement& element) {
    for (const Interval& interval : element.intervals()) {
      for (Chronon c : {interval.begin(), interval.end()}) {
        if (c == kNowChronon) {
          points.insert(now_reference != 0 ? now_reference : kNowChronon);
        } else if (c > kMinChronon && c < kForeverChronon) {
          points.insert(c);
          points.insert(c + 1);
          if (c > kMinChronon + 1) points.insert(c - 1);
        }
      }
    }
  };
  for (const Dimension::Edge& edge : dimension.edges()) {
    add_element(edge.life.valid);
  }
  for (ValueId e : dimension.AllValues()) {
    auto membership = dimension.MembershipOf(e);
    if (membership.ok()) add_element(membership->valid);
  }
  if (points.empty()) points.insert(0);
  return std::vector<Chronon>(points.begin(), points.end());
}

bool IsSnapshotStrict(const Dimension& dimension) {
  for (Chronon at : CriticalChronons(dimension)) {
    if (!IsStrictAt(dimension, at)) return false;
  }
  return true;
}

bool IsPartitioningAt(const Dimension& dimension, Chronon at) {
  return PartitioningUpToAt(dimension, dimension.type().top(), at);
}

bool IsSnapshotPartitioning(const Dimension& dimension) {
  for (Chronon at : CriticalChronons(dimension)) {
    if (!IsPartitioningAt(dimension, at)) return false;
  }
  return true;
}

bool IsPartitioning(const Dimension& dimension) {
  const DimensionType& type = dimension.type();
  for (CategoryTypeIndex c = 0; c < type.category_count(); ++c) {
    if (c == type.top()) continue;
    const std::vector<CategoryTypeIndex>& preds = type.Pred(c);
    if (preds.empty()) continue;
    bool pred_is_only_top =
        preds.size() == 1 && preds.front() == type.top();
    if (pred_is_only_top) continue;
    for (ValueId e : dimension.ValuesIn(c)) {
      bool has_parent = false;
      for (CategoryTypeIndex p : preds) {
        if (p == type.top()) {
          has_parent = true;
          break;
        }
        if (!dimension.AncestorsIn(e, p).empty()) {
          has_parent = true;
          break;
        }
      }
      if (!has_parent) return false;
    }
  }
  return true;
}

bool IsPartitioningUpTo(const Dimension& dimension, CategoryTypeIndex upper,
                        std::optional<Chronon> at) {
  return PartitioningUpTo(dimension, upper, at);
}

bool HasStrictPath(const MdObject& mo, std::size_t dim,
                   CategoryTypeIndex category, std::optional<Chronon> at,
                   const std::vector<FactId>* facts) {
  // An in-place scan of the characterization, equivalent to counting the
  // alive values of `category` in CharacterizedBy(fact, dim) per fact but
  // without materializing a characterization map for every fact: the
  // per-value accumulated lifespan is a Union of witness contributions,
  // and both the accumulate filter (!life.Empty()) and AliveDuring factor
  // over Union, so a value is alive iff some single contribution
  // qualifies — testable witness by witness with Overlaps/Contains, no
  // temporal-element copies (docs/memory_layout.md).
  const Dimension& dimension = mo.dimension(dim);
  const FactDimRelation& relation = mo.relation(dim);
  const Chronon prob_at = at.value_or(kNowChronon);
  // Does a contribution of `entry_life` (direct) or
  // `entry_life.Intersect(anc_life)` (through containment) keep its value
  // alive under `at`?
  auto qualifies = [&at](const Lifespan& entry_life,
                         const Lifespan* anc_life) {
    if (anc_life == nullptr) {
      return at.has_value() ? entry_life.valid.Contains(*at) &&
                                  !entry_life.transaction.Empty()
                            : !entry_life.Empty();
    }
    const bool valid_alive =
        at.has_value()
            ? entry_life.valid.Contains(*at) && anc_life->valid.Contains(*at)
            : entry_life.valid.Overlaps(anc_life->valid);
    return valid_alive &&
           entry_life.transaction.Overlaps(anc_life->transaction);
  };
  const ValueId top = dimension.top_value();
  const auto top_category = dimension.CategoryOf(top);
  const bool top_counts = top_category.ok() && *top_category == category;
  std::vector<ValueId> witnesses;  // distinct alive values, reused per fact
  for (FactId fact : facts != nullptr ? *facts : mo.facts()) {
    witnesses.clear();
    const FactDimRelation::EntrySpan entry_indexes =
        relation.EntryIndexesForFact(fact);
    // Top characterizes unconditionally (with AlwaysSpan) whenever the
    // fact has any pair in the dimension — the rule CharacterizedBy
    // applies after accumulation.
    if (top_counts && !entry_indexes.empty()) witnesses.push_back(top);
    for (std::size_t index : entry_indexes) {
      const FactDimRelation::Entry& entry = relation.entries()[index];
      auto consider = [&](ValueId value, bool alive) {
        if (!alive || value == top) return true;
        auto value_category = dimension.CategoryOf(value);
        if (!value_category.ok() || *value_category != category) return true;
        if (std::find(witnesses.begin(), witnesses.end(), value) ==
            witnesses.end()) {
          witnesses.push_back(value);
        }
        return witnesses.size() <= 1;
      };
      if (!consider(entry.value, qualifies(entry.life, nullptr))) {
        return false;
      }
      for (const Dimension::Containment& c :
           dimension.AncestorsView(entry.value, prob_at)) {
        if (!consider(c.value, qualifies(entry.life, &c.life))) return false;
      }
    }
  }
  return true;
}

std::string SummarizabilityReport::ToString() const {
  std::string out = StrCat("summarizable=", summarizable ? "yes" : "no",
                           " distributive=", distributive ? "yes" : "no");
  for (std::size_t i = 0; i < strict_path.size(); ++i) {
    out += StrCat(" dim", i, "[strict-path=", strict_path[i] ? "yes" : "no",
                  ",partitioning=", partitioning[i] ? "yes" : "no", "]");
  }
  return out;
}

SummarizabilityReport CheckSummarizability(
    const MdObject& mo, AggregateFunctionKind kind,
    const std::vector<CategoryTypeIndex>& grouping_categories,
    std::optional<Chronon> at) {
  SummarizabilityReport report;
  report.distributive = IsDistributive(kind);
  report.summarizable = report.distributive;
  for (std::size_t i = 0;
       i < grouping_categories.size() && i < mo.dimension_count(); ++i) {
    // Grouping at TOP puts every fact into the single all-containing
    // group: the path is trivially strict and reachability trivially
    // partitioned ("paths from F to the TOP categories are always
    // strict", Section 3.4 footnote).
    if (grouping_categories[i] == mo.dimension(i).type().top()) {
      report.strict_path.push_back(true);
      report.partitioning.push_back(true);
      continue;
    }
    bool strict = HasStrictPath(mo, i, grouping_categories[i], at);
    bool partitioning =
        PartitioningUpTo(mo.dimension(i), grouping_categories[i], at);
    report.strict_path.push_back(strict);
    report.partitioning.push_back(partitioning);
    report.summarizable = report.summarizable && strict && partitioning;
  }
  return report;
}

}  // namespace mddc
