#include "mdql/bind.h"

#include <map>
#include <vector>

#include "algebra/derived.h"
#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "common/strings.h"
#include "engine/executor.h"

namespace mddc {
namespace mdql {

Result<ResolvedLevel> Resolve(const MdObject& mo, const LevelRef& level) {
  MDDC_ASSIGN_OR_RETURN(std::size_t dim,
                        mo.FindDimension(level.dimension.view()));
  MDDC_ASSIGN_OR_RETURN(CategoryTypeIndex category,
                        mo.dimension(dim).type().Find(level.category.view()));
  return ResolvedLevel{dim, category};
}

Result<ValueId> ResolveValueByName(const MdObject& mo,
                                   const ResolvedLevel& level,
                                   const std::string& text,
                                   ExecContext* exec) {
  const Dimension& dimension = mo.dimension(level.dim);
  for (const auto& [category, rep_name, rep] :
       dimension.AllRepresentations()) {
    if (category != level.category) continue;
    auto value = rep->Lookup(text);
    if (value.ok()) {
      if (exec != nullptr) ++exec->stats.interner_hits;
      return value;
    }
  }
  if (exec != nullptr) ++exec->stats.interner_misses;
  return Status::NotFound(StrCat("no value named '", text,
                                 "' in category '",
                                 dimension.type().category(level.category).name,
                                 "' of dimension '", dimension.name(), "'"));
}

std::string PickRepresentation(const MdObject& mo, const ResolvedLevel& level,
                               const Name& requested) {
  if (!requested.empty()) return requested.str();
  const Dimension& dimension = mo.dimension(level.dim);
  for (const char* candidate : {"Name", "Code", "Value"}) {
    if (dimension.FindRepresentation(level.category, candidate).ok()) {
      return candidate;
    }
  }
  return "Name";
}

namespace {

/// A predicate that matches no fact (an unknown value name matches
/// nothing; NOT on the atom then matches everything).
Predicate False() { return Predicate::True().Not(); }

Result<Predicate> BuildAtom(const MdObject& mo, const WhereAtom& atom,
                            ExecContext* exec) {
  Predicate leaf = Predicate::True();
  switch (atom.kind) {
    case WhereAtom::Kind::kNameEquals: {
      MDDC_ASSIGN_OR_RETURN(ResolvedLevel level, Resolve(mo, atom.level));
      auto value = ResolveValueByName(mo, level, atom.text, exec);
      leaf = value.ok() ? Predicate::CharacterizedBy(level.dim, *value)
                        : False();
      break;
    }
    case WhereAtom::Kind::kNumericCompare: {
        MDDC_ASSIGN_OR_RETURN(std::size_t dim,
                              mo.FindDimension(atom.dimension.view()));
        switch (atom.cmp) {
          case WhereAtom::Cmp::kLt:
            leaf = Predicate::NumericCompare(
                dim, Predicate::Comparison::kLess, atom.number);
            break;
          case WhereAtom::Cmp::kLe:
            leaf = Predicate::NumericCompare(
                dim, Predicate::Comparison::kLessEq, atom.number);
            break;
          case WhereAtom::Cmp::kEq:
            leaf = Predicate::NumericCompare(dim, Predicate::Comparison::kEq,
                                             atom.number);
            break;
          case WhereAtom::Cmp::kGe:
            leaf = Predicate::NumericCompare(
                dim, Predicate::Comparison::kGreaterEq, atom.number);
            break;
          case WhereAtom::Cmp::kGt:
            leaf = Predicate::NumericCompare(
                dim, Predicate::Comparison::kGreater, atom.number);
            break;
          case WhereAtom::Cmp::kNe:
            leaf = Predicate::NumericCompare(dim, Predicate::Comparison::kEq,
                                             atom.number)
                       .Not()
                       .And(Predicate::HasValueInCategory(
                           dim, mo.dimension(dim).type().bottom()));
            break;
        }
        break;
      }
      case WhereAtom::Kind::kProbAtLeast: {
        MDDC_ASSIGN_OR_RETURN(ResolvedLevel level, Resolve(mo, atom.level));
        auto value = ResolveValueByName(mo, level, atom.text, exec);
        leaf = value.ok()
                   ? Predicate::MinProbability(level.dim, *value, atom.number)
                   : False();
        break;
      }
  }
  if (atom.negated) leaf = leaf.Not();
  return leaf;
}

}  // namespace

Result<Predicate> BuildWhere(const MdObject& mo, const WhereExpr& expr,
                             ExecContext* exec) {
  switch (expr.kind) {
    case WhereExpr::Kind::kAtom:
      return BuildAtom(mo, expr.atom, exec);
    case WhereExpr::Kind::kAnd: {
      MDDC_ASSIGN_OR_RETURN(Predicate left, BuildWhere(mo, *expr.left, exec));
      MDDC_ASSIGN_OR_RETURN(Predicate right,
                            BuildWhere(mo, *expr.right, exec));
      return left.And(std::move(right));
    }
    case WhereExpr::Kind::kOr: {
      MDDC_ASSIGN_OR_RETURN(Predicate left, BuildWhere(mo, *expr.left, exec));
      MDDC_ASSIGN_OR_RETURN(Predicate right,
                            BuildWhere(mo, *expr.right, exec));
      return left.Or(std::move(right));
    }
  }
  return Status::InvalidArgument("unknown WHERE node kind");
}

Result<AggFunction> BuildAggFunction(const MdObject& mo, const AggRef& agg) {
  if (agg.fn == AggRef::Fn::kSetCount) return AggFunction::SetCount();
  MDDC_ASSIGN_OR_RETURN(std::size_t dim,
                        mo.FindDimension(agg.dimension.view()));
  switch (agg.fn) {
    case AggRef::Fn::kCount:
      return AggFunction::Count(dim);
    case AggRef::Fn::kSum:
      return AggFunction::Sum(dim);
    case AggRef::Fn::kAvg:
      return AggFunction::Avg(dim);
    case AggRef::Fn::kMin:
      return AggFunction::Min(dim);
    case AggRef::Fn::kMax:
      return AggFunction::Max(dim);
    case AggRef::Fn::kSetCount:
      break;
  }
  return AggFunction::SetCount();
}

Result<QueryResult> ExecuteSelectTreeWalk(const MdObject& source,
                                          const SelectStatement& select,
                                          ExecContext* exec) {
  // The working copy interns into a private fork of the source registry:
  // formation's set facts never reach the input, which may be a sealed
  // epoch shared by concurrent readers.
  MdObject mo = source.WithRegistry(FactRegistry::ForkOf(source.registry()));
  if (select.as_of.has_value()) {
    // ASOF 'NOW' slices at the growing NOW sentinel: memberships and
    // characterizations whose valid time runs to NOW survive, anything
    // that ended at a concrete chronon is cut — the "current state" of
    // the MO, deterministic because no clock is read.
    Chronon day = kNowChronon;
    if (*select.as_of != "NOW") {
      MDDC_ASSIGN_OR_RETURN(day, ParseDate(*select.as_of));
    }
    MDDC_ASSIGN_OR_RETURN(mo, ValidTimeslice(mo, day, exec));
  }

  if (select.where != nullptr) {
    MDDC_ASSIGN_OR_RETURN(Predicate predicate,
                          BuildWhere(mo, *select.where, exec));
    MDDC_ASSIGN_OR_RETURN(mo, Select(mo, predicate));
  }

  // Resolve grouping columns once, then run each aggregate over the
  // same grouping and merge by group key.
  MDDC_ASSIGN_OR_RETURN(std::vector<SqlGroupBy> group_by,
                        ResolveGroupBy(mo, select));
  return MergeSelectRows(
      select, [&](std::size_t a) -> Result<std::vector<SqlRow>> {
        MDDC_ASSIGN_OR_RETURN(AggFunction function,
                              BuildAggFunction(mo, select.aggregates[a]));
        return SqlAggregate(mo, group_by, function, kNowChronon, exec);
      });
}

Result<std::vector<SqlGroupBy>> ResolveGroupBy(const MdObject& mo,
                                               const SelectStatement& select) {
  std::vector<SqlGroupBy> group_by;
  group_by.reserve(select.group_by.size());
  for (const GroupRef& group : select.group_by) {
    MDDC_ASSIGN_OR_RETURN(ResolvedLevel level, Resolve(mo, group.level));
    group_by.push_back(SqlGroupBy{
        level.dim, level.category,
        PickRepresentation(mo, level, group.representation)});
  }
  return group_by;
}

Result<QueryResult> MergeSelectRows(
    const SelectStatement& select,
    const std::function<Result<std::vector<SqlRow>>(std::size_t)>& rows_of) {
  QueryResult result;
  for (const GroupRef& group : select.group_by) {
    result.columns.push_back(
        StrCat(group.level.dimension, ".", group.level.category));
  }
  for (const AggRef& agg : select.aggregates) {
    result.columns.push_back(agg.label);
  }
  std::map<std::vector<std::string>, std::vector<std::string>> merged;
  for (std::size_t a = 0; a < select.aggregates.size(); ++a) {
    MDDC_ASSIGN_OR_RETURN(std::vector<SqlRow> rows, rows_of(a));
    for (SqlRow& row : rows) {
      auto [it, inserted] = merged.try_emplace(
          row.group,
          std::vector<std::string>(select.aggregates.size(), "-"));
      it->second[a] = FormatDouble(row.value);
    }
  }
  for (const auto& [group, values] : merged) {
    std::vector<std::string> row = group;
    row.insert(row.end(), values.begin(), values.end());
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace mdql
}  // namespace mddc
