#include "mdql/mdql.h"

#include "common/strings.h"
#include "common/table_printer.h"
#include "core/aggregation.h"
#include "engine/executor.h"
#include "mdql/bind.h"
#include "mdql/parser.h"
#include "mdql/physical.h"

namespace mddc {
namespace mdql {
namespace {

Result<QueryResult> ExecuteShow(const MdObject& mo,
                                const ShowStatement& show) {
  QueryResult result;
  if (show.what == ShowStatement::What::kDimensions) {
    result.columns = {"dimension", "categories", "bottom", "values"};
    for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
      const Dimension& dimension = mo.dimension(i);
      const DimensionType& type = dimension.type();
      result.rows.push_back({dimension.name(),
                             std::to_string(type.category_count()),
                             type.category(type.bottom()).name,
                             std::to_string(dimension.value_count())});
    }
    return result;
  }
  MDDC_ASSIGN_OR_RETURN(std::size_t dim,
                        mo.FindDimension(show.dimension.view()));
  const Dimension& dimension = mo.dimension(dim);
  const DimensionType& type = dimension.type();
  if (show.what == ShowStatement::What::kPaths) {
    result.columns = {"path"};
    for (const auto& path : type.AggregationPaths(type.bottom())) {
      std::vector<std::string> names;
      for (CategoryTypeIndex c : path) names.push_back(type.category(c).name);
      result.rows.push_back({Join(names, " < ")});
    }
    return result;
  }
  result.columns = {"category", "agg type", "contained in", "values"};
  for (CategoryTypeIndex c : type.AtOrAbove(type.bottom())) {
    std::vector<std::string> parents;
    for (CategoryTypeIndex p : type.Pred(c)) {
      parents.push_back(type.category(p).name);
    }
    result.rows.push_back(
        {type.category(c).name,
         std::string(AggregationTypeName(type.AggType(c))),
         Join(parents, ", "),
         std::to_string(dimension.ValuesIn(c).size())});
  }
  return result;
}

}  // namespace

bool IsMutating(const Statement& statement) {
  return (statement.insert.has_value() || statement.del.has_value()) &&
         !statement.explain;
}

std::string_view StatementMoName(const Statement& statement) {
  if (statement.select.has_value()) return statement.select->mo_name.view();
  if (statement.insert.has_value()) return statement.insert->mo_name.view();
  if (statement.del.has_value()) return statement.del->mo_name.view();
  return statement.show->mo_name.view();
}

Result<QueryResult> ApplyInsert(MdObject& mo, const InsertStatement& insert) {
  if (insert.facts.empty()) {
    return Status::InvalidArgument("INSERT needs at least one FACT group");
  }
  // Resolve every assignment of every fact before mutating anything, so
  // a bad name anywhere in the batch leaves the MO untouched.
  struct Resolved {
    std::size_t dim;
    ValueId value;
    double prob;
  };
  std::vector<std::vector<Resolved>> resolved;
  resolved.reserve(insert.facts.size());
  for (const InsertFact& fact : insert.facts) {
    if (fact.assignments.empty()) {
      return Status::InvalidArgument(
          "INSERT needs at least one level assignment per fact");
    }
    std::vector<Resolved> per_fact;
    per_fact.reserve(fact.assignments.size());
    for (const InsertAssignment& assign : fact.assignments) {
      MDDC_ASSIGN_OR_RETURN(ResolvedLevel level, Resolve(mo, assign.level));
      MDDC_ASSIGN_OR_RETURN(ValueId value,
                            ResolveValueByName(mo, level, assign.text,
                                               /*exec=*/nullptr));
      if (assign.prob < 0.0 || assign.prob > 1.0) {
        return Status::InvalidArgument(
            StrCat("probability out of [0,1]: ", assign.prob));
      }
      per_fact.push_back(Resolved{level.dim, value, assign.prob});
    }
    resolved.push_back(std::move(per_fact));
  }

  QueryResult ack;
  ack.columns = {"inserted", "fact"};
  std::vector<FactId> inserted;
  inserted.reserve(insert.facts.size());
  for (std::size_t i = 0; i < insert.facts.size(); ++i) {
    const FactId fact = mo.registry()->Atom(insert.facts[i].key);
    MDDC_RETURN_NOT_OK(mo.AddFact(fact));
    for (const Resolved& r : resolved[i]) {
      MDDC_RETURN_NOT_OK(
          mo.Relate(r.dim, fact, r.value, Lifespan::AlwaysSpan(), r.prob));
    }
    inserted.push_back(fact);
    ack.rows.push_back({"1", mo.registry()->ToString(fact)});
  }
  // Cover only the inserted facts: statements land on MOs whose existing
  // facts are already covered, and the continuous-ingestion path cannot
  // afford a full O(|F| * dims) rescan per batch (docs/ingestion.md).
  MDDC_RETURN_NOT_OK(mo.CoverWithTop(inserted));
  return ack;
}

Result<QueryResult> ApplyDelete(MdObject& mo, const DeleteStatement& del) {
  const FactId fact = mo.registry()->Atom(del.key);
  MDDC_RETURN_NOT_OK(mo.RemoveFact(fact));
  QueryResult ack;
  ack.columns = {"deleted", "fact", "path"};
  ack.rows.push_back(
      {"1", mo.registry()->ToString(fact),
       "full-rebuild (deletes are not maintained incrementally)"});
  return ack;
}

Result<QueryResult> ExecuteRead(const MdObject& mo, const Statement& statement,
                                const CompileOptions& options,
                                ExecContext* exec,
                                const PreAggregateCache* preagg) {
  if (IsMutating(statement)) {
    return Status::InvalidArgument(
        "INSERT and DELETE mutate their MO; ExecuteRead runs reads only");
  }
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (statement.explain) {
      return ExplainStatement(mo, statement, options, exec, preagg);
    }
    if (statement.show.has_value()) return ExecuteShow(mo, *statement.show);
    return ExecuteSelect(mo, *statement.select, options, exec, preagg);
  }();
  // Statement boundary: rewind the query-lifetime arenas (a no-op when
  // the statement's operators reclaimed their scratch already).
  if (exec != nullptr) exec->ResetQueryArenas();
  return result;
}

std::string QueryResult::ToString() const {
  TablePrinter printer(columns);
  for (const auto& row : rows) printer.AddRow(row);
  return printer.ToString();
}

Status Session::Register(std::string name, MdObject mo) {
  if (catalog_.count(name) != 0) {
    return Status::InvariantViolation(
        StrCat("MO '", name, "' already registered"));
  }
  catalog_.emplace(std::move(name), std::move(mo));
  return Status::OK();
}

std::vector<std::string> Session::names() const {
  std::vector<std::string> result;
  result.reserve(catalog_.size());
  for (const auto& [name, mo] : catalog_) result.push_back(name);
  return result;
}

Result<const MdObject*> Session::Get(std::string_view name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound(StrCat("no MO named '", name, "' is registered"));
  }
  return &it->second;
}

Result<QueryResult> Session::Execute(const std::string& query,
                                     ExecContext* exec) {
  MDDC_ASSIGN_OR_RETURN(Statement statement, Parse(query));
  return Execute(statement, exec);
}

Result<QueryResult> Session::Execute(const Statement& statement,
                                     ExecContext* exec) {
  const std::string_view mo_name = StatementMoName(statement);
  auto it = catalog_.find(mo_name);
  if (it == catalog_.end()) {
    return Status::NotFound(StrCat("no MO named '", mo_name,
                                   "' is registered in this session"));
  }
  if (!IsMutating(statement)) {
    return ExecuteRead(it->second, statement, compile_options_, exec);
  }
  if (statement.insert.has_value()) {
    return ApplyInsert(it->second, *statement.insert);
  }
  return ApplyDelete(it->second, *statement.del);
}

}  // namespace mdql
}  // namespace mddc
