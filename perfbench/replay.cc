#include "replay.h"

#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "common/strings.h"
#include "core/fact.h"
#include "mdql/bind.h"
#include "mdql/parser.h"
#include "mdql/plan.h"
#include "mdql/rewrite.h"
#include "temporal/chronon.h"

namespace perfbench {
namespace {

using namespace mddc;
using mdql::QueryResult;

/// mdql::Session's plan-cache capacity: the cache is cleared when full.
constexpr std::size_t kPlanCacheCapacity = 256;

/// The fused physical pipeline of compiled MDQL (mdql/physical.cc,
/// ExecuteFused), step for step, with a span per layer: timeslice, WHERE
/// mask, name binding, the stream group-by, and result assembly.
Result<QueryResult> ReplayFused(const MdObject& source,
                                const mdql::SelectStatement& select,
                                ExecContext* exec, Tracer* tracer,
                                ReplayCounters* counters) {
  const MdObject* work = &source;
  std::optional<MdObject> sliced;
  if (select.as_of.has_value()) {
    Tracer::Scope span(tracer, "algebra.timeslice");
    Chronon day = kNowChronon;
    if (*select.as_of != "NOW") {
      MDDC_ASSIGN_OR_RETURN(day, ParseDate(*select.as_of));
    }
    MDDC_ASSIGN_OR_RETURN(MdObject cut, ValidTimeslice(source, day, exec));
    sliced.emplace(std::move(cut));
    work = &*sliced;
  }
  const MdObject& mo = *work;
  const std::size_t n = mo.dimension_count();

  QueryResult result;
  for (const mdql::GroupRef& group : select.group_by) {
    result.columns.push_back(
        StrCat(group.level.dimension, ".", group.level.category));
  }
  for (const mdql::AggRef& agg : select.aggregates) {
    result.columns.push_back(agg.label);
  }

  std::vector<bool> keep;
  const std::vector<bool>* keep_ptr = nullptr;
  if (select.where != nullptr) {
    Tracer::Scope span(tracer, "algebra.where");
    MDDC_ASSIGN_OR_RETURN(Predicate predicate,
                          mdql::BuildWhere(mo, *select.where, exec));
    keep.reserve(mo.facts().size());
    for (FactId fact : mo.facts()) {
      MDDC_ASSIGN_OR_RETURN(bool match, predicate.Evaluate(mo, fact));
      keep.push_back(match);
    }
    keep_ptr = &keep;
  }

  struct Column {
    std::size_t dim;
    std::string representation;
  };
  std::vector<Column> columns;
  std::vector<CategoryTypeIndex> grouping(n);
  StreamSpec spec;
  Status bind_error = Status::OK();
  {
    Tracer::Scope span(tracer, "mdql.bind");
    for (std::size_t i = 0; i < n; ++i) {
      grouping[i] = mo.dimension(i).type().top();
    }
    for (const mdql::GroupRef& group : select.group_by) {
      MDDC_ASSIGN_OR_RETURN(mdql::ResolvedLevel level,
                            mdql::Resolve(mo, group.level));
      columns.push_back(
          Column{level.dim, mdql::PickRepresentation(mo, level,
                                                     group.representation)});
      grouping[level.dim] = level.category;
    }
    for (const mdql::AggRef& agg : select.aggregates) {
      auto function = mdql::BuildAggFunction(mo, agg);
      if (!function.ok()) {
        bind_error = function.status();
        break;
      }
      spec.functions.push_back(*function);
    }
  }
  spec.grouping = grouping;
  spec.prob_at = kNowChronon;
  spec.keep = keep_ptr;
  spec.collect_members = true;
  std::vector<StreamGroup> groups;
  {
    Tracer::Scope span(tracer, "algebra.stream");
    MDDC_ASSIGN_OR_RETURN(groups, AggregateStream(mo, spec, exec));
  }
  counters->facts_scanned += mo.facts().size();
  if (!bind_error.ok()) return bind_error;

  Tracer::Scope span(tracer, "mdql.assemble");
  {
    std::set<std::vector<FactId>> seen;
    std::vector<StreamGroup> unique;
    unique.reserve(groups.size());
    for (StreamGroup& group : groups) {
      if (seen.insert(std::move(group.member_facts)).second) {
        unique.push_back(std::move(group));
      }
    }
    groups = std::move(unique);
  }
  std::vector<std::size_t> live_pos(n, 0);
  {
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (grouping[i] != mo.dimension(i).type().top()) live_pos[i] = next++;
    }
  }
  std::vector<std::vector<std::string>> labels(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const Column& column : columns) {
      const Dimension& dimension = mo.dimension(column.dim);
      const ValueId value = groups[g].key[live_pos[column.dim]];
      std::string label = "?";
      auto category = dimension.CategoryOf(value);
      if (category.ok()) {
        auto rep =
            dimension.FindRepresentation(*category, column.representation);
        if (rep.ok()) {
          auto text = (*rep)->Get(value, kNowChronon);
          if (text.ok()) label = *text;
        }
      }
      if (label == "?") label = StrCat("id:", value.raw());
      labels[g].push_back(std::move(label));
    }
  }
  std::map<std::vector<std::string>, std::vector<std::string>> merged;
  for (std::size_t a = 0; a < spec.functions.size(); ++a) {
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (labels[x] != labels[y]) return labels[x] < labels[y];
      return groups[x].values[a] < groups[y].values[a];
    });
    for (std::size_t g : order) {
      auto [it, inserted] = merged.try_emplace(
          labels[g], std::vector<std::string>(select.aggregates.size(), "-"));
      it->second[a] = FormatDouble(groups[g].values[a]);
    }
  }
  for (const auto& [group, values] : merged) {
    std::vector<std::string> row = group;
    row.insert(row.end(), values.begin(), values.end());
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace

Result<std::string> ReadReplayer::Replay(const std::string& statement,
                                         bool fused, Tracer* tracer) {
  mdql::Statement parsed;
  {
    Tracer::Scope span(tracer, "mdql.parse");
    MDDC_ASSIGN_OR_RETURN(parsed, mdql::Parse(statement));
  }
  if (!parsed.select.has_value() || parsed.explain) {
    return Status::InvalidArgument("only SELECT statements are replayed");
  }
  const std::shared_ptr<const serve::MoSnapshot> snapshot = store_->Pin();
  const std::string name(mdql::StatementMoName(parsed));
  auto it = views_.find(name);
  if (it == views_.end() || it->second.epoch != snapshot->epoch()) {
    Tracer::Scope span(tracer, "serve.view_build");
    const serve::PublishedMo* entry = snapshot->Find(name);
    if (entry == nullptr) {
      return Status::NotFound(StrCat("no MO named '", name, "' is published"));
    }
    View view;
    view.epoch = snapshot->epoch();
    MDDC_RETURN_NOT_OK(view.session.Register(
        name, entry->mo().WithRegistry(
                  FactRegistry::ForkOf(entry->mo().registry()))));
    it = views_.insert_or_assign(name, std::move(view)).first;
  }
  View& view = it->second;
  MDDC_ASSIGN_OR_RETURN(const MdObject* mo, view.session.Get(name));

  ExecContext exec(/*threads=*/1, /*min_facts=*/4096);
  const mdql::SelectStatement& select = *parsed.select;
  if (view.compiled.count(statement) == 0) {
    {
      Tracer::Scope span(tracer, "mdql.compile");
      mdql::PlanRef plan = mdql::LowerSelect(select.mo_name, mo, select);
      mdql::Rewrite(std::move(plan), view.session.compile_options().rewrites,
                    &exec);
    }
    if (view.compiled.size() >= kPlanCacheCapacity) view.compiled.clear();
    view.compiled.insert(statement);
  }
  Result<QueryResult> result =
      Status::InvalidArgument("statement was not executed");
  if (fused) {
    result = ReplayFused(*mo, select, &exec, tracer, &counters_);
  } else {
    Tracer::Scope span(tracer, "algebra.treewalk");
    result = mdql::ExecuteSelectTreeWalk(*mo, select, &exec);
    counters_.facts_scanned += mo->facts().size();
  }
  exec.ResetQueryArenas();
  MDDC_RETURN_NOT_OK(result.status());
  counters_.rows += result->rows.size();
  Tracer::Scope span(tracer, "mdql.render");
  return result->ToString();
}

Result<std::string> ReplayInsert(serve::MoStore* store,
                                 const std::string& statement, Tracer* tracer,
                                 ExecStats* append_stats,
                                 std::uint64_t* epoch) {
  mdql::Statement parsed;
  {
    Tracer::Scope span(tracer, "mdql.parse");
    MDDC_ASSIGN_OR_RETURN(parsed, mdql::Parse(statement));
  }
  if (!parsed.insert.has_value() || parsed.explain) {
    return Status::InvalidArgument("only INSERT statements are replayed");
  }
  QueryResult ack;
  {
    Tracer::Scope span(tracer, "serve.append");
    MDDC_RETURN_NOT_OK(store->AppendBatch(
        std::string(mdql::StatementMoName(parsed)),
        [&](MdObject& draft) -> Status {
          Tracer::Scope apply(tracer, "mdql.apply");
          MDDC_ASSIGN_OR_RETURN(ack, mdql::ApplyInsert(draft, *parsed.insert));
          return Status::OK();
        },
        epoch, append_stats));
  }
  Tracer::Scope span(tracer, "mdql.render");
  return ack.ToString();
}

}  // namespace perfbench
