#include "mdql/physical.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/derived.h"
#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/preagg_cache.h"
#include "mdql/bind.h"

namespace mddc {
namespace mdql {
namespace {

/// Decides whether the optimized plan is the shape the fused stream
/// covers: one merge branch, one multi-function aggregate, an operator
/// chain of at most one select over at most one timeslice over the
/// scan, no grouping at TOP, and dead dimensions licensed for pruning.
/// Returns the aggregate node, or null with a human-readable reason
/// (EXPLAIN prints it).
const PlanNode* FusedShape(const PlanRef& plan, const MdObject& source,
                           std::string* reason) {
  if (plan == nullptr || plan->kind != PlanKind::kMerge) {
    *reason = "plan root is not a merge";
    return nullptr;
  }
  if (plan->children.size() != 1) {
    *reason = "merge has several branches (sibling aggregates not merged)";
    return nullptr;
  }
  const PlanNode* agg = plan->children[0].get();
  if (agg->kind != PlanKind::kAggregate) {
    *reason = "merge branch is not an aggregate";
    return nullptr;
  }
  const PlanNode* cur = agg->children[0].get();
  bool seen_select = false;
  bool seen_timeslice = false;
  while (cur->kind != PlanKind::kScan) {
    if (cur->kind == PlanKind::kSelect && !seen_select && !seen_timeslice) {
      seen_select = true;
    } else if (cur->kind == PlanKind::kTimeslice && !seen_timeslice) {
      seen_timeslice = true;
    } else {
      *reason = "operator chain is not select/timeslice/scan";
      return nullptr;
    }
    if (cur->children.size() != 1) {
      *reason = "operator chain branches";
      return nullptr;
    }
    cur = cur->children[0].get();
  }
  std::set<std::size_t> dims;
  for (const GroupRef& group : agg->group_by) {
    auto level = Resolve(source, group.level);
    // An unresolvable column surfaces the identical Status on both
    // paths at execution time; it does not block fusion.
    if (!level.ok()) continue;
    if (level->category == source.dimension(level->dim).type().top()) {
      *reason = "grouping at TOP is not fused";
      return nullptr;
    }
    dims.insert(level->dim);
  }
  if (dims.size() < source.dimension_count() && !agg->prune_dead) {
    *reason = "dead dimensions present but pruning not licensed";
    return nullptr;
  }
  return agg;
}

/// A SELECT the pinned epoch's warm pre-aggregates answer: the
/// statement's BY columns and, per SELECT-list function, the cached
/// formation over their grouping.
struct WarmHit {
  std::vector<SqlGroupBy> group_by;
  std::vector<const MdObject*> formed;
};

/// Decides the warm read for `select` against `preagg`, a cache whose
/// base is `source`: no WHERE, no ASOF, and an exact Peek hit for every
/// function over SqlGrouping's grouping. Empty on any miss, and on any
/// resolve or bind failure, whose Status the fused or tree-walk path then
/// reports. Decided whole before any row renders; never computes and
/// never touches a counter.
std::optional<WarmHit> MatchWarm(const MdObject& source,
                                 const SelectStatement& select,
                                 const PreAggregateCache* preagg) {
  if (preagg == nullptr || &preagg->base() != &source ||
      select.where != nullptr || select.as_of.has_value() ||
      select.aggregates.empty()) {
    return std::nullopt;
  }
  auto group_by = ResolveGroupBy(source, select);
  if (!group_by.ok()) return std::nullopt;
  auto grouping = SqlGrouping(source, *group_by);
  if (!grouping.ok()) return std::nullopt;
  WarmHit hit{std::move(*group_by), {}};
  hit.formed.reserve(select.aggregates.size());
  for (const AggRef& agg : select.aggregates) {
    auto function = BuildAggFunction(source, agg);
    if (!function.ok()) return std::nullopt;
    const MdObject* formed = preagg->Peek(*function, *grouping);
    if (formed == nullptr) return std::nullopt;
    hit.formed.push_back(formed);
  }
  return hit;
}

/// The fused pipeline: timeslice once, push the WHERE down to a keep
/// mask, stream every aggregate through one scan, and render groups the
/// way the interpreter does — including its (labels, value)-sorted
/// per-aggregate overwrite when distinct groups share a label tuple.
/// Every step replays the interpreter's operation order, so the first
/// error (and the rendered bytes) match it exactly.
Result<QueryResult> ExecuteFused(const MdObject& source,
                                 const SelectStatement& select,
                                 ExecContext* exec) {
  const MdObject* work = &source;
  std::optional<MdObject> sliced;
  if (select.as_of.has_value()) {
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
  for (const GroupRef& group : select.group_by) {
    result.columns.push_back(
        StrCat(group.level.dimension, ".", group.level.category));
  }
  for (const AggRef& agg : select.aggregates) {
    result.columns.push_back(agg.label);
  }

  // Selection pushdown: sigma's fact scan, recorded as a mask instead of
  // a materialized MO (a kept fact's coordinates are identical in both),
  // with value-level atoms decided once per distinct value.
  std::vector<bool> keep;
  const std::vector<bool>* keep_ptr = nullptr;
  if (select.where != nullptr) {
    MDDC_ASSIGN_OR_RETURN(Predicate predicate,
                          BuildWhere(mo, *select.where, exec));
    MDDC_ASSIGN_OR_RETURN(
        keep, predicate.EvaluateMask(
                  mo, exec != nullptr ? &exec->stats : nullptr));
    keep_ptr = &keep;
  }

  struct Column {
    std::size_t dim;
    std::string representation;
  };
  std::vector<Column> columns;
  columns.reserve(select.group_by.size());
  std::vector<CategoryTypeIndex> grouping(n);
  for (std::size_t i = 0; i < n; ++i) {
    grouping[i] = mo.dimension(i).type().top();
  }
  for (const GroupRef& group : select.group_by) {
    MDDC_ASSIGN_OR_RETURN(ResolvedLevel level, Resolve(mo, group.level));
    columns.push_back(
        Column{level.dim, PickRepresentation(mo, level, group.representation)});
    grouping[level.dim] = level.category;
  }

  // Bind the functions in statement order. The interpreter interleaves
  // bind(a) / run(a); a bind failure therefore surfaces only after every
  // earlier aggregate ran clean — so the bound prefix streams first and
  // the remembered bind error returns only when the stream succeeds.
  std::vector<AggFunction> functions;
  functions.reserve(select.aggregates.size());
  Status bind_error = Status::OK();
  for (const AggRef& agg : select.aggregates) {
    auto function = BuildAggFunction(mo, agg);
    if (!function.ok()) {
      bind_error = function.status();
      break;
    }
    functions.push_back(*function);
  }

  StreamSpec spec;
  spec.functions = std::move(functions);
  spec.grouping = grouping;
  spec.prob_at = kNowChronon;
  spec.keep = keep_ptr;
  // The stream already collapses groups with one member set into the
  // first, as the formation's set facts do.
  MDDC_ASSIGN_OR_RETURN(std::vector<StreamGroup> groups,
                        AggregateStream(mo, spec, exec));
  if (!bind_error.ok()) return bind_error;

  std::vector<std::size_t> live_pos(n, 0);
  {
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (grouping[i] != mo.dimension(i).type().top()) live_pos[i] = next++;
    }
  }

  // Group labels, via the same representation chain SqlAggregate uses;
  // the stream key value IS the single value the formation would relate
  // the group fact to, so the lookups see identical inputs.
  std::vector<std::vector<std::string>> labels(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    labels[g].reserve(columns.size());
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

  // The interpreter merges each aggregate's (label, value) rows — sorted
  // by group labels then value — into a map, overwriting on label ties.
  // Replay that loop verbatim over the streamed values.
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
          labels[g],
          std::vector<std::string>(select.aggregates.size(), "-"));
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

Result<QueryResult> ExecuteSelect(const MdObject& source,
                                  const SelectStatement& select,
                                  const CompileOptions& options,
                                  ExecContext* exec,
                                  const PreAggregateCache* preagg) {
  if (const std::optional<WarmHit> hit = MatchWarm(source, select, preagg)) {
    if (exec != nullptr) ++exec->stats.warm_reads;
    // The tree walk's rendering, with each formation read from the cache.
    return MergeSelectRows(
        select, [&hit](std::size_t a) -> Result<std::vector<SqlRow>> {
          return SqlRows(*hit->formed[a], hit->group_by, kNowChronon);
        });
  }
  if (options.enable_compiler) {
    return ExecuteCompiledSelect(source, select, options, exec);
  }
  return ExecuteSelectTreeWalk(source, select, exec);
}

Result<QueryResult> ExecuteCompiledSelect(const MdObject& source,
                                          const SelectStatement& select,
                                          const CompileOptions& options,
                                          ExecContext* exec) {
  // The fused stream executes straight off the AST, so the compile work
  // (lower, rewrite fixpoint, shape check) only decides fuse-or-fallback.
  PlanRef plan = LowerSelect(select.mo_name, &source, select);
  RewriteOutcome rewritten = Rewrite(std::move(plan), options.rewrites, exec);
  std::string reason;
  const bool fused = options.enable_fusion &&
                     FusedShape(rewritten.plan, source, &reason) != nullptr;
  if (!fused) {
    if (exec != nullptr) ++exec->stats.plan_fallbacks;
    return ExecuteSelectTreeWalk(source, select, exec);
  }
  if (exec != nullptr) ++exec->stats.fused_pipelines;
  return ExecuteFused(source, select, exec);
}

Result<QueryResult> ExplainStatement(const MdObject& source,
                                     const Statement& statement,
                                     const CompileOptions& options,
                                     ExecContext* exec,
                                     const PreAggregateCache* preagg) {
  QueryResult result;
  result.columns = {"explain"};
  auto line = [&result](std::string text) {
    result.rows.push_back({std::move(text)});
  };
  if (!statement.select.has_value()) {
    line("direct execution (not compiled)");
    return result;
  }
  const SelectStatement& select = *statement.select;
  auto plan_lines = [&line](const std::string& rendered) {
    std::size_t begin = 0;
    while (begin < rendered.size()) {
      std::size_t end = rendered.find('\n', begin);
      if (end == std::string::npos) end = rendered.size();
      line(StrCat("  ", rendered.substr(begin, end - begin)));
      begin = end + 1;
    }
  };

  PlanRef plan = LowerSelect(select.mo_name, &source, select);
  line("logical plan:");
  plan_lines(PrintPlan(plan));
  // EXPLAIN must not perturb counters: the rewriter gets no context.
  RewriteOutcome rewritten =
      Rewrite(std::move(plan), options.rewrites, /*exec=*/nullptr);
  if (rewritten.fired.empty()) {
    line("rewrites: none");
  } else {
    std::vector<std::string> order;
    std::map<std::string, std::size_t> counts;
    for (const std::string& name : rewritten.fired) {
      if (counts[name]++ == 0) order.push_back(name);
    }
    std::vector<std::string> parts;
    for (const std::string& name : order) {
      const std::size_t count = counts[name];
      parts.push_back(count == 1 ? name : StrCat(name, " x", count));
    }
    line(StrCat("rewrites: ", Join(parts, ", ")));
  }
  line("optimized plan:");
  plan_lines(PrintPlan(rewritten.plan));

  line("physical:");
  if (const std::optional<WarmHit> hit = MatchWarm(source, select, preagg)) {
    // Every function's formation has the grouping's groups.
    line(StrCat("  warm pre-aggregate (exact match): ", hit->formed.size(),
                " function(s), ", hit->formed.front()->fact_count(),
                " group(s)"));
    return result;
  }
  if (!options.enable_compiler) {
    line("  tree-walk interpreter (compiler disabled)");
    return result;
  }
  std::string reason;
  const PlanNode* agg = FusedShape(rewritten.plan, source, &reason);
  if (!options.enable_fusion) {
    line("  tree-walk fallback (fusion disabled)");
    return result;
  }
  if (agg == nullptr) {
    line(StrCat("  tree-walk fallback (", reason, ")"));
    return result;
  }
  std::vector<CategoryTypeIndex> grouping;
  grouping.reserve(source.dimension_count());
  for (std::size_t i = 0; i < source.dimension_count(); ++i) {
    grouping.push_back(source.dimension(i).type().top());
  }
  for (const GroupRef& group : agg->group_by) {
    auto level = Resolve(source, group.level);
    if (level.ok()) grouping[level->dim] = level->category;
  }
  std::vector<std::size_t> arg_dims;
  for (const AggRef& aggregate : agg->aggregates) {
    auto function = BuildAggFunction(source, aggregate);
    if (function.ok() && !function->args().empty() &&
        std::find(arg_dims.begin(), arg_dims.end(),
                  function->args().front()) == arg_dims.end()) {
      arg_dims.push_back(function->args().front());
    }
  }
  const StreamProbe probe =
      AggregateStreamProbe(source, grouping, arg_dims, exec);
  line(StrCat("  fused pipeline: scan",
              select.as_of.has_value() ? " -> timeslice" : "",
              select.where != nullptr ? " -> select [pushed-down keep mask]"
                                      : "",
              " -> stream group-by"));
  if (select.where != nullptr) {
    // Binding counts interner probes; EXPLAIN passes no context.
    auto predicate = BuildWhere(source, *select.where, /*exec=*/nullptr);
    line(StrCat("  where: ", predicate.ok()
                                 ? predicate->DescribeMask(source)
                                 : predicate.status().ToString()));
  }
  auto names = [&source](const std::vector<std::size_t>& dims) {
    std::vector<std::string> parts;
    for (std::size_t dim : dims) parts.push_back(source.dimension(dim).name());
    return Join(parts, ", ");
  };
  line(StrCat("  stream: ", agg->aggregates.size(), " function(s), ",
              probe.live.size(), " live dim(s), engine=",
              probe.dense ? "dense-slots" : "flat-hash",
              probe.all_indexed ? "" : " (rollup index unavailable)",
              ", slot product=", probe.slot_product, ", columns: live [",
              names(probe.live_columns), "] arguments [",
              names(probe.arg_columns), "]"));
  return result;
}

}  // namespace mdql
}  // namespace mddc
