#include "serve/mdql_server.h"

#include <cstdio>
#include <utility>

#include <algorithm>

#include "common/strings.h"
#include "core/fact.h"
#include "engine/advisor.h"
#include "mdql/bind.h"
#include "mdql/parser.h"

namespace mddc {
namespace serve {

std::string SessionStats::ToJson() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"queries\": %llu, \"reads\": %llu, \"writes\": %llu, "
                "\"errors\": %llu, \"last_epoch\": %llu, \"exec\": ",
                static_cast<unsigned long long>(queries),
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(writes),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(last_epoch));
  return StrCat(buffer, exec.ToJson(), "}");
}

Result<mdql::QueryResult> ServerSession::Execute(const std::string& statement) {
  ++stats_.queries;
  auto parsed = mdql::Parse(statement);
  if (!parsed.ok()) {
    ++stats_.errors;
    return parsed.status();
  }
  auto result = mdql::IsMutating(*parsed) ? ExecuteWrite(*parsed)
                                          : ExecuteRead(*parsed);
  if (!result.ok()) ++stats_.errors;
  return result;
}

Result<mdql::QueryResult> ServerSession::ExecuteRead(
    const mdql::Statement& statement) {
  ++stats_.reads;
  // The whole read-side synchronization: one Pin(). Everything reachable
  // from the snapshot is immutable, so the statement runs on the shared
  // sealed MO directly.
  const std::shared_ptr<const MoSnapshot> snapshot = store_->Pin();
  stats_.last_epoch = snapshot->epoch();

  const std::string name(mdql::StatementMoName(statement));
  const PublishedMo* entry = snapshot->Find(name);
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no MO named '", name,
                                   "' is published at epoch ",
                                   snapshot->epoch()));
  }
  ExecContext exec(threads_per_query_, /*min_facts=*/4096);
  // The epoch's warm pre-aggregates answer the SELECTs they cover
  // exactly, without a scan (mdql::ExecuteSelect).
  auto result = mdql::ExecuteRead(entry->mo(), statement,
                                  mdql::CompileOptions(), &exec,
                                  entry->preagg.get());
  stats_.exec.MergeFrom(exec.stats);
  // Only executed SELECTs feed the advisor: an EXPLAINed one never ran.
  if (result.ok() && statement.select.has_value() && !statement.explain) {
    LogSelect(entry->mo(), name, *statement.select);
  }
  return result;
}

void ServerSession::LogSelect(const MdObject& mo, const std::string& name,
                              const mdql::SelectStatement& select) {
  std::vector<CategoryTypeIndex> grouping(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping[i] = mo.dimension(i).type().top();
  }
  for (const mdql::GroupRef& group : select.group_by) {
    auto level = mdql::Resolve(mo, group.level);
    if (!level.ok()) return;
    grouping[level->dim] = level->category;
  }
  std::vector<LoggedQuery>& log = query_log_[name];
  for (const mdql::AggRef& agg : select.aggregates) {
    auto function = mdql::BuildAggFunction(mo, agg);
    if (!function.ok()) continue;
    auto match = std::find_if(log.begin(), log.end(), [&](LoggedQuery& q) {
      return q.function.kind() == function->kind() &&
             q.function.args() == function->args() && q.grouping == grouping;
    });
    if (match != log.end()) {
      ++match->count;
    } else {
      log.push_back(LoggedQuery{*function, grouping, 1});
    }
  }
}

Status ServerSession::AdviseWarmAggregates(const std::string& name,
                                           std::size_t max_materializations) {
  auto it = query_log_.find(name);
  if (it == query_log_.end() || it->second.empty()) return Status::OK();

  // The advisor sizes its cost model from the published MO.
  const std::shared_ptr<const MoSnapshot> snapshot = store_->Pin();
  const PublishedMo* entry = snapshot->Find(name);
  if (entry == nullptr) {
    return Status::NotFound(
        StrCat("no MO named '", name, "' is published"));
  }

  // One advisor run per distinct function, highest total frequency
  // first, sharing the materialization budget.
  struct FnWorkload {
    const AggFunction* function;
    std::vector<AdvisorQuery> queries;
    double total = 0.0;
  };
  std::vector<FnWorkload> workloads;
  for (const LoggedQuery& logged : it->second) {
    auto match = std::find_if(
        workloads.begin(), workloads.end(), [&](const FnWorkload& w) {
          return w.function->kind() == logged.function.kind() &&
                 w.function->args() == logged.function.args();
        });
    if (match == workloads.end()) {
      workloads.push_back(FnWorkload{&logged.function, {}, 0.0});
      match = std::prev(workloads.end());
    }
    match->queries.push_back(
        AdvisorQuery{logged.grouping, static_cast<double>(logged.count)});
    match->total += static_cast<double>(logged.count);
  }
  std::stable_sort(workloads.begin(), workloads.end(),
                   [](const FnWorkload& a, const FnWorkload& b) {
                     return a.total > b.total;
                   });

  std::size_t budget = max_materializations;
  for (const FnWorkload& workload : workloads) {
    if (budget == 0) break;
    MaterializationAdvisor advisor(entry->mo(), *workload.function);
    MDDC_ASSIGN_OR_RETURN(AdvisorPlan plan,
                          advisor.Advise(workload.queries, budget));
    for (const AdvisorChoice& choice : plan.materialize) {
      MDDC_RETURN_NOT_OK(
          store_->WarmAggregate(name, *workload.function, choice.grouping));
      --budget;
    }
  }
  return Status::OK();
}

Result<mdql::QueryResult> ServerSession::ExecuteWrite(
    const mdql::Statement& statement) {
  ++stats_.writes;
  mdql::QueryResult ack;
  std::uint64_t published = 0;
  const std::string name(mdql::StatementMoName(statement));
  if (statement.insert.has_value()) {
    // INSERTs take the batched-append fast path: a pure-append draft is
    // sealed by patching the published bundle (docs/ingestion.md); the
    // store falls back to a full seal when the gate fails.
    MDDC_RETURN_NOT_OK(store_->AppendBatch(
        name,
        [&](MdObject& draft) -> Status {
          MDDC_ASSIGN_OR_RETURN(ack,
                                mdql::ApplyInsert(draft, *statement.insert));
          return Status::OK();
        },
        &published, &stats_.exec));
  } else {
    // DELETEs are structural invalidations: always the full-rebuild
    // sealing path.
    MDDC_RETURN_NOT_OK(store_->Mutate(
        name,
        [&](MdObject& draft) -> Status {
          MDDC_ASSIGN_OR_RETURN(ack, mdql::ApplyDelete(draft, *statement.del));
          return Status::OK();
        },
        &published));
  }
  // The exact epoch this write produced — not store_->epoch(), which may
  // already reflect a concurrent session's later write.
  stats_.last_epoch = published;
  return ack;
}

}  // namespace serve
}  // namespace mddc
