#ifndef MDDC_SERVE_MDQL_SERVER_H_
#define MDDC_SERVE_MDQL_SERVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/agg_function.h"
#include "common/result.h"
#include "engine/executor.h"
#include "mdql/mdql.h"
#include "serve/mo_store.h"

namespace mddc {
namespace serve {

/// Per-session counters. `exec` accumulates the ExecStats of every
/// read's execution context, so a session can report what the parallel
/// engine did on its behalf across its lifetime.
struct SessionStats {
  std::uint64_t queries = 0;        ///< statements executed (incl. failures)
  std::uint64_t reads = 0;          ///< SELECT / SHOW
  std::uint64_t writes = 0;         ///< INSERT/DELETE (through the writer)
  std::uint64_t errors = 0;         ///< statements that returned a Status
  std::uint64_t last_epoch = 0;     ///< epoch of the last executed statement
  ExecStats exec;

  /// One JSON object; nests ExecStats::ToJson under "exec".
  std::string ToJson() const;
};

/// One client's handle on the serving tier. Reads pin the store's
/// current snapshot and execute on the pinned sealed MO itself, shared
/// with every other reader of that epoch; mutating statements are routed
/// through the store's serialized writer and publish a new epoch. A
/// SELECT the epoch's warm pre-aggregates answer exactly (no WHERE, no
/// ASOF, every function cached over its grouping) renders from them
/// without a scan; any other read takes the fused pipeline or the tree
/// walk (docs/serving.md, "Read path").
///
/// No read copies the MO up front: the algebra builds every result as a
/// new MO and never mutates its operands (paper §4.1), compiled SELECTs
/// intern nothing, and the tree walk that uncovered shapes fall back to
/// (`BY Dim.TOP`, unresolvable levels) interns into a private registry
/// fork (mdql::ExecuteRead). Sealing warmed and froze everything a read
/// touches, so a read costs one Pin() plus one catalog lookup before
/// query execution and never blocks writers or other readers.
///
/// A session is owned by one client thread and is not itself
/// thread-safe; concurrency comes from many sessions.
class ServerSession {
 public:
  /// Parses and executes one MDQL statement against the serving tier.
  Result<mdql::QueryResult> Execute(const std::string& statement);

  /// Epoch this session last executed against: the pinned snapshot's
  /// epoch after a read, the exact published epoch after an INSERT. The
  /// stress harness's oracle relies on both being exact even when other
  /// sessions write concurrently.
  std::uint64_t pinned_epoch() const { return stats_.last_epoch; }

  const SessionStats& stats() const { return stats_; }
  std::string StatsJson() const { return stats_.ToJson(); }

  /// Runs the materialization advisor (engine/advisor.h) over this
  /// session's query log for `name` and registers its choices as warm
  /// pre-aggregates on the store — so every later sealed epoch keeps the
  /// session's hottest groupings pre-computed, and the reads they cover
  /// exactly render from them without a scan. The log records every
  /// successfully executed SELECT's (function, grouping) with its
  /// frequency (an EXPLAIN logs nothing);
  /// groupings the advisor rejects (non-summarizable roll-ups stay
  /// beneficial only to their exact query) are weighed by the same HRU
  /// greedy the advisor always applied offline. Registration is
  /// idempotent, so calling this periodically as the log grows is safe.
  /// At most `max_materializations` specs are registered per call,
  /// spent on the highest-total-frequency functions first. A no-op when
  /// the session has not logged any SELECT against `name`.
  Status AdviseWarmAggregates(const std::string& name,
                              std::size_t max_materializations = 4);

 private:
  friend class MdqlServer;
  ServerSession(MoStore* store, std::size_t threads_per_query)
      : store_(store), threads_per_query_(threads_per_query) {}

  /// One query-log line: a SELECT-list function over a resolved grouping
  /// (one category per dimension, top for ungrouped), and how often the
  /// session executed it.
  struct LoggedQuery {
    AggFunction function;
    std::vector<CategoryTypeIndex> grouping;
    std::uint64_t count = 0;
  };

  Result<mdql::QueryResult> ExecuteRead(const mdql::Statement& statement);
  Result<mdql::QueryResult> ExecuteWrite(const mdql::Statement& statement);

  /// Records a successfully executed SELECT in the query log (advisor
  /// fuel). Best effort: unresolvable levels or unbindable functions are
  /// skipped.
  void LogSelect(const MdObject& mo, const std::string& name,
                 const mdql::SelectStatement& select);

  MoStore* store_;
  std::size_t threads_per_query_;
  std::map<std::string, std::vector<LoggedQuery>, std::less<>> query_log_;
  SessionStats stats_;
};

/// The session factory over one MoStore: the in-process client API of
/// the serving tier (serve/tcp_server.h is the wire front-end on top).
/// Connect() hands out independent sessions; any number of them may
/// execute concurrently, one thread each.
class MdqlServer {
 public:
  explicit MdqlServer(MoStore* store) : store_(store) {}

  /// A new session. `threads_per_query` sizes each read's ExecContext;
  /// the default 1 keeps a session's reads entirely on its own thread
  /// (no shared-pool borrow), which is the right shape when concurrency
  /// comes from many sessions rather than from one big query.
  ServerSession Connect(std::size_t threads_per_query = 1) {
    return ServerSession(store_, threads_per_query);
  }

  MoStore& store() { return *store_; }

 private:
  MoStore* store_;
};

}  // namespace serve
}  // namespace mddc

#endif  // MDDC_SERVE_MDQL_SERVER_H_
