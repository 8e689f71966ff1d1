#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced run's view of a statement. ServerSession::Execute is one
// public call, so the traced run replays each statement through the
// public functions that ServerSession and the compiled MDQL path call —
// Parse, LowerSelect + Rewrite, ValidTimeslice, BuildWhere +
// Predicate::Evaluate, AggregateStream, QueryResult::ToString for reads;
// Parse, MoStore::AppendBatch and ApplyInsert for writes — with one span
// around each. The replayed read renders the same bytes as production;
// the caller checks that, so a replay that drifts from the program
// fails the run instead of misattributing time.

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "bench_stats.h"
#include "common/result.h"
#include "engine/executor.h"
#include "mdql/mdql.h"
#include "serve/mo_store.h"

namespace perfbench {

/// Work the replayed reads did: facts the scan visited (after any
/// timeslice) and rows rendered.
struct ReplayCounters {
  std::uint64_t facts_scanned = 0;
  std::uint64_t rows = 0;
};

/// Replays reads against the store's current snapshot, with a private
/// per-MO view and plan cache that follow ServerSession's and
/// mdql::Session's rules: the view is rebuilt when the pinned epoch
/// moves, and the plan cache (text -> compiled) starts empty with every
/// view and is cleared when full.
class ReadReplayer {
 public:
  explicit ReadReplayer(mddc::serve::MoStore* store) : store_(store) {}

  /// Replays one SELECT, recording its spans in `tracer`. `fused` is the
  /// production session's physical choice for the statement (its
  /// fused_pipelines counter), so the replay runs the same path. Returns
  /// the rendered table.
  mddc::Result<std::string> Replay(const std::string& statement, bool fused,
                                   Tracer* tracer);

  const ReplayCounters& counters() const { return counters_; }

 private:
  struct View {
    std::uint64_t epoch = 0;
    mddc::mdql::Session session;
    std::set<std::string> compiled;  // the emulated plan cache
  };

  mddc::serve::MoStore* store_;
  std::map<std::string, View> views_;
  ReplayCounters counters_;
};

/// Replays one INSERT the way ServerSession routes it: Parse, then
/// MoStore::AppendBatch whose mutator runs ApplyInsert, then the
/// acknowledgment's ToString. `append_stats` accumulates the seal's
/// counters; `epoch` receives the published epoch. Returns the rendered
/// acknowledgment.
mddc::Result<std::string> ReplayInsert(mddc::serve::MoStore* store,
                                       const std::string& statement,
                                       Tracer* tracer,
                                       mddc::ExecStats* append_stats,
                                       std::uint64_t* epoch);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
