#ifndef MDDC_ENGINE_EXECUTOR_H_
#define MDDC_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/arena.h"

namespace mddc {

/// A fixed-size, work-stealing-free thread pool: one shared FIFO task
/// queue drained by `num_threads` std::jthread workers. This is the
/// execution substrate of the parallel aggregate-formation engine (the
/// "efficient implementation using special-purpose algorithms and data
/// structures" of the paper's future-work list, Section 5).
///
/// Tasks are plain void() callables and MUST NOT throw: the codebase's
/// error convention is Status/Result<T>, and no exception may cross the
/// pool boundary. Parallel operators communicate failure by writing a
/// Status into a caller-owned slot and checking the slots — in a
/// deterministic order — after the fan-in.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n) across the workers (the calling
  /// thread participates too) and blocks until every iteration has
  /// finished. Iterations are claimed from a shared counter — no
  /// stealing, no per-worker queues — so any iteration may run on any
  /// thread; callers must make iterations independent (each writes only
  /// its own output slot).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;
};

/// The process-wide shared pool. Workers are spawned exactly once — on
/// the first borrow, sized max(min_threads, hardware concurrency) — and
/// then reused by every ExecContext, PreAggregateCache miss and query
/// for the rest of the process, so repeated cache-miss queries stop
/// paying thread-startup cost. A later borrow asking for more threads
/// than the pool has is served by the existing pool: ParallelFor's
/// shared-counter scheduling is correct at any worker count, and result
/// bytes never depend on which thread ran an iteration, so a smaller
/// pool only costs speed, never determinism.
///
/// `created` (optional) is set to false when the pool already existed —
/// the signal ExecContext uses to count stats.pool_reuses.
ThreadPool& SharedThreadPool(std::size_t min_threads, bool* created = nullptr);

/// Joins and destroys the shared pool; the next SharedThreadPool call
/// recreates it. Only for tests and sanitizer runs that must end with no
/// live threads — callers must ensure no ExecContext borrowed from the
/// current pool is still executing (or will execute) a parallel
/// operation, and must not reuse such contexts afterwards.
///
/// Idempotent and safe to call from several threads at once, and safe to
/// overlap with in-flight task *completion*: the pool is detached from
/// the global slot under the guard mutex but joined outside it, so the
/// join (which drains the queue) never blocks a concurrent
/// SharedThreadPool borrow — a shutdown→reuse cycle simply creates a
/// fresh pool while the old one finishes draining.
void ShutdownSharedThreadPool();

/// Per-query execution counters, exposed on the context so callers can
/// observe what the parallel engine actually did. Every counter is a
/// std::size_t and is listed once more, with its JSON key, in the table
/// MergeFrom and ToJson walk (executor.cc).
struct ExecStats {
  /// Operations that ran the parallel partition/merge path.
  std::size_t parallel_runs = 0;
  /// Operations that wanted to parallelize but ran sequentially anyway:
  /// aggregate formation blocked by the summarizability gate (Section
  /// 3.4 preconditions not met), or a Join/Timeslice whose input was
  /// below min_parallel_facts.
  std::size_t sequential_fallbacks = 0;
  /// Hash partitions created, summed over parallel operations.
  std::size_t partitions = 0;
  /// Tasks submitted to the pool, summed over parallel operations.
  std::size_t tasks = 0;
  /// Time spent folding per-partition results into the final, ordered
  /// result, summed over parallel operations.
  std::size_t merge_nanos = 0;
  /// Times this context attached to an already-running shared pool
  /// instead of spawning workers (0 or 1 per context; > 0 summed across
  /// the contexts of repeated queries means thread startup was paid only
  /// once process-wide).
  std::size_t pool_reuses = 0;
  /// Identity-based joins that ran the parallel pair-partition path.
  std::size_t join_parallel_runs = 0;
  /// Timeslices that ran the parallel per-fact path.
  std::size_t timeslice_parallel_runs = 0;
  /// Compiled rollup snapshots built by RollupIndex::For — the slot was
  /// empty or the dimension had been mutated since the last compile (a
  /// stale snapshot is never consulted). Reuse shows as hits without
  /// builds.
  std::size_t index_builds = 0;
  /// Times a hot path consumed a compiled snapshot instead of map-based
  /// traversal, counted once per operation and dimension: a grouping
  /// dimension of AggregateFormation resolved through the flat rollup
  /// table, a dimension sliced through the dense arrays (every timeslice
  /// counts each dimension), a PreAggregateCache rollup answered by flat
  /// lookups, or an operand dimension of a parallel Join whose snapshot
  /// was compiled/attached at warm-up.
  std::size_t index_hits = 0;
  /// Times a hot path wanted the flat rollup table but the snapshot's
  /// strictness/non-temporal gate failed, falling back to the memoized
  /// traversal (results are bit-identical either way).
  std::size_t index_fallbacks = 0;
  /// Group-by scans (aggregate formations, folds, fused reads) answered
  /// by the dense-slot engine: every grouped dimension was covered by a
  /// flat rollup table and the slot cross-product fit within
  /// ExecContext::max_dense_groupby_slots.
  std::size_t dense_groupby_runs = 0;
  /// Group-bys answered by the open-addressing flat-hash engine: a
  /// group-by scan whose slot space was too large or not fully indexed,
  /// every relational group-by and every pre-aggregate rollup merge.
  std::size_t flat_hash_runs = 0;
  /// Group-by scans that were structurally dense (all grouped
  /// dimensions indexed) but whose slot cross-product exceeded
  /// max_dense_groupby_slots, demoting them to the flat-hash kernel.
  std::size_t dense_slot_fallbacks = 0;
  /// Bytes of query-lifetime scratch served by the context's bump arenas
  /// (coordinates, match lists, slot indirections, per-group state),
  /// summed at each reset — the per-statement footprint the arena absorbs
  /// instead of the heap.
  std::size_t arena_bytes = 0;
  /// Arena rewinds that actually reclaimed scratch (one per statement or
  /// top-level operator that allocated); empty rewinds are not counted.
  std::size_t arena_resets = 0;
  /// MDQL identifier resolutions answered by an interned representation
  /// probe (the name was found without allocating).
  std::size_t interner_hits = 0;
  /// MDQL identifier resolutions that probed every representation and
  /// found no interned entry for the name.
  std::size_t interner_misses = 0;
  /// Logical-plan rewrite rules fired by the MDQL compiler (one count
  /// per rule application, summed over the statement's rewrite loop).
  std::size_t rewrites_applied = 0;
  /// Statements answered by a fused physical pipeline (facts streamed
  /// straight from the CSR spans into the group-by kernels, no
  /// intermediate MO materialized).
  std::size_t fused_pipelines = 0;
  /// Statements the compiler planned but could not cover with a fused
  /// pipeline, falling back to the tree-walk interpreter (results are
  /// byte-identical either way).
  std::size_t plan_fallbacks = 0;
  /// Compiled rollup snapshots produced by patching the previous snapshot
  /// (dense-remap extension + closure rows for the appended values only)
  /// instead of a full recompile; each also counts an index_builds.
  std::size_t rollup_patches = 0;
  /// Sealed CSR by-fact span views revalidated by extending the span
  /// tail over appended entries instead of a full re-sort.
  std::size_t csr_tail_extends = 0;
  /// Warm pre-aggregate entries delta-folded across an append batch.
  std::size_t preagg_folds = 0;
  /// Warm pre-aggregate entries that could not fold (structural drift,
  /// rollup-derived entry without a capture) and were re-materialized
  /// from scratch instead.
  std::size_t preagg_fold_invalidations = 0;
  /// Visited facts a group-by scan resolved by gathering from the
  /// relations' dense-id columns (docs/groupby_kernel.md): one plain pair
  /// in every live and argument dimension, so no coordinate list and no
  /// contribution was built.
  std::size_t facts_gathered = 0;
  /// Visited facts a group-by scan resolved through per-fact coordinate
  /// lists and contributions (several, temporal, uncertain or unknown
  /// pairs, or no usable column).
  std::size_t facts_walked = 0;
  /// SELECTs rendered straight from the pinned epoch's warm
  /// pre-aggregates (an exact cache hit for every function; no compile,
  /// no scan). Such a read counts neither fused_pipelines nor
  /// plan_fallbacks.
  std::size_t warm_reads = 0;
  /// Argument and filter values a fused read's group-by scan or WHERE
  /// mask resolved through Dimension::NumericValueOf instead of the
  /// rollup snapshot's numeric column: timed values (a representation
  /// entry not valid at all times), values of walked facts, a failing
  /// value's Status text. The tree walk's per-fact evaluation is not
  /// counted.
  std::size_t numeric_lookups = 0;

  /// Adds every counter of `other` into this one. Server sessions use it
  /// to accumulate per-query contexts into per-session totals.
  void MergeFrom(const ExecStats& other);

  /// One JSON object holding every counter, e.g.
  /// {"parallel_runs": 2, ..., "dense_slot_fallbacks": 0}. The single
  /// machine-readable stats format shared by the MDQL server's stats
  /// endpoint and the benches that dump execution counters.
  std::string ToJson() const;
};

/// Execution context threaded through AggregateFormation, Join, the
/// timeslice operators, PreAggregateCache::Query/Materialize,
/// relational::Aggregate and mdql::ExecuteRead. The default context
/// (num_threads = 1) is the sequential engine. Each of those entry points
/// resolves a null context once, to a fresh default one, so the code
/// below it runs one engine whatever the caller passed: the dense-slot
/// or flat-hash group-by, arena-backed scratch and rollup-snapshot
/// lookups. A context is owned by one query thread; the operators it is
/// passed to fan work out to the shared pool internally, but the context
/// itself is not thread-safe.
struct ExecContext {
  ExecContext() = default;
  ExecContext(std::size_t threads, std::size_t min_facts)
      : num_threads(threads), min_parallel_facts(min_facts) {}

  /// Worker count for the parallel path; <= 1 means sequential.
  std::size_t num_threads = 1;
  /// Inputs smaller than this stay sequential: partitioning overhead
  /// dominates below a few thousand facts.
  std::size_t min_parallel_facts = 4096;
  /// Largest slot cross-product the dense group-by kernel may allocate
  /// (it costs ~4 bytes of slot indirection per slot); groupings whose
  /// cross-product of grouping-category cardinalities exceeds this use
  /// the flat-hash kernel instead (stats.dense_slot_fallbacks counts
  /// the demotions). Exposed so tests and tuning can move the boundary.
  std::uint64_t max_dense_groupby_slots = std::uint64_t{1} << 22;

  ExecStats stats;

  /// True when an input of `input_size` facts/tuples should take the
  /// parallel path (before the summarizability gate).
  bool WantsParallel(std::size_t input_size) const {
    return num_threads > 1 && input_size >= min_parallel_facts;
  }

  /// The pool the context's operators fan out to: the process-wide
  /// shared pool, borrowed on first use and cached for the context's
  /// lifetime. Attaching to a pool some earlier context already created
  /// counts one stats.pool_reuses. Partition counts always follow
  /// num_threads, never the borrowed pool's size, so results do not
  /// depend on who created the pool first.
  ThreadPool& pool();

  /// The coordinator's bump arena for query-lifetime scratch. Operators
  /// allocate temporaries here (via ArenaAllocator) and ResetQueryArenas
  /// reclaims everything wholesale at end of statement; chunks are
  /// retained, so steady-state statements allocate no heap at all for
  /// arena-backed scratch.
  Arena arena;

  /// Grows the per-worker arena pool to at least `n` arenas. Called by
  /// the coordinator before a fan-out; each parallel task then allocates
  /// only from its own chunk's arena (arenas are not thread-safe).
  void EnsureWorkerArenas(std::size_t n) {
    while (worker_arenas_.size() < n) {
      worker_arenas_.push_back(std::make_unique<Arena>());
    }
  }

  Arena& worker_arena(std::size_t i) { return *worker_arenas_[i]; }

  /// Rewinds the coordinator and worker arenas, folding the bytes they
  /// served into stats.arena_bytes (and counting stats.arena_resets when
  /// anything was reclaimed). Called at end of statement / top-level
  /// operator; arena-backed scratch must not outlive that point.
  void ResetQueryArenas() {
    std::size_t reclaimed = arena.allocated_bytes();
    for (const auto& worker : worker_arenas_) {
      reclaimed += worker->allocated_bytes();
    }
    if (reclaimed == 0) return;
    stats.arena_bytes += reclaimed;
    ++stats.arena_resets;
    arena.Reset();
    for (const auto& worker : worker_arenas_) worker->Reset();
  }

 private:
  ThreadPool* borrowed_ = nullptr;
  std::vector<std::unique_ptr<Arena>> worker_arenas_;
};

}  // namespace mddc

#endif  // MDDC_ENGINE_EXECUTOR_H_
