#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>

namespace mddc {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  // std::jthread joins on destruction.
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared-counter scheduling: every participant claims the next
  // unclaimed iteration until none remain. Completion is tracked per
  // iteration so the caller can block until the last one finished, even
  // if it was claimed by a pool worker.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t total;
    std::mutex mu;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  state->total = n;

  auto work = [state, &fn] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1);
      if (i >= state->total) break;
      fn(i);
      if (state->done.fetch_add(1) + 1 == state->total) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->all_done.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t i = 0; i < helpers; ++i) Submit(work);
  work();  // the calling thread participates

  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(
      lock, [&] { return state->done.load() == state->total; });
}

namespace {

// The shared pool and its guard. A plain global (not a function-local
// static) so ShutdownSharedThreadPool can destroy and recreate it; the
// unique_ptr's destructor joins the workers at process exit.
std::mutex g_shared_pool_mu;
std::unique_ptr<ThreadPool> g_shared_pool;

}  // namespace

ThreadPool& SharedThreadPool(std::size_t min_threads, bool* created) {
  std::lock_guard<std::mutex> lock(g_shared_pool_mu);
  if (g_shared_pool == nullptr) {
    const std::size_t hw = std::thread::hardware_concurrency();
    g_shared_pool = std::make_unique<ThreadPool>(
        std::max<std::size_t>({min_threads, hw, 1}));
    if (created != nullptr) *created = true;
  } else if (created != nullptr) {
    *created = false;
  }
  return *g_shared_pool;
}

void ShutdownSharedThreadPool() {
  // Detach under the guard, join outside it: the ThreadPool destructor
  // drains the queue and joins the workers, which can take as long as the
  // slowest in-flight task. Holding the guard during that join would
  // serialize concurrent Shutdown calls on the drain and block a
  // concurrent SharedThreadPool borrow from creating a fresh pool
  // (the shutdown→reuse cycle of sanitizer-heavy test suites).
  std::unique_ptr<ThreadPool> doomed;
  {
    std::lock_guard<std::mutex> lock(g_shared_pool_mu);
    doomed = std::move(g_shared_pool);
  }
  // `doomed`'s destructor runs here; a second concurrent call simply
  // moves out a null pointer — idempotent by construction.
}

namespace {

/// Every ExecStats counter with its JSON key, in ToJson order: the one
/// list MergeFrom and ToJson walk.
struct Counter {
  const char* name;
  std::size_t ExecStats::*field;
};
constexpr Counter kCounters[] = {
    {"parallel_runs", &ExecStats::parallel_runs},
    {"sequential_fallbacks", &ExecStats::sequential_fallbacks},
    {"partitions", &ExecStats::partitions},
    {"tasks", &ExecStats::tasks},
    {"merge_nanos", &ExecStats::merge_nanos},
    {"pool_reuses", &ExecStats::pool_reuses},
    {"join_parallel_runs", &ExecStats::join_parallel_runs},
    {"timeslice_parallel_runs", &ExecStats::timeslice_parallel_runs},
    {"index_builds", &ExecStats::index_builds},
    {"index_hits", &ExecStats::index_hits},
    {"index_fallbacks", &ExecStats::index_fallbacks},
    {"dense_groupby_runs", &ExecStats::dense_groupby_runs},
    {"flat_hash_runs", &ExecStats::flat_hash_runs},
    {"dense_slot_fallbacks", &ExecStats::dense_slot_fallbacks},
    {"arena_bytes", &ExecStats::arena_bytes},
    {"arena_resets", &ExecStats::arena_resets},
    {"interner_hits", &ExecStats::interner_hits},
    {"interner_misses", &ExecStats::interner_misses},
    {"rewrites_applied", &ExecStats::rewrites_applied},
    {"fused_pipelines", &ExecStats::fused_pipelines},
    {"plan_fallbacks", &ExecStats::plan_fallbacks},
    {"rollup_patches", &ExecStats::rollup_patches},
    {"csr_tail_extends", &ExecStats::csr_tail_extends},
    {"preagg_folds", &ExecStats::preagg_folds},
    {"preagg_fold_invalidations", &ExecStats::preagg_fold_invalidations},
    {"facts_gathered", &ExecStats::facts_gathered},
    {"facts_walked", &ExecStats::facts_walked},
    {"warm_reads", &ExecStats::warm_reads},
    {"numeric_lookups", &ExecStats::numeric_lookups},
};
// A counter added to ExecStats but not to the table fails here.
static_assert(sizeof(ExecStats) == std::size(kCounters) * sizeof(std::size_t));

}  // namespace

void ExecStats::MergeFrom(const ExecStats& other) {
  for (const Counter& counter : kCounters) {
    this->*counter.field += other.*counter.field;
  }
}

std::string ExecStats::ToJson() const {
  std::string json = "{";
  for (const Counter& counter : kCounters) {
    if (json.size() > 1) json += ", ";
    json += '"';
    json += counter.name;
    json += "\": ";
    json += std::to_string(this->*counter.field);
  }
  json += '}';
  return json;
}

ThreadPool& ExecContext::pool() {
  if (borrowed_ == nullptr) {
    bool created = false;
    borrowed_ = &SharedThreadPool(num_threads, &created);
    if (!created) ++stats.pool_reuses;
  }
  return *borrowed_;
}

}  // namespace mddc
