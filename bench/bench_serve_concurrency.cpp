// Serving-tier concurrency sweep: N reader sessions executing the same
// MDQL aggregate against an MoStore while one background writer keeps
// publishing new epochs (serve/mo_store.h, serve/mdql_server.h). The
// interesting numbers are aggregate read throughput and tail latency as
// sessions pile on — a read pins its epoch with one pointer copy under a
// mutex held for nothing else and then runs on the shared sealed MO, so
// throughput should degrade only with CPU oversubscription, not with
// writer activity.
//
//   $ ./bench/bench_serve_concurrency
//
// Sweeps sessions x facts (10^4..10^6 purchases); MDDC_SWEEP_MAX_FACTS
// caps the largest fact count (default 1000000), e.g.
// MDDC_SWEEP_MAX_FACTS=100000 for a quick run or sanitizer builds.
// MDDC_SERVE_QUERIES overrides the per-session query count and
// MDDC_SERVE_WRITER_MS the writer's inter-batch sleep (default 25ms —
// every batch re-seals the MO, so on a small machine a hotter writer
// turns the sweep into a measurement of seal contention only).
// Results go to stdout as a table and to BENCH_serve.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "latency_recorder.h"
#include "peak_rss.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/retail_generator.h"

namespace {

using namespace mddc;
using namespace mddc::serve;

constexpr const char* kQuery = "SELECT SUM(Amount) FROM sales BY Product.Category";

MdObject BuildSales(std::size_t purchases) {
  RetailWorkloadParams params;
  params.seed = 7;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(workload).ValueOrDie().mo;
}

/// The background writer's batch: three new atomic facts, keyed outside
/// the generator's purchase space, related to the first bottom value of
/// the Product dimension.
Status ApplyBatch(MdObject& mo, std::uint64_t batch) {
  const CategoryTypeIndex bottom = mo.dimension(0).type().bottom();
  const ValueId value = mo.dimension(0).ValuesIn(bottom).front();
  for (std::uint64_t j = 0; j < 3; ++j) {
    const FactId fact = mo.registry()->Atom(9000000 + batch * 3 + j);
    MDDC_RETURN_NOT_OK(mo.AddFact(fact));
    MDDC_RETURN_NOT_OK(mo.Relate(0, fact, value));
  }
  return mo.CoverWithTop();
}

struct SweepRow {
  std::size_t facts = 0;
  std::size_t sessions = 0;
  std::size_t queries = 0;          // total across sessions
  std::uint64_t epochs = 0;         // writer publications during the run
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

SweepRow RunOne(MoStore& store, MdqlServer& server, std::size_t facts,
                std::size_t sessions, std::size_t queries_per_session,
                std::size_t writer_sleep_ms) {
  const std::uint64_t epoch_before = store.epoch();

  // Background writer: mutation batches at a steady cadence until the
  // readers are done. Each batch re-seals and publishes a new epoch.
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop, writer_sleep_ms] {
    std::uint64_t batch = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status status = store.Mutate("sales", [batch](MdObject& draft) {
        return ApplyBatch(draft, batch);
      });
      if (!status.ok()) {
        std::fprintf(stderr, "writer batch failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      ++batch;
      std::this_thread::sleep_for(std::chrono::milliseconds(writer_sleep_ms));
    }
  });

  std::vector<mddc::bench::LatencyRecorder> latencies(sessions);
  std::vector<std::thread> readers;
  readers.reserve(sessions);
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < sessions; ++s) {
    latencies[s].Reserve(queries_per_session);
    readers.emplace_back([&server, &latencies, s, queries_per_session] {
      ServerSession session = server.Connect();
      for (std::size_t q = 0; q < queries_per_session; ++q) {
        latencies[s].Start();
        auto result = session.Execute(kQuery);
        latencies[s].Stop();
        if (!result.ok()) {
          std::fprintf(stderr, "read failed: %s\n",
                       result.status().ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  const auto wall_end = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  mddc::bench::LatencyRecorder all;
  for (const auto& per_session : latencies) all.Merge(per_session);
  const double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();

  SweepRow row;
  row.facts = facts;
  row.sessions = sessions;
  row.queries = all.count();
  row.epochs = store.epoch() - epoch_before;
  row.qps = wall_s > 0.0 ? static_cast<double>(all.count()) / wall_s : 0.0;
  row.p50_ms = all.Percentile(0.50);
  row.p99_ms = all.Percentile(0.99);
  return row;
}

void WriteJson(const std::vector<SweepRow>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"serve_concurrency\",\n"
               "  \"peak_rss_kb\": %zu,\n  \"rows\": [\n",
               mddc_bench::PeakRssKb());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"facts\": %zu, \"sessions\": %zu, \"queries\": %zu, "
                 "\"writer_epochs\": %llu, \"qps\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 r.facts, r.sessions, r.queries,
                 static_cast<unsigned long long>(r.epochs), r.qps, r.p50_ms,
                 r.p99_ms, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  std::size_t max_facts = 1000000;
  if (const char* cap = std::getenv("MDDC_SWEEP_MAX_FACTS")) {
    max_facts = static_cast<std::size_t>(std::strtoull(cap, nullptr, 10));
  }
  std::size_t queries_override = 0;
  if (const char* q = std::getenv("MDDC_SERVE_QUERIES")) {
    queries_override = static_cast<std::size_t>(std::strtoull(q, nullptr, 10));
  }
  std::size_t writer_sleep_ms = 25;
  if (const char* w = std::getenv("MDDC_SERVE_WRITER_MS")) {
    writer_sleep_ms = static_cast<std::size_t>(std::strtoull(w, nullptr, 10));
  }

  std::vector<SweepRow> rows;
  std::printf("%9s %9s %8s %8s %10s %9s %9s\n", "facts", "sessions",
              "queries", "epochs", "qps", "p50_ms", "p99_ms");
  for (std::size_t facts : {std::size_t{10000}, std::size_t{100000},
                            std::size_t{1000000}}) {
    if (facts > max_facts) continue;
    MoStore store;
    MdqlServer server(&store);
    {
      Status status = store.Publish("sales", BuildSales(facts));
      if (!status.ok()) {
        std::fprintf(stderr, "publish failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    // Fewer queries per session at larger fact counts keeps the whole
    // sweep to minutes; throughput is a rate, so the count only needs to
    // be large enough for stable percentiles.
    const std::size_t queries_per_session =
        queries_override != 0 ? queries_override
        : facts >= 1000000    ? 2
        : facts >= 100000     ? 6
                              : 12;
    for (std::size_t sessions :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{32}}) {
      SweepRow row = RunOne(store, server, facts, sessions,
                            queries_per_session, writer_sleep_ms);
      std::printf("%9zu %9zu %8zu %8llu %10.1f %9.3f %9.3f\n", row.facts,
                  row.sessions, row.queries,
                  static_cast<unsigned long long>(row.epochs), row.qps,
                  row.p50_ms, row.p99_ms);
      std::fflush(stdout);
      rows.push_back(row);
    }
  }

  WriteJson(rows, "BENCH_serve.json");
  return 0;
}
