#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algebra/operators.h"
#include "engine/executor.h"
#include "io/serialize.h"
#include "reference/aggregate_reference.h"
#include "reference/relational_reference.h"
#include "relational/algebra.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

namespace mddc {
namespace {

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleton) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "no iterations expected"; });
  int runs = 0;
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossParallelFors) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> runs{0};
  pool.ParallelFor(5, [&](std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 5);
}

TEST(ExecContextTest, WantsParallelRespectsThresholds) {
  ExecContext sequential;
  EXPECT_FALSE(sequential.WantsParallel(1u << 20));
  ExecContext parallel(4, 100);
  EXPECT_FALSE(parallel.WantsParallel(99));
  EXPECT_TRUE(parallel.WantsParallel(100));
}

// ---- Shared process-wide pool ---------------------------------------------

TEST(SharedThreadPoolTest, FirstBorrowCreatesLaterBorrowsReuse) {
  ShutdownSharedThreadPool();
  bool created = false;
  ThreadPool& first = SharedThreadPool(2, &created);
  EXPECT_TRUE(created);
  ThreadPool& second = SharedThreadPool(2, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(&first, &second);
  // A later, larger request is served by the existing pool rather than
  // respawning: correctness never depends on worker count.
  ThreadPool& third = SharedThreadPool(16, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(&first, &third);
}

TEST(SharedThreadPoolTest, PoolSizeCoversAtLeastTheRequest) {
  ShutdownSharedThreadPool();
  ThreadPool& pool = SharedThreadPool(3);
  EXPECT_GE(pool.size(), 3u);
}

TEST(SharedThreadPoolTest, ShutdownAllowsAFreshPool) {
  ShutdownSharedThreadPool();
  bool created = false;
  SharedThreadPool(2, &created);
  EXPECT_TRUE(created);
  ShutdownSharedThreadPool();
  SharedThreadPool(2, &created);
  EXPECT_TRUE(created);
}

TEST(SharedThreadPoolTest, ShutdownIsIdempotentAndConcurrencySafe) {
  // Repeated shutdown of an absent pool is a no-op.
  ShutdownSharedThreadPool();
  ShutdownSharedThreadPool();

  // Shutdown→reuse cycles always yield a working pool.
  for (int cycle = 0; cycle < 5; ++cycle) {
    ThreadPool& pool = SharedThreadPool(2);
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(64, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
    ShutdownSharedThreadPool();
  }

  // Shutdown racing in-flight task completion: the task signals from
  // inside the pool, so submission strictly precedes destruction, and
  // the drain-on-join guarantee means the task still runs to completion.
  for (int cycle = 0; cycle < 10; ++cycle) {
    ThreadPool& pool = SharedThreadPool(2);
    std::atomic<bool> started{false};
    std::atomic<bool> finished{false};
    pool.Submit([&] {
      started = true;
      finished = true;
    });
    while (!started.load()) std::this_thread::yield();
    // Concurrent shutdowns from several threads are safe: the pool is
    // detached under the guard and joined outside it.
    std::thread racer([] { ShutdownSharedThreadPool(); });
    ShutdownSharedThreadPool();
    racer.join();
    EXPECT_TRUE(finished.load());
    // The next borrow creates a fresh, usable pool.
    bool created = false;
    ThreadPool& fresh = SharedThreadPool(2, &created);
    EXPECT_TRUE(created);
    std::atomic<std::size_t> count{0};
    fresh.ParallelFor(8, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8u);
  }
  ShutdownSharedThreadPool();
}

TEST(ExecStatsTest, MergeFromSumsEveryCounter) {
  ExecStats a;
  a.parallel_runs = 1;
  a.partitions = 4;
  a.merge_nanos = 100;
  a.index_hits = 2;
  ExecStats b;
  b.parallel_runs = 2;
  b.sequential_fallbacks = 3;
  b.merge_nanos = 50;
  b.dense_groupby_runs = 1;
  b.facts_gathered = 5;
  b.facts_walked = 6;
  a.warm_reads = 1;
  b.warm_reads = 2;
  a.numeric_lookups = 4;
  b.numeric_lookups = 5;
  a.MergeFrom(b);
  EXPECT_EQ(a.parallel_runs, 3u);
  EXPECT_EQ(a.sequential_fallbacks, 3u);
  EXPECT_EQ(a.partitions, 4u);
  EXPECT_EQ(a.merge_nanos, 150u);
  EXPECT_EQ(a.index_hits, 2u);
  EXPECT_EQ(a.dense_groupby_runs, 1u);
  EXPECT_EQ(a.facts_gathered, 5u);
  EXPECT_EQ(a.facts_walked, 6u);
  EXPECT_EQ(a.warm_reads, 3u);
  EXPECT_EQ(a.numeric_lookups, 9u);
}

TEST(ExecStatsTest, ToJsonListsEveryCounter) {
  ExecStats stats;
  stats.parallel_runs = 7;
  stats.merge_nanos = 12345;
  stats.warm_reads = 3;
  stats.numeric_lookups = 11;
  const std::string json = stats.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"parallel_runs\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"merge_nanos\": 12345"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sequential_fallbacks\": 0"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"index_builds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dense_slot_fallbacks\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"facts_gathered\": 0"), std::string::npos) << json;
  // numeric_lookups is the last key; every earlier key keeps its order.
  EXPECT_NE(json.find("\"facts_walked\": 0, \"warm_reads\": 3, "
                      "\"numeric_lookups\": 11}"),
            std::string::npos)
      << json;
}

TEST(SharedThreadPoolTest, ContextsCountReusesNotCreations) {
  ShutdownSharedThreadPool();
  ExecContext creator(4, 1);
  creator.pool();  // spawns the shared pool
  EXPECT_EQ(creator.stats.pool_reuses, 0u);
  creator.pool();  // second borrow from the same context is not a reuse
  EXPECT_EQ(creator.stats.pool_reuses, 0u);

  ExecContext borrower(4, 1);
  borrower.pool();
  EXPECT_EQ(borrower.stats.pool_reuses, 1u);
  EXPECT_EQ(&creator.pool(), &borrower.pool());
}

// ---- Differential harness -------------------------------------------------

RetailMo BuildRetail(std::uint32_t seed = 7, std::size_t purchases = 300) {
  RetailWorkloadParams params;
  params.seed = seed;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

/// The clinical workload with its defaults exhibits exactly the phenomena
/// that break the Section 3.4 preconditions: non-strict user-defined
/// groupings, mixed-granularity registrations and many-to-many diagnoses.
ClinicalMo BuildClinical(std::uint32_t seed = 42,
                         std::size_t patients = 150) {
  ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = patients;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

std::vector<CategoryTypeIndex> GroupingAt(const MdObject& mo,
                                          std::size_t dim,
                                          CategoryTypeIndex category) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(i == dim ? category : mo.dimension(i).type().top());
  }
  return grouping;
}

AggregationType ResultBottomType(const MdObject& aggregated) {
  const DimensionType& type =
      aggregated.dimension(aggregated.dimension_count() - 1).type();
  return type.AggType(type.bottom());
}

/// The differential oracle: the reference formation (tests/reference/)
/// is ground truth; the engine at 1, 2 and 8 threads must reproduce it
/// down to the serialized bytes, including the result dimension's
/// aggregation-type degradation.
void ExpectParallelMatchesSequential(const MdObject& mo,
                                     const AggregateSpec& spec) {
  auto sequential = reference::AggregateFormation(mo, spec);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto sequential_bytes = io::WriteMo(*sequential);
  ASSERT_TRUE(sequential_bytes.ok()) << sequential_bytes.status();

  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    auto parallel = AggregateFormation(mo, spec, &ctx);
    ASSERT_TRUE(parallel.ok())
        << "threads=" << threads << ": " << parallel.status();
    auto parallel_bytes = io::WriteMo(*parallel);
    ASSERT_TRUE(parallel_bytes.ok()) << parallel_bytes.status();
    EXPECT_EQ(*parallel_bytes, *sequential_bytes)
        << "serialized result differs at threads=" << threads;
    EXPECT_EQ(ResultBottomType(*parallel), ResultBottomType(*sequential))
        << "aggregation type differs at threads=" << threads;
    EXPECT_EQ(parallel->fact_count(), sequential->fact_count());
  }
}

AggregateSpec SpecFor(const AggFunction& function,
                      std::vector<CategoryTypeIndex> grouping) {
  return AggregateSpec{function, std::move(grouping),
                       ResultDimensionSpec::Auto(), kNowChronon,
                       /*enforce_aggregation_types=*/true};
}

TEST(ExecutorDifferentialTest, RetailSetCountByCategory) {
  RetailMo retail = BuildRetail();
  ExpectParallelMatchesSequential(
      retail.mo,
      SpecFor(AggFunction::SetCount(),
              GroupingAt(retail.mo, retail.product_dim, retail.category)));
}

TEST(ExecutorDifferentialTest, RetailSumByProductCategoryDepartment) {
  RetailMo retail = BuildRetail();
  for (CategoryTypeIndex level :
       {retail.product, retail.category, retail.department}) {
    ExpectParallelMatchesSequential(
        retail.mo,
        SpecFor(AggFunction::Sum(retail.amount_dim),
                GroupingAt(retail.mo, retail.product_dim, level)));
  }
}

TEST(ExecutorDifferentialTest, RetailMinMaxCountByCity) {
  RetailMo retail = BuildRetail();
  auto by_city = GroupingAt(retail.mo, retail.store_dim, retail.city);
  ExpectParallelMatchesSequential(
      retail.mo, SpecFor(AggFunction::Min(retail.price_dim), by_city));
  ExpectParallelMatchesSequential(
      retail.mo, SpecFor(AggFunction::Max(retail.price_dim), by_city));
  ExpectParallelMatchesSequential(
      retail.mo, SpecFor(AggFunction::Count(retail.price_dim), by_city));
}

TEST(ExecutorDifferentialTest, RetailAvgDegradesAndStillMatches) {
  // AVG is not distributive, so the summarizability gate forces the
  // sequential path — the differential contract must hold regardless.
  RetailMo retail = BuildRetail();
  ExpectParallelMatchesSequential(
      retail.mo,
      SpecFor(AggFunction::Avg(retail.price_dim),
              GroupingAt(retail.mo, retail.store_dim, retail.region)));
}

TEST(ExecutorDifferentialTest, RetailTwoDimensionalGrouping) {
  RetailMo retail = BuildRetail();
  auto grouping = GroupingAt(retail.mo, retail.product_dim, retail.category);
  grouping[retail.store_dim] = retail.city;
  ExpectParallelMatchesSequential(
      retail.mo, SpecFor(AggFunction::Sum(retail.amount_dim), grouping));
}

TEST(ExecutorDifferentialTest, RetailExpectedCounts) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::SetCount(),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  spec.expected_counts = true;
  ExpectParallelMatchesSequential(retail.mo, spec);
}

TEST(ExecutorDifferentialTest, NonStrictClinicalFallsBackAndMatches) {
  // Non-strict family membership and mixed-granularity registrations:
  // the parallel engine must refuse (Section 3.4) and the result must
  // still be byte-identical.
  ClinicalMo clinical = BuildClinical();
  for (CategoryTypeIndex level : {clinical.family, clinical.group}) {
    ExpectParallelMatchesSequential(
        clinical.mo,
        SpecFor(AggFunction::SetCount(),
                GroupingAt(clinical.mo, clinical.diagnosis_dim, level)));
  }
}

TEST(ExecutorDifferentialTest, ClinicalResidenceGrouping) {
  ClinicalMo clinical = BuildClinical();
  for (CategoryTypeIndex level : {clinical.county, clinical.region}) {
    ExpectParallelMatchesSequential(
        clinical.mo,
        SpecFor(AggFunction::SetCount(),
                GroupingAt(clinical.mo, clinical.residence_dim, level)));
  }
}

TEST(ExecutorDifferentialTest, RandomizedWorkloadSweep) {
  // Property sweep: across seeds and sizes, every function/grouping
  // combination must agree between the engines.
  for (std::uint32_t seed : {1u, 13u, 99u}) {
    RetailMo retail = BuildRetail(seed, /*purchases=*/128);
    for (CategoryTypeIndex level : {retail.category, retail.department}) {
      auto grouping = GroupingAt(retail.mo, retail.product_dim, level);
      ExpectParallelMatchesSequential(
          retail.mo, SpecFor(AggFunction::SetCount(), grouping));
      ExpectParallelMatchesSequential(
          retail.mo, SpecFor(AggFunction::Sum(retail.amount_dim), grouping));
      ExpectParallelMatchesSequential(
          retail.mo, SpecFor(AggFunction::Min(retail.price_dim), grouping));
    }
  }
}

// ---- Counters -------------------------------------------------------------

TEST(ExecutorCountersTest, StrictWorkloadRunsParallel) {
  RetailMo retail = BuildRetail();
  ExecContext ctx(8, /*min_facts=*/1);
  auto result = AggregateFormation(
      retail.mo,
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category)),
      &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.stats.parallel_runs, 1u);
  EXPECT_EQ(ctx.stats.sequential_fallbacks, 0u);
  EXPECT_EQ(ctx.stats.partitions, 8u);
  EXPECT_GT(ctx.stats.tasks, 0u);
}

TEST(ExecutorCountersTest, NonStrictWorkloadFallsBack) {
  ClinicalMo clinical = BuildClinical();
  ExecContext ctx(8, /*min_facts=*/1);
  auto result = AggregateFormation(
      clinical.mo,
      SpecFor(AggFunction::SetCount(),
              GroupingAt(clinical.mo, clinical.diagnosis_dim,
                         clinical.group)),
      &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.stats.parallel_runs, 0u);
  EXPECT_GE(ctx.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(ctx.stats.partitions, 0u);
}

TEST(ExecutorCountersTest, SmallInputStaysSequential) {
  RetailMo retail = BuildRetail(7, /*purchases=*/50);
  ExecContext ctx(8, /*min_facts=*/4096);
  auto result = AggregateFormation(
      retail.mo,
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category)),
      &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.stats.parallel_runs, 0u);
  EXPECT_EQ(ctx.stats.sequential_fallbacks, 0u);
}

// ---- Determinism ----------------------------------------------------------

TEST(ExecutorDeterminismTest, FiftyParallelRunsAreByteIdentical) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  std::string reference;
  for (int run = 0; run < 50; ++run) {
    ExecContext ctx(8, /*min_facts=*/1);
    auto result = AggregateFormation(retail.mo, spec, &ctx);
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status();
    ASSERT_EQ(ctx.stats.parallel_runs, 1u) << "run " << run;
    auto bytes = io::WriteMo(*result);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    if (run == 0) {
      reference = *bytes;
    } else {
      ASSERT_EQ(*bytes, reference) << "run " << run << " diverged";
    }
  }
}

// ---- Relational group-by --------------------------------------------------

relational::Relation RandomRelation(std::uint32_t seed, std::size_t rows) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> key_dist(0, 12);
  std::uniform_real_distribution<double> value_dist(-100.0, 100.0);
  std::uniform_int_distribution<int> null_dist(0, 9);
  relational::Relation r({"k1", "k2", "v", "w"});
  for (std::size_t i = 0; i < rows; ++i) {
    relational::Tuple tuple;
    tuple.push_back(relational::Value(key_dist(rng)));
    tuple.push_back(relational::Value(std::string(
        key_dist(rng) % 2 == 0 ? "even" : "odd")));
    tuple.push_back(null_dist(rng) == 0
                        ? relational::Value::Null()
                        : relational::Value(value_dist(rng)));
    tuple.push_back(relational::Value(static_cast<std::int64_t>(i % 17)));
    EXPECT_TRUE(r.Insert(std::move(tuple)).ok());
  }
  return r;
}

TEST(RelationalParallelTest, GroupByMatchesSequentialAcrossThreads) {
  using relational::AggregateTerm;
  const std::vector<AggregateTerm> terms = {
      {AggregateTerm::Func::kCountStar, "", "n"},
      {AggregateTerm::Func::kCount, "v", "n_v"},
      {AggregateTerm::Func::kCountDistinct, "w", "w_distinct"},
      {AggregateTerm::Func::kSum, "v", "v_sum"},
      {AggregateTerm::Func::kAvg, "v", "v_avg"},
      {AggregateTerm::Func::kMin, "v", "v_min"},
      {AggregateTerm::Func::kMax, "w", "w_max"},
  };
  for (std::uint32_t seed : {3u, 21u}) {
    relational::Relation r = RandomRelation(seed, 500);
    auto sequential = reference::RelationalAggregate(r, {"k1", "k2"}, terms);
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    for (std::size_t threads : {1u, 2u, 8u}) {
      ExecContext ctx(threads, /*min_facts=*/1);
      auto parallel = relational::Aggregate(r, {"k1", "k2"}, terms, &ctx);
      ASSERT_TRUE(parallel.ok())
          << "threads=" << threads << ": " << parallel.status();
      EXPECT_TRUE(*parallel == *sequential)
          << "relation differs at threads=" << threads << ", seed=" << seed;
    }
  }
}

TEST(RelationalParallelTest, ParallelCountersAdvance) {
  relational::Relation r = RandomRelation(5, 300);
  ExecContext ctx(4, /*min_facts=*/1);
  auto result = relational::Aggregate(
      r, {"k1"},
      {{relational::AggregateTerm::Func::kCountStar, "", "n"}}, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.stats.parallel_runs, 1u);
  EXPECT_EQ(ctx.stats.partitions, 4u);
}

}  // namespace
}  // namespace mddc
