#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/preagg_cache.h"
#include "io/serialize.h"
#include "reference/aggregate_reference.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

namespace mddc {
namespace {

RetailMo BuildRetail(std::size_t purchases = 300) {
  RetailWorkloadParams params;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
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

/// Sums the result dimension of an aggregate MO, keyed by grouping value
/// in `dim`.
std::map<ValueId, double> ResultsByValue(const MdObject& aggregated,
                                         std::size_t dim) {
  std::map<ValueId, double> results;
  const std::size_t result_dim = aggregated.dimension_count() - 1;
  for (FactId fact : aggregated.facts()) {
    auto group_pairs = aggregated.relation(dim).ForFact(fact);
    auto value_pairs = aggregated.relation(result_dim).ForFact(fact);
    if (group_pairs.empty() || value_pairs.empty()) continue;
    results[group_pairs.front()->value] =
        *aggregated.dimension(result_dim)
             .NumericValueOf(value_pairs.front()->value);
  }
  return results;
}

TEST(PreAggCacheTest, ExactHitServedFromCache) {
  RetailMo retail = BuildRetail();
  PreAggregateCache cache(retail.mo);
  auto grouping = GroupingAt(retail.mo, retail.product_dim, retail.category);
  ASSERT_TRUE(cache.Query(AggFunction::Sum(retail.amount_dim), grouping).ok());
  ASSERT_TRUE(cache.Query(AggFunction::Sum(retail.amount_dim), grouping).ok());
  EXPECT_EQ(cache.stats().base_scans, 1u);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
}

TEST(PreAggCacheTest, RollUpReuseMatchesBaseScan) {
  RetailMo retail = BuildRetail();

  // Materialize SUM(amount) by Category, then ask by Department: the
  // category-level partials must merge into exactly what a base scan
  // yields.
  PreAggregateCache cache(retail.mo);
  auto by_category =
      GroupingAt(retail.mo, retail.product_dim, retail.category);
  auto by_department =
      GroupingAt(retail.mo, retail.product_dim, retail.department);
  ASSERT_TRUE(
      cache.Materialize(AggFunction::Sum(retail.amount_dim), by_category)
          .ok());
  auto reused = cache.Query(AggFunction::Sum(retail.amount_dim),
                            by_department);
  ASSERT_TRUE(reused.ok()) << reused.status();
  EXPECT_EQ(cache.stats().rollup_hits, 1u);
  EXPECT_EQ(cache.stats().base_scans, 1u);

  PreAggregateCache fresh(retail.mo);
  auto scanned = fresh.Query(AggFunction::Sum(retail.amount_dim),
                             by_department);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(ResultsByValue(*reused, retail.product_dim),
            ResultsByValue(*scanned, retail.product_dim));
}

TEST(PreAggCacheTest, MinMaxReuse) {
  RetailMo retail = BuildRetail();
  PreAggregateCache cache(retail.mo);
  auto by_city = GroupingAt(retail.mo, retail.store_dim, retail.city);
  auto by_region = GroupingAt(retail.mo, retail.store_dim, retail.region);
  ASSERT_TRUE(
      cache.Materialize(AggFunction::Max(retail.price_dim), by_city).ok());
  auto reused = cache.Query(AggFunction::Max(retail.price_dim), by_region);
  ASSERT_TRUE(reused.ok()) << reused.status();
  EXPECT_EQ(cache.stats().rollup_hits, 1u);

  PreAggregateCache fresh(retail.mo);
  auto scanned = fresh.Query(AggFunction::Max(retail.price_dim), by_region);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(ResultsByValue(*reused, retail.store_dim),
            ResultsByValue(*scanned, retail.store_dim));
}

TEST(PreAggCacheTest, AvgIsNeverReused) {
  // AVG is not distributive: its materialization is c-typed, so a
  // coarser AVG query must rescan the base.
  RetailMo retail = BuildRetail();
  PreAggregateCache cache(retail.mo);
  auto by_city = GroupingAt(retail.mo, retail.store_dim, retail.city);
  auto by_region = GroupingAt(retail.mo, retail.store_dim, retail.region);
  ASSERT_TRUE(
      cache.Materialize(AggFunction::Avg(retail.price_dim), by_city).ok());
  auto result = cache.Query(AggFunction::Avg(retail.price_dim), by_region);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(cache.stats().rollup_hits, 0u);
  EXPECT_EQ(cache.stats().base_scans, 2u);
  EXPECT_GE(cache.stats().reuse_refusals, 1u);
}

TEST(PreAggCacheTest, DifferentFunctionsDoNotCrossReuse) {
  RetailMo retail = BuildRetail();
  PreAggregateCache cache(retail.mo);
  auto by_city = GroupingAt(retail.mo, retail.store_dim, retail.city);
  auto by_region = GroupingAt(retail.mo, retail.store_dim, retail.region);
  ASSERT_TRUE(
      cache.Materialize(AggFunction::Sum(retail.amount_dim), by_city).ok());
  auto min_query = cache.Query(AggFunction::Min(retail.amount_dim),
                               by_region);
  ASSERT_TRUE(min_query.ok());
  EXPECT_EQ(cache.stats().rollup_hits, 0u);
}

TEST(PreAggCacheTest, SetCountReuseOnStrictHierarchy) {
  RetailMo retail = BuildRetail();
  PreAggregateCache cache(retail.mo);
  auto by_product =
      GroupingAt(retail.mo, retail.product_dim, retail.product);
  auto by_department =
      GroupingAt(retail.mo, retail.product_dim, retail.department);
  ASSERT_TRUE(cache.Materialize(AggFunction::SetCount(), by_product).ok());
  auto reused = cache.Query(AggFunction::SetCount(), by_department);
  ASSERT_TRUE(reused.ok()) << reused.status();
  EXPECT_EQ(cache.stats().rollup_hits, 1u);

  // Purchases partition over products (each purchase has one product), so
  // summed counts equal direct counts.
  PreAggregateCache fresh(retail.mo);
  auto scanned = fresh.Query(AggFunction::SetCount(), by_department);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(ResultsByValue(*reused, retail.product_dim),
            ResultsByValue(*scanned, retail.product_dim));
}

TEST(PreAggCacheTest, NonStrictHierarchyBlocksReuseEndToEnd) {
  // The paper's safety story end to end: a non-strict diagnosis
  // hierarchy makes group counts overlap, aggregate formation types the
  // materialization c, and the cache therefore refuses to derive the
  // grand total from the per-group partials (which would double count).
  ClinicalWorkloadParams params;
  params.num_patients = 120;
  params.num_groups = 3;
  params.non_strict_rate = 0.5;
  params.mean_extra_diagnoses = 0.0;
  params.reclassified_rate = 0.0;
  params.uncertain_rate = 0.0;
  params.coarse_granularity_rate = 0.0;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(workload.ok());
  PreAggregateCache cache(workload->mo);
  auto by_group =
      GroupingAt(workload->mo, workload->diagnosis_dim, workload->group);
  auto grand_total = GroupingAt(
      workload->mo, workload->diagnosis_dim,
      workload->mo.dimension(workload->diagnosis_dim).type().top());
  ASSERT_TRUE(cache.Materialize(AggFunction::SetCount(), by_group).ok());
  auto total = cache.Query(AggFunction::SetCount(), grand_total);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(cache.stats().rollup_hits, 0u);
  EXPECT_GE(cache.stats().reuse_refusals, 1u);
  // And the base-scanned total is the true patient count, not the
  // inflated sum of overlapping group counts.
  const std::size_t result_dim = total->dimension_count() - 1;
  ASSERT_EQ(total->fact_count(), 1u);
  auto pairs = total->relation(result_dim).ForFact(total->facts()[0]);
  EXPECT_DOUBLE_EQ(*total->dimension(result_dim)
                        .NumericValueOf(pairs.front()->value),
                   120.0);
}

TEST(PreAggCacheTest, StatsIdenticalUnderParallelExecution) {
  // The executor only changes how base scans are computed, never what
  // the cache decides: an identical sequence of Materialize/Query calls
  // must produce identical hit/scan/refusal counters with and without a
  // parallel context — and results byte-identical to the reference
  // formation and rollup either way.
  RetailMo retail = BuildRetail();
  auto by_category =
      GroupingAt(retail.mo, retail.product_dim, retail.category);
  auto by_department =
      GroupingAt(retail.mo, retail.product_dim, retail.department);
  auto by_city = GroupingAt(retail.mo, retail.store_dim, retail.city);
  auto by_region = GroupingAt(retail.mo, retail.store_dim, retail.region);

  PreAggregateCache sequential_cache(retail.mo);
  PreAggregateCache parallel_cache(retail.mo);
  ExecContext ctx(8, /*min_facts=*/1);

  // The same op sequence exercising every counter: a materialize, an
  // exact hit, a rollup, and an AVG refusal.
  auto drive = [&](PreAggregateCache& cache,
                   ExecContext* exec) -> std::vector<std::string> {
    std::vector<std::string> serialized;
    auto record = [&](Result<MdObject> result) {
      ASSERT_TRUE(result.ok()) << result.status();
      auto bytes = io::WriteMo(*result);
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      serialized.push_back(*bytes);
    };
    EXPECT_TRUE(cache
                    .Materialize(AggFunction::Sum(retail.amount_dim),
                                 by_category, exec)
                    .ok());
    record(cache.Query(AggFunction::Sum(retail.amount_dim), by_category,
                       exec));
    record(cache.Query(AggFunction::Sum(retail.amount_dim), by_department,
                       exec));
    EXPECT_TRUE(
        cache.Materialize(AggFunction::Avg(retail.price_dim), by_city, exec)
            .ok());
    record(cache.Query(AggFunction::Avg(retail.price_dim), by_region, exec));
    return serialized;
  };

  std::vector<std::string> sequential_results =
      drive(sequential_cache, nullptr);
  std::vector<std::string> parallel_results = drive(parallel_cache, &ctx);

  // Ground truth for the three recorded queries: the exact hit, the
  // rollup of the by-category entry, and the AVG base scan.
  auto spec = [](const AggFunction& function,
                 std::vector<CategoryTypeIndex> grouping) {
    return AggregateSpec{function, std::move(grouping)};
  };
  auto sum_by_category = reference::AggregateFormation(
      retail.mo, spec(AggFunction::Sum(retail.amount_dim), by_category));
  ASSERT_TRUE(sum_by_category.ok()) << sum_by_category.status();
  std::vector<Result<MdObject>> expected;
  expected.push_back(*sum_by_category);
  expected.push_back(reference::RollUpAggregate(
      retail.mo, *sum_by_category, AggFunction::Sum(retail.amount_dim),
      by_department));
  expected.push_back(reference::AggregateFormation(
      retail.mo, spec(AggFunction::Avg(retail.price_dim), by_region)));

  EXPECT_EQ(parallel_cache.stats().exact_hits,
            sequential_cache.stats().exact_hits);
  EXPECT_EQ(parallel_cache.stats().rollup_hits,
            sequential_cache.stats().rollup_hits);
  EXPECT_EQ(parallel_cache.stats().base_scans,
            sequential_cache.stats().base_scans);
  EXPECT_EQ(parallel_cache.stats().reuse_refusals,
            sequential_cache.stats().reuse_refusals);
  EXPECT_EQ(parallel_cache.size(), sequential_cache.size());
  ASSERT_EQ(sequential_results.size(), expected.size());
  ASSERT_EQ(parallel_results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i].ok()) << expected[i].status();
    auto bytes = io::WriteMo(*expected[i]);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    EXPECT_EQ(sequential_results[i], *bytes)
        << "query " << i << " serialized differently without a context";
    EXPECT_EQ(parallel_results[i], *bytes)
        << "query " << i << " serialized differently in parallel";
  }
  // And the parallel engine really did run for the strict SUM scans.
  EXPECT_GE(ctx.stats.parallel_runs, 1u);
}

TEST(PreAggCacheTest, FreshContextsAmortizeThreadStartupAcrossMisses) {
  // Each miss below runs under a brand-new ExecContext, the natural
  // shape of a query loop. Only the very first borrow may spawn the
  // shared pool; every later context must reuse it, so repeated misses
  // pay thread startup at most once per process.
  RetailMo retail = BuildRetail();
  PreAggregateCache cache(retail.mo);
  SharedThreadPool(8);  // make "the pool already exists" explicit

  // Pairwise-incomparable groupings (each lowers a different dimension),
  // so every query really is a base-scan miss rather than a rollup hit.
  const CategoryTypeIndex month =
      *retail.mo.dimension(retail.date_dim).type().Find("Month");
  const std::vector<std::vector<CategoryTypeIndex>> groupings = {
      GroupingAt(retail.mo, retail.product_dim, retail.category),
      GroupingAt(retail.mo, retail.store_dim, retail.city),
      GroupingAt(retail.mo, retail.date_dim, month),
  };
  std::size_t reuses = 0;
  for (const auto& grouping : groupings) {
    ExecContext ctx(8, /*min_facts=*/1);
    auto result =
        cache.Query(AggFunction::Sum(retail.amount_dim), grouping, &ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    reuses += ctx.stats.pool_reuses;
  }
  EXPECT_EQ(cache.stats().base_scans, groupings.size());
  EXPECT_EQ(reuses, groupings.size());
}

TEST(PreAggCacheTest, StatsResetWorks) {
  RetailMo retail = BuildRetail(50);
  PreAggregateCache cache(retail.mo);
  auto grouping = GroupingAt(retail.mo, retail.product_dim, retail.category);
  ASSERT_TRUE(cache.Query(AggFunction::Sum(retail.amount_dim), grouping).ok());
  EXPECT_EQ(cache.stats().base_scans, 1u);
  cache.ResetStats();
  EXPECT_EQ(cache.stats().base_scans, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace mddc
