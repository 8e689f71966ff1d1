#include "engine/groupby_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "algebra/operators.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "reference/aggregate_reference.h"
#include "reference/relational_reference.h"
#include "relational/algebra.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for the dense-slot / flat-hash engines of the group-by scan
// (docs/groupby_kernel.md): differential proof against the reference
// formation (tests/reference/) over schemas forcing each rung of the
// fallback ladder, exact behaviour at the slot-threshold boundary, 50x
// byte-identity at 1/2/8 threads through the dense kernel, the
// NaN-payload result-interning regression, and the relational flat-hash
// engine against its own baseline.

namespace mddc {
namespace {

using testing_fixtures::During;

RetailMo BuildRetail(std::uint32_t seed = 7, std::size_t purchases = 300) {
  RetailWorkloadParams params;
  params.seed = seed;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

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

AggregateSpec SpecFor(const AggFunction& function,
                      std::vector<CategoryTypeIndex> grouping) {
  return AggregateSpec{function, std::move(grouping),
                       ResultDimensionSpec::Auto(), kNowChronon,
                       /*enforce_aggregation_types=*/true};
}

std::string BaselineBytes(const MdObject& mo, const AggregateSpec& spec) {
  auto baseline = reference::AggregateFormation(mo, spec);
  EXPECT_TRUE(baseline.ok()) << baseline.status();
  auto bytes = io::WriteMo(*baseline);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

// ---- Engine-selection ladder, differential against the baseline -----------

TEST(GroupByKernelTest, StrictSchemaRunsDenseAndMatchesBaseline) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(retail.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  // Strict, non-temporal product hierarchy: every grouping dimension is
  // flat-table covered (or at top) and the slot space is tiny.
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 1u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 0u);
  EXPECT_EQ(ctx.stats.dense_slot_fallbacks, 0u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

TEST(GroupByKernelTest, NonStrictSchemaUsesFlatHashAndMatchesBaseline) {
  ClinicalMo clinical = BuildClinical();
  AggregateSpec spec = SpecFor(
      AggFunction::SetCount(),
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family));
  const std::string baseline = BaselineBytes(clinical.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(clinical.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  // The non-strict, temporal diagnosis hierarchy fails the flat-table
  // gate, so the dense engine cannot compose slots.
  EXPECT_GT(ctx.stats.index_fallbacks, 0u);
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  EXPECT_EQ(ctx.stats.dense_slot_fallbacks, 0u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

TEST(GroupByKernelTest, TemporalEdgeForcesFlatHashAndMatchesBaseline) {
  // One temporal containment edge in an otherwise strict hierarchy fails
  // the snapshot's flat-table gate — a different fallback cause than
  // non-strictness, same flat-hash rung.
  RetailMo retail = BuildRetail();
  Dimension& products = retail.mo.dimension_mutable(retail.product_dim);
  const ValueId category_value = products.ValuesIn(retail.category).front();
  ASSERT_TRUE(products.AddValue(retail.product, ValueId(999983)).ok());
  ASSERT_TRUE(products
                  .AddOrder(ValueId(999983), category_value,
                            During("[01/01/80-NOW]"))
                  .ok());
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(retail.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(ctx.stats.index_fallbacks, 0u);
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

// ---- Slot-threshold boundary ----------------------------------------------

TEST(GroupByKernelTest, ThresholdBoundaryExactFitStaysDense) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);
  // Only the product dimension contributes digits (the rest group at
  // top), so the slot space is exactly the category's cardinality.
  const std::uint64_t slots = retail.mo.dimension(retail.product_dim)
                                  .ValuesIn(retail.category)
                                  .size();
  ASSERT_GT(slots, 1u);

  ExecContext exact(2, /*min_facts=*/1);
  exact.max_dense_groupby_slots = slots;
  auto at_limit = AggregateFormation(retail.mo, spec, &exact);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(exact.stats.dense_groupby_runs, 1u);
  EXPECT_EQ(exact.stats.dense_slot_fallbacks, 0u);
  auto exact_bytes = io::WriteMo(*at_limit);
  ASSERT_TRUE(exact_bytes.ok());
  EXPECT_EQ(*exact_bytes, baseline);

  ExecContext over(2, /*min_facts=*/1);
  over.max_dense_groupby_slots = slots - 1;
  auto one_over = AggregateFormation(retail.mo, spec, &over);
  ASSERT_TRUE(one_over.ok()) << one_over.status();
  EXPECT_EQ(over.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(over.stats.dense_slot_fallbacks, 1u);
  EXPECT_EQ(over.stats.flat_hash_runs, 1u);
  auto over_bytes = io::WriteMo(*one_over);
  ASSERT_TRUE(over_bytes.ok());
  EXPECT_EQ(*over_bytes, baseline);
}

// ---- Repeated-run byte-identity across thread counts ----------------------

TEST(GroupByKernelTest, FiftyDenseRunsAreByteIdenticalAcrossThreads) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.price_dim),
              GroupingAt(retail.mo, retail.store_dim, retail.city));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (int run = 0; run < 50; ++run) {
      ExecContext ctx(threads, /*min_facts=*/1);
      auto result = AggregateFormation(retail.mo, spec, &ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(ctx.stats.dense_groupby_runs, 1u);
      auto bytes = io::WriteMo(*result);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(*bytes, baseline)
          << "dense kernel diverged at threads=" << threads
          << " run=" << run;
    }
  }
}

TEST(GroupByKernelTest, FiftyFlatHashRunsAreByteIdenticalAcrossThreads) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (int run = 0; run < 50; ++run) {
      ExecContext ctx(threads, /*min_facts=*/1);
      ctx.max_dense_groupby_slots = 0;  // force the flat-hash engine
      auto result = AggregateFormation(retail.mo, spec, &ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(ctx.stats.flat_hash_runs, 1u);
      ASSERT_EQ(ctx.stats.dense_slot_fallbacks, 1u);
      auto bytes = io::WriteMo(*result);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(*bytes, baseline)
          << "flat-hash kernel diverged at threads=" << threads
          << " run=" << run;
    }
  }
}

// ---- Result-value interning regression ------------------------------------

/// Two distinct doubles whose FormatDouble texts collide (NaNs with
/// different payloads both print "nan") must still intern to two distinct
/// result values: interning is keyed by bit pattern, the text is
/// display-only.
TEST(GroupByKernelTest, DistinctResultsWithIdenticalFormattingDoNotCollide) {
  const double nan_a = std::strtod("nan(0x1)", nullptr);
  const double nan_b = std::strtod("nan(0x2)", nullptr);
  if (std::bit_cast<std::uint64_t>(nan_a) ==
      std::bit_cast<std::uint64_t>(nan_b)) {
    GTEST_SKIP() << "platform strtod does not preserve NaN payloads";
  }

  // One grouping dimension with two bottom values, one measure dimension
  // whose per-group sums are the two payload-distinct NaNs.
  DimensionTypeBuilder group_builder("Group");
  group_builder.AddCategory("Key", AggregationType::kConstant);
  Dimension group_dim(std::move(group_builder.Build()).ValueOrDie());
  CategoryTypeIndex key = group_dim.type().bottom();
  ASSERT_TRUE(group_dim.AddValue(key, ValueId(1)).ok());
  ASSERT_TRUE(group_dim.AddValue(key, ValueId(2)).ok());

  DimensionTypeBuilder measure_builder("Measure");
  measure_builder.AddCategory("Reading", AggregationType::kSum);
  Dimension measure_dim(std::move(measure_builder.Build()).ValueOrDie());
  CategoryTypeIndex reading = measure_dim.type().bottom();
  Representation& rep = measure_dim.RepresentationFor(reading, "Value");
  ASSERT_TRUE(measure_dim.AddValue(reading, ValueId(10)).ok());
  ASSERT_TRUE(measure_dim.AddValue(reading, ValueId(11)).ok());
  ASSERT_TRUE(rep.Set(ValueId(10), "nan(0x1)").ok());
  ASSERT_TRUE(rep.Set(ValueId(11), "nan(0x2)").ok());

  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Sample", {group_dim, measure_dim}, registry);
  FactId f1 = registry->Atom(1);
  FactId f2 = registry->Atom(2);
  ASSERT_TRUE(mo.AddFact(f1).ok());
  ASSERT_TRUE(mo.AddFact(f2).ok());
  ASSERT_TRUE(mo.Relate(0, f1, ValueId(1)).ok());
  ASSERT_TRUE(mo.Relate(0, f2, ValueId(2)).ok());
  ASSERT_TRUE(mo.Relate(1, f1, ValueId(10)).ok());
  ASSERT_TRUE(mo.Relate(1, f2, ValueId(11)).ok());

  AggregateSpec spec = SpecFor(AggFunction::Sum(1),
                               {key, mo.dimension(1).type().top()});
  auto check = [&](Result<MdObject> result, const char* engine) {
    ASSERT_TRUE(result.ok()) << result.status();
    const std::size_t result_dim = result->dimension_count() - 1;
    const CategoryTypeIndex bottom =
        result->dimension(result_dim).type().bottom();
    // Two groups, two distinct NaN sums: two result values, not one.
    EXPECT_EQ(result->fact_count(), 2u);
    EXPECT_EQ(result->dimension(result_dim).ValuesIn(bottom).size(), 2u)
        << engine;
  };
  check(reference::AggregateFormation(mo, spec), "reference");
  ExecContext ctx(1, /*min_facts=*/1);
  check(AggregateFormation(mo, spec, &ctx), "group-by scan");
}

// ---- Relational flat-hash engine ------------------------------------------

TEST(GroupByKernelTest, RelationalFlatHashMatchesBaselineAndCounts) {
  using relational::AggregateTerm;
  relational::Relation r({"k", "v"});
  for (std::int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(r.Insert({relational::Value(i % 13),
                          relational::Value(static_cast<double>(i) * 0.5)})
                    .ok());
  }
  const std::vector<AggregateTerm> terms = {
      {AggregateTerm::Func::kCountStar, "", "n"},
      {AggregateTerm::Func::kSum, "v", "v_sum"},
  };
  auto baseline = reference::RelationalAggregate(r, {"k"}, terms);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Sequential flat-hash run: below the parallel threshold.
  ExecContext ctx;
  ASSERT_FALSE(ctx.WantsParallel(r.tuples().size()));
  auto flat = relational::Aggregate(r, {"k"}, terms, &ctx);
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  EXPECT_EQ(ctx.stats.parallel_runs, 0u);
  EXPECT_TRUE(*flat == *baseline);
}

// ---- Shared building blocks -----------------------------------------------

TEST(GroupByKernelTest, FlatHashGroupIndexSurvivesRehashing) {
  // Intern far more keys than the initial capacity so several rehashes
  // run, then verify every key still finds its original ordinal.
  FlatHashGroupIndex index;
  std::vector<ValueId> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    keys.push_back(ValueId(i * 7 + 1));
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    const std::uint32_t ordinal = index.FindOrInsert(
        HashValueIds(&keys[i], 1), i,
        [&](std::uint32_t existing) { return keys[existing] == keys[i]; },
        &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(ordinal, i);
  }
  EXPECT_EQ(index.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    const std::uint32_t ordinal = index.FindOrInsert(
        HashValueIds(&keys[i], 1), 0xdeadbeefu,
        [&](std::uint32_t existing) { return keys[existing] == keys[i]; },
        &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(ordinal, i);
  }
}

}  // namespace
}  // namespace mddc
