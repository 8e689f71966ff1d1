#include "engine/rollup_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "engine/executor.h"
#include "engine/preagg_cache.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "reference/aggregate_reference.h"
#include "reference/timeslice_reference.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for the compiled rollup snapshots (engine/rollup_index.h):
// accessor-level equivalence against the map-based Dimension queries the
// snapshot replaces, version-counter invalidation across every mutation
// kind (AddValue, new AddOrder edge, lifespan coalescing of a repeated
// edge), snapshot sharing across Dimension copies, and end-to-end proof —
// via ExecStats and serialized-byte comparison at 1/2/8 threads — that
// the index-consuming hot paths stay bit-identical to the sequential
// algebra while actually consuming the index.

namespace mddc {
namespace {

using testing_fixtures::BuildDiagnosisDimension;
using testing_fixtures::Day;
using testing_fixtures::DiagnosisType;
using testing_fixtures::During;

// ---- Fixtures -------------------------------------------------------------

/// A strict, non-temporal diagnosis hierarchy (all lifespans Always, at
/// most one parent per value): the flat-table gate must hold.
Dimension BuildStrictDimension() {
  auto type = DiagnosisType();
  Dimension dimension(type);
  CategoryTypeIndex low = *type->Find("Low-level Diagnosis");
  CategoryTypeIndex family = *type->Find("Diagnosis Family");
  CategoryTypeIndex group = *type->Find("Diagnosis Group");
  for (std::uint64_t id : {1, 2, 3}) {
    EXPECT_TRUE(dimension.AddValue(low, ValueId(id)).ok());
  }
  for (std::uint64_t id : {10, 11}) {
    EXPECT_TRUE(dimension.AddValue(family, ValueId(id)).ok());
  }
  EXPECT_TRUE(dimension.AddValue(group, ValueId(20)).ok());
  EXPECT_TRUE(dimension.AddOrder(ValueId(1), ValueId(10)).ok());
  EXPECT_TRUE(dimension.AddOrder(ValueId(2), ValueId(10)).ok());
  EXPECT_TRUE(dimension.AddOrder(ValueId(3), ValueId(11)).ok());
  EXPECT_TRUE(dimension.AddOrder(ValueId(10), ValueId(20)).ok());
  EXPECT_TRUE(dimension.AddOrder(ValueId(11), ValueId(20)).ok());
  return dimension;
}

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

// ---- Accessor equivalence -------------------------------------------------

TEST(RollupIndexTest, DenseMappingRoundTripsEveryValue) {
  Dimension dimension = BuildStrictDimension();
  auto index = RollupIndex::For(dimension);
  ASSERT_NE(index, nullptr);

  const std::vector<ValueId> values = dimension.AllValues();
  ASSERT_EQ(index->value_count(), values.size());
  for (std::uint32_t d = 0; d < index->value_count(); ++d) {
    const ValueId v = index->ValueOf(d);
    EXPECT_EQ(v, values[d]) << "dense order must match AllValues()";
    EXPECT_EQ(index->DenseOf(v), d);
    EXPECT_EQ(index->CategoryOfDense(d), *dimension.CategoryOf(v));
    EXPECT_EQ(index->MembershipOfDense(d), *dimension.MembershipOf(v));
  }
  EXPECT_EQ(index->ValueOf(index->top_dense()), dimension.top_value());
  EXPECT_EQ(index->DenseOf(ValueId(987654321)), RollupIndex::kNone);
}

TEST(RollupIndexTest, CategoryRangesMatchValuesIn) {
  Dimension dimension = BuildDiagnosisDimension();
  auto index = RollupIndex::For(dimension);
  ASSERT_NE(index, nullptr);

  for (CategoryTypeIndex c = 0; c < dimension.type().category_count(); ++c) {
    std::vector<ValueId> expected = dimension.ValuesIn(c);
    std::sort(expected.begin(), expected.end());
    std::vector<ValueId> actual;
    for (const std::uint32_t* d = index->CategoryBegin(c);
         d != index->CategoryEnd(c); ++d) {
      actual.push_back(index->ValueOf(*d));
    }
    EXPECT_EQ(actual, expected) << "category " << c;
    EXPECT_TRUE(std::is_sorted(actual.begin(), actual.end()));
  }
}

TEST(RollupIndexTest, FlatTableMatchesAncestorsIn) {
  Dimension dimension = BuildStrictDimension();
  auto index = RollupIndex::For(dimension);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->has_flat_table());

  for (ValueId v : dimension.AllValues()) {
    const std::uint32_t d = index->DenseOf(v);
    const CategoryTypeIndex own = *dimension.CategoryOf(v);
    for (CategoryTypeIndex c = 0; c < dimension.type().category_count();
         ++c) {
      const std::uint32_t ancestor = index->AncestorAt(d, c);
      if (c == own) {
        // Self-mapping: the value is its own "ancestor" at its category.
        EXPECT_EQ(ancestor, d);
        EXPECT_DOUBLE_EQ(index->AncestorProbAt(d, c), 1.0);
        continue;
      }
      auto expected = dimension.AncestorsIn(v, c);
      if (expected.empty()) {
        EXPECT_EQ(ancestor, RollupIndex::kNone)
            << "value " << v.raw() << " category " << c;
      } else {
        ASSERT_EQ(expected.size(), 1u) << "fixture must be strict";
        ASSERT_NE(ancestor, RollupIndex::kNone);
        EXPECT_EQ(index->ValueOf(ancestor), expected.front().value);
        EXPECT_DOUBLE_EQ(index->AncestorProbAt(d, c),
                         expected.front().prob);
      }
    }
  }
}

TEST(RollupIndexTest, GateFailsOnTemporalOrNonStrictHierarchies) {
  // The paper's diagnosis dimension is both temporal (edge lifespans)
  // and non-strict (value 5 has two families): no flat table.
  Dimension temporal = BuildDiagnosisDimension();
  auto temporal_index = RollupIndex::For(temporal);
  ASSERT_NE(temporal_index, nullptr);
  EXPECT_FALSE(temporal_index->has_flat_table());

  // One temporal edge in an otherwise strict Always-hierarchy also
  // fails the gate: the closure would carry real lifespans.
  Dimension one_temporal = BuildStrictDimension();
  CategoryTypeIndex low = *one_temporal.type().Find("Low-level Diagnosis");
  ASSERT_TRUE(one_temporal.AddValue(low, ValueId(4)).ok());
  ASSERT_TRUE(one_temporal
                  .AddOrder(ValueId(4), ValueId(11),
                            During("[01/01/80-NOW]"))
                  .ok());
  auto gated = RollupIndex::For(one_temporal);
  ASSERT_NE(gated, nullptr);
  EXPECT_FALSE(gated->has_flat_table());
  // The dense arrays and CSR remain usable regardless of the gate.
  EXPECT_EQ(gated->value_count(), one_temporal.AllValues().size());
}

// ---- Caching and invalidation ---------------------------------------------

TEST(RollupIndexTest, SecondForReusesTheCachedSnapshot) {
  Dimension dimension = BuildStrictDimension();
  ExecStats stats;
  auto first = RollupIndex::For(dimension, &stats);
  EXPECT_EQ(stats.index_builds, 1u);
  auto second = RollupIndex::For(dimension, &stats);
  EXPECT_EQ(stats.index_builds, 1u) << "cached snapshot must be reused";
  EXPECT_EQ(first.get(), second.get());
  EXPECT_FALSE(first->StaleFor(dimension));
}

TEST(RollupIndexTest, EveryMutationKindInvalidatesTheSnapshot) {
  Dimension dimension = BuildStrictDimension();
  CategoryTypeIndex low = *dimension.type().Find("Low-level Diagnosis");
  ExecStats stats;

  // AddValue: a fresh value must appear in the recompiled snapshot.
  auto before_value = RollupIndex::For(dimension, &stats);
  ASSERT_TRUE(dimension.AddValue(low, ValueId(100)).ok());
  EXPECT_TRUE(before_value->StaleFor(dimension));
  auto after_value = RollupIndex::For(dimension, &stats);
  EXPECT_EQ(stats.index_builds, 2u);
  EXPECT_NE(before_value.get(), after_value.get());
  EXPECT_EQ(before_value->DenseOf(ValueId(100)), RollupIndex::kNone);
  EXPECT_NE(after_value->DenseOf(ValueId(100)), RollupIndex::kNone);

  // AddOrder (new edge): the recompiled flat table sees the new parent.
  ASSERT_TRUE(dimension
                  .AddOrder(ValueId(100), ValueId(11),
                            During("[01/01/80-NOW]"))
                  .ok());
  EXPECT_TRUE(after_value->StaleFor(dimension));
  auto after_edge = RollupIndex::For(dimension, &stats);
  EXPECT_EQ(stats.index_builds, 3u);
  EXPECT_NE(after_value.get(), after_edge.get());

  // AddOrder on the same pair with a disjoint lifespan coalesces into
  // the existing edge — no new edge, but the order changed, so the
  // snapshot must still be rejected.
  const std::size_t edges_before = dimension.edges().size();
  ASSERT_TRUE(dimension
                  .AddOrder(ValueId(100), ValueId(11),
                            During("[01/01/60-31/12/69]"))
                  .ok());
  EXPECT_EQ(dimension.edges().size(), edges_before);
  EXPECT_TRUE(after_edge->StaleFor(dimension));
  auto after_coalesce = RollupIndex::For(dimension, &stats);
  EXPECT_EQ(stats.index_builds, 4u);
  EXPECT_NE(after_edge.get(), after_coalesce.get());
}

// A value compiled into a snapshot before its parent edge arrives (a
// compile between AddValueAuto and AddOrder in one append run): the edge
// is an append, but a patch would copy the value's numbered row, which
// has no ancestor. The compile must rebuild and see the parent.
TEST(RollupIndexTest, EdgeUnderANumberedValueRebuildsTheSnapshot) {
  DimensionTypeBuilder builder("Product");
  builder.AddCategory("Product", AggregationType::kConstant)
      .AddCategory("Category", AggregationType::kConstant)
      .AddOrder("Product", "Category");
  auto type = builder.Build();
  ASSERT_TRUE(type.ok()) << type.status();
  const CategoryTypeIndex product = *(*type)->Find("Product");
  const CategoryTypeIndex category = *(*type)->Find("Category");
  Dimension dimension(*type);
  const ValueId c = dimension.AddValueAuto(category).ValueOrDie();
  const ValueId p1 = dimension.AddValueAuto(product).ValueOrDie();
  ASSERT_TRUE(dimension.AddOrder(p1, c).ok());
  const ValueId p2 = dimension.AddValueAuto(product).ValueOrDie();
  const std::uint64_t structural = dimension.structural_version();
  auto numbered = RollupIndex::For(dimension);
  ASSERT_NE(numbered->DenseOf(p2), RollupIndex::kNone);
  EXPECT_EQ(numbered->AncestorAt(numbered->DenseOf(p2), category),
            RollupIndex::kNone);

  ASSERT_TRUE(dimension.AddOrder(p2, c).ok());
  EXPECT_EQ(dimension.structural_version(), structural)
      << "an edge under a value of the current append run is an append";
  ExecStats stats;
  auto recompiled = RollupIndex::For(dimension, &stats);
  EXPECT_EQ(stats.index_builds, 1u);
  EXPECT_EQ(stats.rollup_patches, 0u);
  ASSERT_TRUE(recompiled->has_flat_table());
  EXPECT_EQ(recompiled->AncestorAt(recompiled->DenseOf(p2), category),
            recompiled->DenseOf(c));

  // Byte for byte what a fresh build of the same dimension answers.
  Dimension copy = dimension;
  copy.set_compiled_snapshot_slot(nullptr);
  auto built = RollupIndex::For(copy);
  ASSERT_EQ(built->value_count(), recompiled->value_count());
  for (std::uint32_t d = 0; d < built->value_count(); ++d) {
    for (CategoryTypeIndex at : {product, category}) {
      EXPECT_EQ(recompiled->AncestorAt(d, at), built->AncestorAt(d, at))
          << "dense " << d << " at category " << at;
    }
  }
}

TEST(RollupIndexTest, CopiesShareTheSnapshotUntilMutated) {
  Dimension original = BuildStrictDimension();
  auto compiled = RollupIndex::For(original);

  // A copy carries the slot: same snapshot, no recompile.
  Dimension copy = original;
  ExecStats stats;
  auto from_copy = RollupIndex::For(copy, &stats);
  EXPECT_EQ(stats.index_builds, 0u);
  EXPECT_EQ(compiled.get(), from_copy.get());

  // Mutating the copy bumps only the copy's version; the original keeps
  // consuming the shared snapshot.
  CategoryTypeIndex low = *copy.type().Find("Low-level Diagnosis");
  ASSERT_TRUE(copy.AddValue(low, ValueId(200)).ok());
  EXPECT_TRUE(compiled->StaleFor(copy));
  EXPECT_FALSE(compiled->StaleFor(original));
  auto rebuilt = RollupIndex::For(copy, &stats);
  EXPECT_EQ(stats.index_builds, 1u);
  EXPECT_NE(rebuilt.get(), compiled.get());
  EXPECT_EQ(RollupIndex::For(original).get(), compiled.get());
}

// ---- End-to-end: hot paths consume the index, results stay identical ------

TEST(RollupIndexEndToEndTest, AggregateCountsHitsAndMatchesSequential) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));

  auto sequential = reference::AggregateFormation(retail.mo, spec);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto sequential_bytes = io::WriteMo(*sequential);
  ASSERT_TRUE(sequential_bytes.ok());

  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    auto indexed = AggregateFormation(retail.mo, spec, &ctx);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    // The retail product hierarchy is strict and non-temporal: the
    // grouping dimension must resolve through the flat table.
    EXPECT_GT(ctx.stats.index_hits, 0u) << "threads=" << threads;
    EXPECT_GT(ctx.stats.index_builds + ctx.stats.index_hits, 0u);
    auto bytes = io::WriteMo(*indexed);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, *sequential_bytes)
        << "indexed aggregate differs at threads=" << threads;
  }
}

TEST(RollupIndexEndToEndTest, NonStrictAggregateCountsFallbacks) {
  ClinicalMo clinical = BuildClinical();
  AggregateSpec spec = SpecFor(
      AggFunction::SetCount(),
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family));

  auto sequential = reference::AggregateFormation(clinical.mo, spec);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto sequential_bytes = io::WriteMo(*sequential);
  ASSERT_TRUE(sequential_bytes.ok());

  ExecContext ctx(2, /*min_facts=*/1);
  auto indexed = AggregateFormation(clinical.mo, spec, &ctx);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  // The non-strict, temporal diagnosis hierarchy fails the flat-table
  // gate; the run must fall back — and still match byte-for-byte.
  EXPECT_GT(ctx.stats.index_fallbacks, 0u);
  auto bytes = io::WriteMo(*indexed);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, *sequential_bytes);
}

TEST(RollupIndexEndToEndTest, TimesliceCountsHitsAndMatchesSequential) {
  ClinicalMo clinical = BuildClinical();
  const Chronon at = Day("15/06/85");

  auto sequential = reference::ValidTimeslice(clinical.mo, at);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto sequential_bytes = io::WriteMo(*sequential);
  ASSERT_TRUE(sequential_bytes.ok());

  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    auto indexed = ValidTimeslice(clinical.mo, at, &ctx);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    // The dense value scan needs no gate: every dimension is a hit.
    EXPECT_EQ(ctx.stats.index_hits, clinical.mo.dimension_count())
        << "threads=" << threads;
    auto bytes = io::WriteMo(*indexed);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, *sequential_bytes)
        << "indexed timeslice differs at threads=" << threads;
  }
}

TEST(RollupIndexEndToEndTest, JoinCountsHitsAndMatchesSequential) {
  RetailMo retail = BuildRetail(7, /*purchases=*/120);
  RenameSpec rename;
  rename.fact_type = retail.mo.schema().fact_type() + "'";
  for (std::size_t i = 0; i < retail.mo.dimension_count(); ++i) {
    rename.dimension_names.push_back(retail.mo.dimension(i).name() + "'");
  }
  MdObject renamed = std::move(Rename(retail.mo, rename)).ValueOrDie();

  auto sequential = Join(retail.mo, renamed, JoinPredicate::kEqual);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto sequential_bytes = io::WriteMo(*sequential);
  ASSERT_TRUE(sequential_bytes.ok());

  ExecContext ctx(2, /*min_facts=*/1);
  auto indexed = Join(retail.mo, renamed, JoinPredicate::kEqual, &ctx);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  // Warm-up compiles/attaches a snapshot per operand dimension.
  EXPECT_EQ(ctx.stats.index_hits,
            retail.mo.dimension_count() + renamed.dimension_count());
  auto bytes = io::WriteMo(*indexed);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, *sequential_bytes);
}

TEST(RollupIndexEndToEndTest, PreAggRollupCountsHitsAndMatchesSequential) {
  RetailMo retail = BuildRetail();
  auto by_category =
      GroupingAt(retail.mo, retail.product_dim, retail.category);
  auto by_department =
      GroupingAt(retail.mo, retail.product_dim, retail.department);

  // Ground truth: the same materialize-then-rollup sequence through the
  // reference formation and rollup, which walk the closure and never
  // touch the index.
  auto plain_cached = reference::AggregateFormation(
      retail.mo, SpecFor(AggFunction::Sum(retail.amount_dim), by_category));
  ASSERT_TRUE(plain_cached.ok()) << plain_cached.status();
  auto plain_rolled = reference::RollUpAggregate(
      retail.mo, *plain_cached, AggFunction::Sum(retail.amount_dim),
      by_department);
  ASSERT_TRUE(plain_rolled.ok()) << plain_rolled.status();
  auto plain_bytes = io::WriteMo(*plain_rolled);
  ASSERT_TRUE(plain_bytes.ok());

  PreAggregateCache indexed(retail.mo);
  ExecContext materialize_ctx(2, /*min_facts=*/1);
  ASSERT_TRUE(indexed
                  .Materialize(AggFunction::Sum(retail.amount_dim),
                               by_category, &materialize_ctx)
                  .ok());
  ExecContext rollup_ctx(2, /*min_facts=*/1);
  auto rolled = indexed.Query(AggFunction::Sum(retail.amount_dim),
                              by_department, &rollup_ctx);
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  EXPECT_EQ(indexed.stats().rollup_hits, 1u);
  // The rollup itself (not a base scan) consumed the flat table.
  EXPECT_GT(rollup_ctx.stats.index_hits, 0u);
  auto bytes = io::WriteMo(*rolled);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, *plain_bytes);
}

TEST(RollupIndexEndToEndTest,
     MutationAfterBuildStaysByteIdenticalAcrossThreads) {
  // The ISSUE's invalidation contract end to end: compile snapshots by
  // running on the engine, mutate a grouping dimension, and prove the
  // stale snapshot is rejected — recompiled, never consulted — with
  // results byte-identical to the reference formation at 1/2/8 threads.
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  {
    ExecContext warm(2, /*min_facts=*/1);
    ASSERT_TRUE(AggregateFormation(retail.mo, spec, &warm).ok());
  }
  auto stale = RollupIndex::For(retail.mo.dimension(retail.product_dim));

  // A fresh product joins an existing category; no purchase references
  // it, so every aggregate total is unchanged — but the hierarchy (and
  // thus the snapshot) is not.
  Dimension& products = retail.mo.dimension_mutable(retail.product_dim);
  const ValueId category_value =
      products.ValuesIn(retail.category).front();
  ASSERT_TRUE(products.AddValue(retail.product, ValueId(999983)).ok());
  ASSERT_TRUE(products.AddOrder(ValueId(999983), category_value).ok());
  EXPECT_TRUE(stale->StaleFor(products));

  auto sequential = reference::AggregateFormation(retail.mo, spec);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto sequential_bytes = io::WriteMo(*sequential);
  ASSERT_TRUE(sequential_bytes.ok());

  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    auto indexed = AggregateFormation(retail.mo, spec, &ctx);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    if (threads == 1u) {
      // The first engine run after the mutation must recompile.
      EXPECT_GT(ctx.stats.index_builds, 0u);
    }
    EXPECT_NE(RollupIndex::For(products).get(), stale.get());
    auto bytes = io::WriteMo(*indexed);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, *sequential_bytes)
        << "post-mutation result differs at threads=" << threads;
  }
}

}  // namespace
}  // namespace mddc
