#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "algebra/predicate.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "mdql/bind.h"
#include "mdql/parser.h"
#include "reference/aggregate_reference.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// The columnar read path (docs/groupby_kernel.md, docs/mdql_compiler.md):
// the group-by scan gathers facts with one plain pair per live and
// argument dimension from the relations' dense-id columns and walks every
// other fact through coordinate lists, in one loop; WHERE atoms that are
// properties of a value are decided once per value. The differentials
// below mix gather-eligible facts with every shape that must not be
// gathered — two pairs, a temporal pair, a PROB 0.8 pair, a top pair, no
// pair at all, a non-numeric argument value — and compare the stream,
// the formation and the append fold with the reference at 1, 2 and 8
// threads, the masks with the per-fact loop, and the column lifecycle
// (tail growth, renumbering, publication) with a from-scratch build.

namespace mddc {
namespace {

using testing_fixtures::During;
using testing_fixtures::FreshColumn;
using testing_fixtures::HasSealedColumn;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::string Outcome(const Result<MdObject>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  auto bytes = io::WriteMo(*result);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

std::vector<CategoryTypeIndex> Grouping(
    const MdObject& mo,
    const std::vector<std::pair<std::size_t, CategoryTypeIndex>>& live) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(mo.dimension(i).type().top());
  }
  for (const auto& [dim, category] : live) grouping[dim] = category;
  return grouping;
}

AggregateSpec SpecFor(const AggFunction& function,
                      std::vector<CategoryTypeIndex> grouping) {
  return AggregateSpec{function, std::move(grouping),
                       ResultDimensionSpec::Auto(), kNowChronon,
                       /*enforce_aggregation_types=*/true};
}

// ---- Mixed shapes ----------------------------------------------------------

enum class Shape {
  kTwoPairs,
  kTemporal,
  kUncertain,
  kTop,
  kMissing,
  kNonNumeric,
};

/// Adds `fact` with one plain pair in every dimension but `dim`, where it
/// gets `shape`. Plain values are taken from existing pairs.
Status AddShapedFact(MdObject& mo, FactId fact, std::size_t dim,
                     Shape shape) {
  MDDC_RETURN_NOT_OK(mo.AddFact(fact));
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const ChunkedVector<FactDimRelation::Entry>& entries =
        mo.relation(i).entries();
    const std::size_t pick = fact.raw() % 11;
    const ValueId first = entries[pick].value;
    std::size_t other = pick + 1;
    while (entries[other].value == first) ++other;
    const ValueId second = entries[other].value;
    if (i != dim) {
      MDDC_RETURN_NOT_OK(mo.Relate(i, fact, first));
      continue;
    }
    switch (shape) {
      case Shape::kTwoPairs:
        MDDC_RETURN_NOT_OK(mo.Relate(i, fact, first));
        MDDC_RETURN_NOT_OK(mo.Relate(i, fact, second));
        break;
      case Shape::kTemporal:
        MDDC_RETURN_NOT_OK(
            mo.Relate(i, fact, first, During("[01/01/98-30/06/98]")));
        break;
      case Shape::kUncertain:
        MDDC_RETURN_NOT_OK(
            mo.Relate(i, fact, first, Lifespan::AlwaysSpan(), 0.8));
        break;
      case Shape::kTop:
        MDDC_RETURN_NOT_OK(mo.Relate(i, fact, mo.dimension(i).top_value()));
        break;
      case Shape::kMissing:
        break;
      case Shape::kNonNumeric: {
        MDDC_ASSIGN_OR_RETURN(const CategoryTypeIndex category,
                              mo.dimension(i).CategoryOf(first));
        MDDC_ASSIGN_OR_RETURN(const ValueId odd,
                              mo.dimension_mutable(i).AddValueAuto(category));
        MDDC_RETURN_NOT_OK(mo.Relate(i, fact, odd));
        break;
      }
    }
  }
  return Status::OK();
}

RetailMo BuildRetail(std::size_t purchases = 400) {
  RetailWorkloadParams params;
  params.seed = 5;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// The retail MO plus one fact per non-gatherable shape in the two live
/// dimensions (Product, Store) and the argument dimension (Amount);
/// `non_numeric` adds an Amount value no function can read.
RetailMo BuildMixedRetail(bool non_numeric) {
  RetailMo retail = BuildRetail();
  std::uint64_t key = 5000000;
  for (std::size_t dim : {retail.product_dim, retail.store_dim,
                          retail.amount_dim}) {
    for (Shape shape : {Shape::kTwoPairs, Shape::kTemporal, Shape::kUncertain,
                        Shape::kTop, Shape::kMissing}) {
      const FactId fact = retail.mo.registry()->Atom(key++);
      EXPECT_TRUE(AddShapedFact(retail.mo, fact, dim, shape).ok());
    }
  }
  if (non_numeric) {
    const FactId fact = retail.mo.registry()->Atom(key++);
    EXPECT_TRUE(AddShapedFact(retail.mo, fact, retail.amount_dim,
                              Shape::kNonNumeric)
                    .ok());
  }
  return retail;
}

std::vector<AggFunction> AmountFunctions(std::size_t amount) {
  return {AggFunction::SetCount(), AggFunction::Count(amount),
          AggFunction::Sum(amount), AggFunction::Avg(amount),
          AggFunction::Min(amount), AggFunction::Max(amount)};
}

std::vector<std::vector<CategoryTypeIndex>> RetailGroupings(
    const RetailMo& retail) {
  return {Grouping(retail.mo, {{retail.product_dim, retail.category},
                               {retail.store_dim, retail.city}}),
          Grouping(retail.mo, {{retail.store_dim, retail.region}}),
          Grouping(retail.mo, {})};
}

/// The reference result's value text per group, keyed by member set (the
/// formation collapses groups with equal member sets into one fact).
std::map<std::vector<FactId>, std::string> ReferenceValues(
    const MdObject& result) {
  const std::size_t n = result.dimension_count() - 1;
  const Dimension& values = result.dimension(n);
  std::map<std::vector<FactId>, std::string> out;
  for (FactId fact : result.facts()) {
    auto term = result.registry()->Get(fact);
    EXPECT_TRUE(term.ok()) << term.status();
    const ValueId value = result.relation(n).ForFact(fact).front()->value;
    auto rep = values.FindRepresentation(*values.CategoryOf(value), "Value");
    EXPECT_TRUE(rep.ok());
    out[term->members] = *(*rep)->Get(value, kNowChronon);
  }
  return out;
}

/// AggregateStream over `functions` must reproduce one reference
/// formation per function — every group's value, or the first failing
/// function's Status — at every thread count.
void ExpectStreamMatchesReference(const MdObject& mo,
                                  const std::vector<AggFunction>& functions,
                                  const std::vector<CategoryTypeIndex>& grouping,
                                  ExecStats* totals,
                                  const std::string& context) {
  std::vector<std::map<std::vector<FactId>, std::string>> expected;
  std::string expected_error;
  for (const AggFunction& function : functions) {
    auto result = reference::AggregateFormation(mo, SpecFor(function, grouping));
    if (!result.ok()) {
      expected_error = result.status().ToString();
      break;
    }
    expected.push_back(ReferenceValues(*result));
  }
  for (std::size_t threads : kThreadCounts) {
    ExecContext ctx(threads, /*min_facts=*/1);
    StreamSpec spec;
    spec.functions = functions;
    spec.grouping = grouping;
    spec.collect_members = true;
    auto groups = AggregateStream(mo, spec, &ctx);
    totals->MergeFrom(ctx.stats);
    if (!expected_error.empty()) {
      ASSERT_FALSE(groups.ok()) << context;
      EXPECT_EQ(groups.status().ToString(), expected_error) << context;
      continue;
    }
    ASSERT_TRUE(groups.ok()) << context << ": " << groups.status();
    for (std::size_t t = 1; t < groups->size(); ++t) {
      EXPECT_LT((*groups)[t - 1].key, (*groups)[t].key) << context;
    }
    for (std::size_t k = 0; k < functions.size(); ++k) {
      std::map<std::vector<FactId>, std::string> got;
      for (const StreamGroup& group : *groups) {
        got.emplace(group.member_facts, FormatDouble(group.values[k]));
      }
      EXPECT_EQ(got, expected[k])
          << context << " (" << functions[k].name() << ") at " << threads
          << " threads";
    }
  }
}

/// AggregateFormation must serialize exactly like the reference at every
/// thread count.
void ExpectFormationMatchesReference(const MdObject& mo,
                                     const AggregateSpec& spec,
                                     ExecStats* totals,
                                     const std::string& context) {
  const std::string expected = Outcome(reference::AggregateFormation(mo, spec));
  for (std::size_t threads : kThreadCounts) {
    ExecContext ctx(threads, /*min_facts=*/1);
    EXPECT_EQ(Outcome(AggregateFormation(mo, spec, &ctx)), expected)
        << context << " (" << spec.function.name() << ") at " << threads
        << " threads";
    totals->MergeFrom(ctx.stats);
  }
}

TEST(ColumnGatherTest, MixedShapesMatchReferenceAtEveryThreadCount) {
  for (bool non_numeric : {false, true}) {
    const RetailMo retail = BuildMixedRetail(non_numeric);
    const std::string context =
        non_numeric ? "mixed retail, non-numeric amount" : "mixed retail";
    ExecStats totals;
    for (const auto& grouping : RetailGroupings(retail)) {
      const std::vector<AggFunction> functions =
          AmountFunctions(retail.amount_dim);
      ExpectStreamMatchesReference(retail.mo, functions, grouping, &totals,
                                   context);
      for (const AggFunction& function : functions) {
        ExpectFormationMatchesReference(
            retail.mo, SpecFor(function, grouping), &totals, context);
      }
    }
    EXPECT_GT(totals.facts_gathered, 0u) << context;
    EXPECT_GT(totals.facts_walked, 0u) << context;
  }
}

ClinicalMo BuildClinical() {
  ClinicalWorkloadParams params;
  params.seed = 3;
  params.num_patients = 300;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// Facts with exactly one Always, probability-1, non-top pair in `dim`.
std::size_t PlainFacts(const MdObject& mo, std::size_t dim) {
  std::size_t plain = 0;
  for (FactId fact : mo.facts()) {
    const auto pairs = mo.relation(dim).ForFact(fact);
    plain += pairs.size() == 1 && pairs[0]->life.IsAlways() &&
             pairs[0]->prob == 1.0 &&
             pairs[0]->value != mo.dimension(dim).top_value();
  }
  return plain;
}

TEST(ColumnGatherTest, ClinicalGathersExactlyThePlainResidenceFacts) {
  const ClinicalMo clinical = BuildClinical();
  const MdObject& mo = clinical.mo;
  const auto by_region =
      Grouping(mo, {{clinical.residence_dim, clinical.region}});
  ExecStats totals;
  ExpectStreamMatchesReference(
      mo, {AggFunction::SetCount(), AggFunction::Count(clinical.residence_dim)},
      by_region, &totals, "clinical by region");
  ExpectStreamMatchesReference(
      mo, {AggFunction::SetCount(), AggFunction::Count(clinical.diagnosis_dim)},
      Grouping(mo, {{clinical.diagnosis_dim, clinical.group}}), &totals,
      "clinical by diagnosis group");
  ExpectFormationMatchesReference(mo, SpecFor(AggFunction::SetCount(), by_region),
                                  &totals, "clinical by region");

  // The gathered facts of one scan are exactly the plain Residence facts;
  // the rest (PROB, temporal, unknown residence) are walked.
  ExecContext ctx;
  StreamSpec spec;
  spec.functions = {AggFunction::SetCount()};
  spec.grouping = by_region;
  ASSERT_TRUE(AggregateStream(mo, spec, &ctx).ok());
  const std::size_t plain = PlainFacts(mo, clinical.residence_dim);
  EXPECT_GT(plain, 0u);
  EXPECT_LT(plain, mo.fact_count());
  EXPECT_EQ(ctx.stats.facts_gathered, plain);
  EXPECT_EQ(ctx.stats.facts_walked, mo.fact_count() - plain);
}

// ---- Folds over a grown last row ---------------------------------------------

/// Appends a plain purchase `first`, seals the relations' columns by
/// scanning `mo` (so `first` is the last sealed row), then grows that row
/// with a second Amount pair and appends shaped purchases after it.
/// Returns the appended facts.
std::vector<FactId> AppendGrowingTheLastRow(MdObject& mo,
                                            const RetailMo& retail,
                                            std::uint64_t base_key) {
  const std::size_t before = mo.fact_count();
  const FactId first = mo.registry()->Atom(base_key);
  EXPECT_TRUE(
      AddShapedFact(mo, first, retail.amount_dim, Shape::kMissing).ok());
  const FactDimRelation& amounts = mo.relation(retail.amount_dim);
  const ValueId plain = amounts.entries()[3].value;
  EXPECT_TRUE(mo.Relate(retail.amount_dim, first, plain).ok());
  StreamSpec seal;
  seal.functions = {AggFunction::Sum(retail.amount_dim)};
  seal.grouping = Grouping(mo, {{retail.store_dim, retail.city}});
  ExecContext ctx;
  EXPECT_TRUE(AggregateStream(mo, seal, &ctx).ok());
  EXPECT_GT(ctx.stats.facts_gathered, 0u);
  // The grown row must now be walked with both pairs.
  const ValueId other = amounts.entries()[5].value == plain
                            ? amounts.entries()[6].value
                            : amounts.entries()[5].value;
  EXPECT_TRUE(mo.Relate(retail.amount_dim, first, other).ok());
  std::uint64_t key = base_key + 1;
  EXPECT_TRUE(AddShapedFact(mo, mo.registry()->Atom(key++), retail.store_dim,
                            Shape::kUncertain)
                  .ok());
  EXPECT_TRUE(AddShapedFact(mo, mo.registry()->Atom(key++), retail.amount_dim,
                            Shape::kTwoPairs)
                  .ok());
  EXPECT_TRUE(AddShapedFact(mo, mo.registry()->Atom(key++), retail.amount_dim,
                            Shape::kTop)
                  .ok());
  for (int plain_facts = 0; plain_facts < 3; ++plain_facts) {
    EXPECT_TRUE(AddShapedFact(mo, mo.registry()->Atom(key++),
                              retail.product_dim, Shape::kTemporal)
                    .ok());
  }
  return std::vector<FactId>(
      mo.facts().begin() + static_cast<std::ptrdiff_t>(before),
      mo.facts().end());
}

TEST(ColumnGatherTest, FoldOverAGrownLastRowMatchesReference) {
  RetailMo retail = BuildMixedRetail(/*non_numeric=*/false);
  std::vector<AggregateSpec> specs;
  for (const auto& grouping : RetailGroupings(retail)) {
    for (const AggFunction& function : AmountFunctions(retail.amount_dim)) {
      specs.push_back(SpecFor(function, grouping));
    }
  }
  std::vector<AggregateFoldState> states(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    AggregateSpec capture = specs[s];
    capture.capture = &states[s];
    ASSERT_TRUE(AggregateFormation(retail.mo, capture).ok());
    ASSERT_TRUE(states[s].valid);
  }
  const std::vector<FactId> delta =
      AppendGrowingTheLastRow(retail.mo, retail, 6000000);
  ExecStats totals;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::string expected =
        Outcome(reference::AggregateFormation(retail.mo, specs[s]));
    for (std::size_t threads : kThreadCounts) {
      ExecContext ctx(threads, /*min_facts=*/1);
      EXPECT_EQ(Outcome(FoldAggregateAppend(retail.mo, specs[s], states[s],
                                            delta, &ctx)),
                expected)
          << specs[s].function.name() << " at " << threads << " threads";
      totals.MergeFrom(ctx.stats);
    }
  }
  EXPECT_GT(totals.facts_gathered, 0u);
  EXPECT_GT(totals.facts_walked, 0u);
}

TEST(ColumnGatherTest, AppendBatchExtendsPublishedColumnsLikeAFreshBuild) {
  const RetailMo retail = BuildMixedRetail(/*non_numeric=*/false);
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("retail", retail.mo).ok());
  const auto by_city = Grouping(retail.mo, {{retail.store_dim, retail.city}});
  const std::vector<AggFunction> warm = {AggFunction::Sum(retail.amount_dim),
                                         AggFunction::Count(retail.amount_dim),
                                         AggFunction::SetCount()};
  for (const AggFunction& function : warm) {
    ASSERT_TRUE(store.WarmAggregate("retail", function, by_city).ok());
  }
  ExecStats write_stats;
  for (std::uint64_t batch = 0; batch < 4; ++batch) {
    ASSERT_TRUE(store
                    .AppendBatch(
                        "retail",
                        [&](MdObject& draft) {
                          (void)AppendGrowingTheLastRow(
                              draft, retail, 7000000 + batch * 100);
                          return Status::OK();
                        },
                        /*published_epoch=*/nullptr, &write_stats)
                    .ok())
        << "batch " << batch;
    const auto snapshot = store.Pin();
    const serve::PublishedMo* entry = snapshot->Find("retail");
    ASSERT_NE(entry, nullptr);
    const MdObject& mo = entry->mo();
    for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
      const RollupIndex& index = *entry->rollups[i];
      ASSERT_TRUE(HasSealedColumn(mo.relation(i), index))
          << "batch " << batch << " dimension " << i;
      EXPECT_EQ(*mo.relation(i).DenseColumn(index.numbering()),
                FreshColumn(mo.relation(i), index))
          << "batch " << batch << " dimension " << i;
    }
    // The published registry is sealed; the reference interns into a fork.
    const MdObject forked =
        mo.WithRegistry(FactRegistry::ForkOf(mo.registry()));
    for (const AggFunction& function : warm) {
      const MdObject* cached = entry->preagg->Peek(function, by_city);
      ASSERT_NE(cached, nullptr);
      EXPECT_EQ(Outcome(*cached),
                Outcome(reference::AggregateFormation(
                    forked, SpecFor(function, by_city))))
          << function.name() << " after batch " << batch;
    }
  }
  EXPECT_EQ(store.CollectStats().append_fallbacks, 0u);
  EXPECT_GT(write_stats.facts_gathered, 0u);
  EXPECT_GT(write_stats.facts_walked, 0u);
}

// ---- Numbering ---------------------------------------------------------------

TEST(ColumnGatherTest, RenumberingBuildNeverReadsAStaleColumn) {
  RetailMo retail = BuildRetail(200);
  MdObject& mo = retail.mo;
  const AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              Grouping(mo, {{retail.store_dim, retail.store}}));
  ExecContext before;
  ASSERT_TRUE(AggregateFormation(mo, spec, &before).ok());
  EXPECT_EQ(before.stats.facts_gathered, mo.fact_count());
  const std::uint64_t old_generation =
      RollupIndex::For(mo.dimension(retail.store_dim))->numbering_generation();

  // A store value below the auto-id mark lands inside the ascending dense
  // order: every later store's dense id shifts by one.
  Dimension& stores = mo.dimension_mutable(retail.store_dim);
  const ValueId low(1);
  ASSERT_FALSE(stores.HasValue(low));
  ASSERT_TRUE(stores.AddValue(retail.store, low).ok());
  ASSERT_TRUE(stores
                  .AddOrder(low, stores.ValuesIn(retail.city).front())
                  .ok());
  auto renumbered = RollupIndex::For(stores);
  EXPECT_NE(renumbered->numbering_generation(), old_generation);
  EXPECT_EQ(mo.relation(retail.store_dim).DenseColumn(renumbered->numbering()),
            nullptr);

  const std::string expected = Outcome(reference::AggregateFormation(mo, spec));
  for (std::size_t threads : kThreadCounts) {
    ExecContext ctx(threads, /*min_facts=*/1);
    EXPECT_EQ(Outcome(AggregateFormation(mo, spec, &ctx)), expected)
        << threads << " threads";
    EXPECT_EQ(ctx.stats.facts_gathered, 0u) << "stale column read";
  }

  // A relation edit drops the stale column; the next scan compiles one
  // under the new numbering and gathers again.
  const FactId fact = mo.registry()->Atom(9000000);
  ASSERT_TRUE(AddShapedFact(mo, fact, retail.store_dim, Shape::kMissing).ok());
  ASSERT_TRUE(mo.Relate(retail.store_dim, fact, low).ok());
  ExecContext after;
  EXPECT_EQ(Outcome(AggregateFormation(mo, spec, &after)),
            Outcome(reference::AggregateFormation(mo, spec)));
  EXPECT_EQ(after.stats.facts_gathered, mo.fact_count());
}

TEST(ColumnGatherTest, CopiesCarryValidColumnsAndEditsDropThem) {
  RetailMo retail = BuildRetail(100);
  const FactDimRelation& stores = retail.mo.relation(retail.store_dim);
  const auto index = RollupIndex::For(retail.mo.dimension(retail.store_dim));
  EXPECT_FALSE(HasSealedColumn(stores, *index));
  const ChunkedVector<std::uint32_t> column = *stores.DenseColumn(index->numbering());
  EXPECT_EQ(column.size(), stores.FactSpans().size());
  EXPECT_TRUE(HasSealedColumn(stores, *index));
  for (std::uint32_t slot : column) EXPECT_NE(slot, FactDimRelation::kNoDense);

  FactDimRelation copy = stores;
  EXPECT_TRUE(HasSealedColumn(copy, *index));
  // A second pair for the last fact grows its row: the extended column
  // marks it ineligible and leaves every other slot as it was.
  const FactId last = retail.mo.facts().back();
  const ValueId other = stores.entries()[0].value == stores.entries().back().value
                            ? stores.entries()[1].value
                            : stores.entries()[0].value;
  ASSERT_TRUE(copy.Add(last, other).ok());
  EXPECT_FALSE(HasSealedColumn(copy, *index));
  const ChunkedVector<std::uint32_t> grown = *copy.DenseColumn(index->numbering());
  ASSERT_EQ(grown.size(), column.size());
  EXPECT_EQ(grown.back(), FactDimRelation::kNoDense);
  EXPECT_TRUE(std::equal(column.begin(), column.end() - 1, grown.begin()));
  EXPECT_EQ(grown, FreshColumn(copy, *index));

  // RestrictToFacts renumbers the entries: the column is rebuilt.
  copy.RestrictToFacts({retail.mo.facts()[0], retail.mo.facts()[2]});
  EXPECT_FALSE(HasSealedColumn(copy, *index));
  EXPECT_EQ(copy.DenseColumn(index->numbering())->size(), 2u);
}

// ---- WHERE masks -------------------------------------------------------------

/// EvaluateMask must equal Evaluate per fact for `where` over `mo`.
void ExpectMaskMatchesPerFact(const MdObject& mo, const std::string& where) {
  auto parsed = mdql::Parse(StrCat("SELECT COUNT FROM m WHERE ", where));
  ASSERT_TRUE(parsed.ok()) << where << ": " << parsed.status();
  auto predicate = mdql::BuildWhere(mo, *parsed->select->where, nullptr);
  ASSERT_TRUE(predicate.ok()) << where << ": " << predicate.status();
  std::vector<bool> per_fact;
  for (FactId fact : mo.facts()) {
    auto match = predicate->Evaluate(mo, fact);
    ASSERT_TRUE(match.ok()) << where;
    per_fact.push_back(*match);
  }
  auto mask = predicate->EvaluateMask(mo);
  ASSERT_TRUE(mask.ok()) << where << ": " << mask.status();
  EXPECT_EQ(*mask, per_fact) << where << " -> "
                             << predicate->DescribeMask(mo);
}

TEST(WhereMaskTest, EqualsThePerFactLoopOnRetail) {
  const RetailMo retail = BuildMixedRetail(/*non_numeric=*/true);
  const MdObject& mo = retail.mo;
  const std::vector<std::string> wheres = {
      "Store.Store = 'Store-1'",
      "Product.Product = 'Product-3'",
      "Store.Store = 'No Such Store'",
      "Store.City = 'No Such City'",
      "NOT Store.Store = 'Store-2'",
      "NOT Store.Store = 'No Such Store'",
      "Amount < 4",
      "Amount <= 4",
      "Amount = 4",
      "Amount >= 4",
      "Amount > 4",
      "Amount <> 4",
      "Price >= 350",
      "NOT Price < 100",
      "PROB(Store.Store = 'Store-1') >= 0.9",
      "PROB(Store.Store = 'Store-2') >= 0.5",
      "Store.Store = 'Store-1' AND Amount >= 5",
      "Store.Store = 'Store-3' OR Product.Product = 'Product-2'",
      "(Amount <> 3 OR Price < 50) AND NOT Store.Store = 'Store-0'",
      "PROB(Store.Store = 'Store-4') >= 0.9 OR Amount = 7",
  };
  for (const std::string& where : wheres) ExpectMaskMatchesPerFact(mo, where);
}

TEST(WhereMaskTest, EqualsThePerFactLoopOnClinical) {
  const ClinicalMo clinical = BuildClinical();
  const MdObject& mo = clinical.mo;
  const std::vector<std::string> wheres = {
      "Residence.Region = 'R0'",
      "Residence.County = 'CO1'",
      "Residence.Area = 'A3'",
      "Residence.Region = 'R99'",
      "NOT Residence.Region = 'R1'",
      "Diagnosis.\"Diagnosis Group\" = 'G0'",
      "Diagnosis.\"Diagnosis Family\" = 'F3'",
      "NOT Diagnosis.\"Low-level Diagnosis\" = 'L2'",
      "PROB(Diagnosis.\"Diagnosis Group\" = 'G1') >= 0.8",
      "PROB(Residence.Region = 'R0') >= 0.5",
      "Residence.Region = 'R0' AND Diagnosis.\"Diagnosis Group\" = 'G1'",
      "Residence.Region = 'R1' OR NOT Residence.County = 'CO0'",
  };
  for (const std::string& where : wheres) ExpectMaskMatchesPerFact(mo, where);
}

TEST(WhereMaskTest, APredicateThatCanFailKeepsThePerFactLoop) {
  const RetailMo retail = BuildRetail(50);
  const MdObject& mo = retail.mo;
  const Predicate bad =
      Predicate::True().Not().Or(Predicate::NumericCompare(
          mo.dimension_count(), Predicate::Comparison::kLess, 1.0));
  auto mask = bad.EvaluateMask(mo);
  ASSERT_FALSE(mask.ok());
  EXPECT_EQ(mask.status().ToString(),
            bad.Evaluate(mo, mo.facts().front()).status().ToString());
  EXPECT_EQ(bad.DescribeMask(mo), "per fact (an atom can fail)");
}

// ---- Concurrency: readers gather from published columns ---------------------

TEST(ColumnGatherConcurrencyTest, ReadersNeverBuildColumnsOfPublishedEpochs) {
  const RetailMo retail = BuildRetail(300);
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("retail", retail.mo).ok());
  const auto by_city = Grouping(retail.mo, {{retail.store_dim, retail.city}});
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> failures{0};
  struct Seen {
    std::shared_ptr<const serve::MoSnapshot> snapshot;
    std::vector<StreamGroup> groups;
  };
  auto reader = [&](std::vector<Seen>* seen) {
    while (!done.load(std::memory_order_acquire) || reads.load() < 8) {
      std::shared_ptr<const serve::MoSnapshot> snapshot = store.Pin();
      const serve::PublishedMo* entry = snapshot->Find("retail");
      const MdObject& mo = entry->mo();
      for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
        if (!HasSealedColumn(mo.relation(i), *entry->rollups[i])) ++failures;
      }
      ExecContext ctx(2, /*min_facts=*/1);
      StreamSpec spec;
      spec.functions = {AggFunction::SetCount(),
                        AggFunction::Sum(retail.amount_dim)};
      spec.grouping = by_city;
      spec.collect_members = true;
      auto groups = AggregateStream(mo, spec, &ctx);
      if (!groups.ok() || ctx.stats.facts_walked != 0 ||
          ctx.stats.facts_gathered != mo.fact_count()) {
        ++failures;
      }
      if (groups.ok() && seen->size() < 4) {
        seen->push_back(Seen{snapshot, std::move(*groups)});
      }
      ++reads;
    }
  };
  std::vector<Seen> seen_a;
  std::vector<Seen> seen_b;
  std::thread reader_a(reader, &seen_a);
  std::thread reader_b(reader, &seen_b);
  for (std::uint64_t batch = 0; batch < 6; ++batch) {
    ASSERT_TRUE(store
                    .AppendBatch("retail",
                                 [&](MdObject& draft) {
                                   for (std::uint64_t k = 0; k < 5; ++k) {
                                     MDDC_RETURN_NOT_OK(AddShapedFact(
                                         draft,
                                         draft.registry()->Atom(
                                             8000000 + batch * 10 + k),
                                         retail.amount_dim, Shape::kMissing));
                                     MDDC_RETURN_NOT_OK(draft.Relate(
                                         retail.amount_dim,
                                         draft.facts().back(),
                                         draft.relation(retail.amount_dim)
                                             .entries()[k]
                                             .value));
                                   }
                                   return Status::OK();
                                 })
                    .ok());
  }
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(reads.load(), 8u);
  EXPECT_EQ(store.CollectStats().append_fallbacks, 0u);
  // Each recorded read equals the reference over the epoch it pinned.
  for (const std::vector<Seen>* seen : {&seen_a, &seen_b}) {
    for (const Seen& read : *seen) {
      // A private registry copy: the epoch's own is sealed, and the
      // formation interns its set facts.
      const MdObject& pinned = read.snapshot->Find("retail")->mo();
      const MdObject copy =
          pinned.WithRegistry(FactRegistry::ForkOf(pinned.registry()));
      auto expected = reference::AggregateFormation(
          copy, SpecFor(AggFunction::Sum(retail.amount_dim), by_city));
      ASSERT_TRUE(expected.ok()) << expected.status();
      std::map<std::vector<FactId>, std::string> got;
      for (const StreamGroup& group : read.groups) {
        got.emplace(group.member_facts, FormatDouble(group.values[1]));
      }
      EXPECT_EQ(got, ReferenceValues(*expected));
    }
  }
  ShutdownSharedThreadPool();
}

}  // namespace
}  // namespace mddc
