#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "io/serialize.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// The delta-fold differential (docs/ingestion.md): a warm pre-aggregate
// that FoldAggregateAppend resumes over appended facts must serialize
// byte-identically to a from-scratch AggregateFormation of the same spec
// over the same MO — for untouched groups (no appended member), mixed
// groups (old and new members) and fresh groups (new members only), for
// every function kind, at 1, 2 and 8 threads. Exercised twice: through
// MoStore::AppendBatch (the serving tier's seal) and by calling
// FoldAggregateAppend directly on a chain of captured states.

namespace mddc {
namespace {

constexpr std::size_t kBatches = 6;
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::string Bytes(const MdObject& mo) {
  auto bytes = io::WriteMo(mo);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

/// Asserts `folded` serializes exactly like a from-scratch formation of
/// `spec` over `mo` at every thread count, with the very same set-fact
/// ids: a fold interns grown groups as extensions of their previous
/// facts, the formation as plain sets, and both must name one fact.
void ExpectMatchesFormation(const MdObject& folded, const MdObject& mo,
                            AggregateSpec spec, const std::string& context) {
  spec.capture = nullptr;
  const std::string folded_bytes = Bytes(folded);
  for (std::size_t threads : kThreadCounts) {
    ExecContext ctx(threads, /*min_facts=*/1);
    auto scratch = AggregateFormation(mo, spec, &ctx);
    ASSERT_TRUE(scratch.ok()) << context << ": " << scratch.status();
    EXPECT_EQ(folded_bytes, Bytes(*scratch))
        << context << " (" << spec.function.name() << ") at " << threads
        << " threads";
    EXPECT_EQ(folded.facts(), scratch->facts())
        << context << " (" << spec.function.name() << ") at " << threads
        << " threads";
  }
}

AggregateSpec SpecFor(const AggFunction& function,
                      std::vector<CategoryTypeIndex> grouping) {
  return AggregateSpec{function, std::move(grouping),
                       ResultDimensionSpec::Auto(), kNowChronon,
                       /*enforce_aggregation_types=*/true};
}

std::vector<CategoryTypeIndex> GroupingAt(const MdObject& mo, std::size_t dim,
                                          CategoryTypeIndex category) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(i == dim ? category : mo.dimension(i).type().top());
  }
  return grouping;
}

// ---- Clinical: non-strict, temporal, uncertain --------------------------

ClinicalMo BuildClinical() {
  ClinicalWorkloadParams params;
  params.seed = 23;
  params.num_patients = 120;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// A bulk INSERT of `count` patients, every other one `PROB 0.8`. Areas
/// A0..A3 all lie in county CO0 of region R0 and the diagnoses come from
/// the first few low-level codes, so region R1 and most diagnosis groups
/// stay untouched while R0 and the first group mix old and new members.
std::string ClinicalInsert(std::uint64_t base_key, std::size_t count) {
  std::string statement = "INSERT INTO clinical";
  for (std::size_t b = 0; b < count; ++b) {
    const std::uint64_t key = base_key + b;
    statement += StrCat(b == 0 ? " " : ", ", "FACT ", key,
                        " (Diagnosis.\"Low-level Diagnosis\" = 'L", key % 5,
                        "'", b % 2 == 1 ? " PROB 0.8" : "",
                        ", Residence.Area = 'A", key % 4, "')");
  }
  return statement;
}

/// Appends one clinical batch to `draft` and returns the appended facts.
/// Batch 2 grows a new Region > County > Area chain and batch 3 a new
/// Group > Family > Leaf chain, each with one patient under it: fresh
/// groups no captured state knows.
Result<std::vector<FactId>> AppendClinicalBatch(MdObject& draft,
                                                const ClinicalMo& clinical,
                                                std::size_t batch) {
  const std::size_t before = draft.fact_count();
  const std::uint64_t base_key = 81000000 + batch * 100;
  MDDC_ASSIGN_OR_RETURN(mdql::Statement parsed,
                        mdql::Parse(ClinicalInsert(base_key, 3 + batch)));
  MDDC_RETURN_NOT_OK(mdql::ApplyInsert(draft, *parsed.insert).status());
  if (batch == 2 || batch == 3) {
    const bool residence = batch == 2;
    const std::size_t dim =
        residence ? clinical.residence_dim : clinical.diagnosis_dim;
    Dimension& dimension = draft.dimension_mutable(dim);
    const CategoryTypeIndex levels[3] = {
        residence ? clinical.region : clinical.group,
        residence ? clinical.county : clinical.family,
        residence ? clinical.area : clinical.low_level};
    ValueId parent;
    for (CategoryTypeIndex level : levels) {
      MDDC_ASSIGN_OR_RETURN(const ValueId value,
                            dimension.AddValueAuto(level));
      if (parent.valid()) MDDC_RETURN_NOT_OK(dimension.AddOrder(value, parent));
      parent = value;
    }
    const FactId fact = draft.registry()->Atom(base_key + 99);
    MDDC_RETURN_NOT_OK(draft.AddFact(fact));
    MDDC_RETURN_NOT_OK(draft.Relate(dim, fact, parent));
    MDDC_RETURN_NOT_OK(draft.CoverWithTop(std::vector<FactId>{fact}));
  }
  const std::vector<FactId>& facts = draft.facts();
  return std::vector<FactId>(
      facts.begin() + static_cast<std::ptrdiff_t>(before), facts.end());
}

std::vector<AggregateSpec> ClinicalSpecs(const ClinicalMo& clinical) {
  return {SpecFor(AggFunction::SetCount(),
                  GroupingAt(clinical.mo, clinical.residence_dim,
                             clinical.region)),
          SpecFor(AggFunction::SetCount(),
                  GroupingAt(clinical.mo, clinical.diagnosis_dim,
                             clinical.group))};
}

// ---- Retail: strict star schema, every numeric kind ----------------------

RetailMo BuildRetail() {
  RetailWorkloadParams params;
  params.seed = 5;
  params.num_purchases = 300;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// Appends one retail batch: purchases of the first two products only
/// (so most categories stay untouched), related to existing stores, days,
/// amounts and prices; batch 2 adds a new category with one product and
/// one purchase of it (a fresh group).
Result<std::vector<FactId>> AppendRetailBatch(MdObject& draft,
                                              const RetailMo& retail,
                                              std::size_t batch) {
  const std::size_t before = draft.fact_count();
  const MdObject& seed = retail.mo;
  std::vector<ValueId> products =
      seed.dimension(retail.product_dim).ValuesIn(retail.product);
  auto leaf_values = [&](std::size_t dim) {
    const Dimension& dimension = seed.dimension(dim);
    return dimension.ValuesIn(dimension.type().bottom());
  };
  const std::vector<ValueId> stores = leaf_values(retail.store_dim);
  const std::vector<ValueId> days = leaf_values(retail.date_dim);
  const std::vector<ValueId> amounts = leaf_values(retail.amount_dim);
  const std::vector<ValueId> prices = leaf_values(retail.price_dim);
  ValueId fresh_product;
  if (batch == 2) {
    Dimension& dimension = draft.dimension_mutable(retail.product_dim);
    MDDC_ASSIGN_OR_RETURN(const ValueId category,
                          dimension.AddValueAuto(retail.category));
    MDDC_RETURN_NOT_OK(dimension.AddOrder(
        category, dimension.ValuesIn(retail.department).front()));
    MDDC_ASSIGN_OR_RETURN(fresh_product,
                          dimension.AddValueAuto(retail.product));
    MDDC_RETURN_NOT_OK(dimension.AddOrder(fresh_product, category));
  }
  const std::size_t count = 4 + batch;
  for (std::size_t b = 0; b <= count; ++b) {
    const bool fresh = b == count;
    if (fresh && !fresh_product.valid()) break;
    const std::size_t k = batch * 31 + b * 7;
    const FactId purchase =
        draft.registry()->Atom(71000000 + batch * 100 + b);
    MDDC_RETURN_NOT_OK(draft.AddFact(purchase));
    MDDC_RETURN_NOT_OK(draft.Relate(retail.product_dim, purchase,
                                    fresh ? fresh_product : products[b % 2]));
    MDDC_RETURN_NOT_OK(
        draft.Relate(retail.store_dim, purchase, stores[k % stores.size()]));
    MDDC_RETURN_NOT_OK(
        draft.Relate(retail.date_dim, purchase, days[k % days.size()]));
    MDDC_RETURN_NOT_OK(draft.Relate(retail.amount_dim, purchase,
                                    amounts[k % amounts.size()]));
    MDDC_RETURN_NOT_OK(
        draft.Relate(retail.price_dim, purchase, prices[k % prices.size()]));
  }
  const std::vector<FactId>& facts = draft.facts();
  return std::vector<FactId>(
      facts.begin() + static_cast<std::ptrdiff_t>(before), facts.end());
}

std::vector<AggregateSpec> RetailSpecs(const RetailMo& retail) {
  const auto by_category =
      GroupingAt(retail.mo, retail.product_dim, retail.category);
  const std::size_t price = retail.price_dim;
  return {SpecFor(AggFunction::Sum(price), by_category),
          SpecFor(AggFunction::Count(price), by_category),
          SpecFor(AggFunction::Min(price), by_category),
          SpecFor(AggFunction::Max(price), by_category),
          SpecFor(AggFunction::Avg(price), by_category)};
}

// ---- Store level: AppendBatch's warm entries ----------------------------

/// Publishes `mo`, warms every spec, appends kBatches batches through
/// AppendBatch and compares each published warm entry with a from-scratch
/// formation over the published MO after every batch.
template <typename AppendFn>
void RunStoreDifferential(MdObject mo, const std::vector<AggregateSpec>& specs,
                          const AppendFn& append_batch, ExecStats* totals) {
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("mo", std::move(mo)).ok());
  for (const AggregateSpec& spec : specs) {
    ASSERT_TRUE(store.WarmAggregate("mo", spec.function, spec.grouping).ok())
        << spec.function.name();
  }
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    ASSERT_TRUE(store
                    .AppendBatch(
                        "mo",
                        [&](MdObject& draft) {
                          return append_batch(draft, batch).status();
                        },
                        /*published_epoch=*/nullptr, totals)
                    .ok())
        << "batch " << batch;
    const auto snapshot = store.Pin();
    const serve::PublishedMo* entry = snapshot->Find("mo");
    ASSERT_NE(entry, nullptr);
    ASSERT_NE(entry->preagg, nullptr);
    // The published registry is sealed: the formation interns into a fork
    // of it, where every group it forms resolves to the warm entry's id.
    const MdObject published = entry->mo().WithRegistry(
        FactRegistry::ForkOf(entry->mo().registry()));
    for (const AggregateSpec& spec : specs) {
      const MdObject* warm = entry->preagg->Peek(spec.function, spec.grouping);
      ASSERT_NE(warm, nullptr) << spec.function.name();
      ExpectMatchesFormation(*warm, published, spec,
                             StrCat("store batch ", batch));
    }
  }
  const serve::MoStore::Stats stats = store.CollectStats();
  EXPECT_EQ(stats.append_batches, kBatches);
  EXPECT_EQ(stats.append_fallbacks, 0u);
}

TEST(AggregateFoldTest, ClinicalWarmEntriesMatchFormationAcrossAppends) {
  const ClinicalMo clinical = BuildClinical();
  ExecStats totals;
  RunStoreDifferential(
      clinical.mo, ClinicalSpecs(clinical),
      [&](MdObject& draft, std::size_t batch) {
        return AppendClinicalBatch(draft, clinical, batch);
      },
      &totals);
  // Crisp SetCount entries fold on every batch.
  EXPECT_EQ(totals.preagg_folds, 2 * kBatches);
  EXPECT_EQ(totals.preagg_fold_invalidations, 0u);
}

TEST(AggregateFoldTest, RetailWarmEntriesMatchFormationAcrossAppends) {
  const RetailMo retail = BuildRetail();
  ExecStats totals;
  RunStoreDifferential(
      retail.mo, RetailSpecs(retail),
      [&](MdObject& draft, std::size_t batch) {
        return AppendRetailBatch(draft, retail, batch);
      },
      &totals);
  EXPECT_GT(totals.preagg_folds, 0u);
}

TEST(AggregateFoldTest, WarmAvgEntryFoldsInsteadOfRematerializing) {
  const RetailMo retail = BuildRetail();
  const AggregateSpec avg = RetailSpecs(retail).back();
  ASSERT_EQ(avg.function.kind(), AggregateFunctionKind::kAvg);
  ExecStats totals;
  RunStoreDifferential(
      retail.mo, {avg},
      [&](MdObject& draft, std::size_t batch) {
        return AppendRetailBatch(draft, retail, batch);
      },
      &totals);
  EXPECT_EQ(totals.preagg_folds, kBatches);
  EXPECT_EQ(totals.preagg_fold_invalidations, 0u);
}

// ---- Direct calls: a chain of captured states ---------------------------

/// Captures a formation of `spec` over `base`, then appends kBatches
/// batches to a copy, folding each from the previous fold's capture and
/// comparing with a from-scratch formation — at every thread count, the
/// fold itself running on the same context shape.
template <typename AppendFn>
void RunDirectDifferential(const MdObject& base, AggregateSpec spec,
                           const AppendFn& append_batch) {
  for (std::size_t threads : kThreadCounts) {
    ExecContext ctx(threads, /*min_facts=*/1);
    AggregateFoldState state;
    spec.capture = &state;
    ASSERT_TRUE(AggregateFormation(base, spec, &ctx).ok());
    ASSERT_TRUE(state.valid);
    MdObject mo = base;
    for (std::size_t batch = 0; batch < kBatches; ++batch) {
      auto delta = append_batch(mo, batch);
      ASSERT_TRUE(delta.ok()) << delta.status();
      AggregateFoldState next;
      spec.capture = &next;
      auto folded = FoldAggregateAppend(mo, spec, state, *delta, &ctx);
      ASSERT_TRUE(folded.ok())
          << spec.function.name() << " batch " << batch << " at " << threads
          << " threads: " << folded.status();
      ASSERT_TRUE(next.valid);
      ExpectMatchesFormation(*folded, mo, spec,
                             StrCat("direct batch ", batch, " threads ",
                                    threads));
      state = std::move(next);
    }
  }
}

TEST(AggregateFoldTest, DirectFoldsMatchFormationForEveryRetailKind) {
  const RetailMo retail = BuildRetail();
  for (const AggregateSpec& spec : RetailSpecs(retail)) {
    RunDirectDifferential(retail.mo, spec,
                          [&](MdObject& mo, std::size_t batch) {
                            return AppendRetailBatch(mo, retail, batch);
                          });
  }
}

TEST(AggregateFoldTest, DirectFoldsMatchFormationForClinicalSetCounts) {
  const ClinicalMo clinical = BuildClinical();
  for (AggregateSpec spec : ClinicalSpecs(clinical)) {
    for (bool expected : {false, true}) {
      spec.expected_counts = expected;
      RunDirectDifferential(clinical.mo, spec,
                            [&](MdObject& mo, std::size_t batch) {
                              return AppendClinicalBatch(mo, clinical, batch);
                            });
    }
  }
}

// ---- A representation change ---------------------------------------------

/// A measure dimension "Price" whose value `twelve` reads as a number
/// only through its Code representation ("12") and whose value `seven`
/// has the Value "7", and a one-dimensional MO with one fact on each:
/// SUM(Price) = 19.
struct CodedPriceMo {
  MdObject mo;
  ValueId twelve;
  ValueId seven;
  CategoryTypeIndex price = 0;
};

CodedPriceMo BuildCodedPrices() {
  DimensionTypeBuilder builder("Price");
  builder.AddCategory("Price", AggregationType::kSum);
  auto type = builder.Build();
  EXPECT_TRUE(type.ok()) << type.status();
  Dimension prices(*type);
  const CategoryTypeIndex price = (*type)->bottom();
  const ValueId twelve = prices.AddValueAuto(price).ValueOrDie();
  const ValueId seven = prices.AddValueAuto(price).ValueOrDie();
  EXPECT_TRUE(prices.RepresentationFor(price, "Code").Set(twelve, "12").ok());
  EXPECT_TRUE(prices.RepresentationFor(price, "Value").Set(seven, "7").ok());
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Purchase", {std::move(prices)}, registry);
  for (std::uint64_t key : {1, 2}) {
    const FactId fact = registry->Atom(key);
    EXPECT_TRUE(mo.AddFact(fact).ok());
    EXPECT_TRUE(mo.Relate(0, fact, key == 1 ? twelve : seven).ok());
  }
  return CodedPriceMo{std::move(mo), twelve, seven, price};
}

// An append that maps `twelve` to Value "3" changes what every published
// fact on it reads (12 -> 3), so a fold resuming from the captured SUM 19
// would serve 19 + 3 = 22 where the MO now sums 3 + 7 + 3 = 13. Handing
// out the representation is a structural change: the gate takes the full
// seal, and the warm read renders what a from-scratch session renders.
TEST(AggregateFoldTest, RepresentationChangeTakesTheFullSeal) {
  const CodedPriceMo coded = BuildCodedPrices();
  const AggregateSpec sum = SpecFor(
      AggFunction::Sum(0), {coded.mo.dimension(0).type().top()});
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("mo", coded.mo).ok());
  ASSERT_TRUE(store.WarmAggregate("mo", sum.function, sum.grouping).ok());
  ExecStats totals;
  ASSERT_TRUE(store
                  .AppendBatch(
                      "mo",
                      [&](MdObject& draft) {
                        MDDC_RETURN_NOT_OK(
                            draft.dimension_mutable(0)
                                .RepresentationFor(coded.price, "Value")
                                .Set(coded.twelve, "3"));
                        const FactId fact = draft.registry()->Atom(3);
                        MDDC_RETURN_NOT_OK(draft.AddFact(fact));
                        return draft.Relate(0, fact, coded.twelve);
                      },
                      /*published_epoch=*/nullptr, &totals)
                  .ok());
  const serve::MoStore::Stats stats = store.CollectStats();
  EXPECT_EQ(stats.append_batches, 0u);
  EXPECT_EQ(stats.append_fallbacks, 1u);
  EXPECT_EQ(totals.preagg_folds, 0u);

  const auto snapshot = store.Pin();
  const serve::PublishedMo* entry = snapshot->Find("mo");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->preagg, nullptr);
  const MdObject* warm = entry->preagg->Peek(sum.function, sum.grouping);
  ASSERT_NE(warm, nullptr);
  ExpectMatchesFormation(
      *warm,
      entry->mo().WithRegistry(FactRegistry::ForkOf(entry->mo().registry())),
      sum, "after the representation change");

  const std::string select = "SELECT SUM(Price) FROM mo";
  serve::MdqlServer server(&store);
  serve::ServerSession session = server.Connect();
  auto served = session.Execute(select);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(session.stats().exec.warm_reads, 1u);
  mdql::Session plain;
  mdql::CompileOptions off;
  off.enable_compiler = false;
  plain.set_compile_options(off);
  ASSERT_TRUE(plain.Register("mo", entry->mo()).ok());
  auto walked = plain.Execute(select);
  ASSERT_TRUE(walked.ok()) << walked.status();
  EXPECT_EQ(served->ToString(), walked->ToString());
  ASSERT_EQ(served->rows.size(), 1u);
  EXPECT_EQ(served->rows[0].back(), "13") << served->ToString();
}

// ---- Edges under values an earlier epoch published ----------------------

struct ProductMo {
  MdObject mo;
  ValueId category_c;
  ValueId p1;
  CategoryTypeIndex product = 0;
  CategoryTypeIndex category = 0;
};

/// Product < Category with category C, product P1 -> C and fact 1 -> P1.
ProductMo BuildProducts() {
  DimensionTypeBuilder builder("Product");
  builder.AddCategory("Product", AggregationType::kConstant)
      .AddCategory("Category", AggregationType::kConstant)
      .AddOrder("Product", "Category");
  auto type = builder.Build();
  EXPECT_TRUE(type.ok()) << type.status();
  ProductMo out{MdObject("Purchase", {Dimension(*type)},
                         std::make_shared<FactRegistry>()),
                ValueId(), ValueId(), *(*type)->Find("Product"),
                *(*type)->Find("Category")};
  Dimension& products = out.mo.dimension_mutable(0);
  out.category_c = products.AddValueAuto(out.category).ValueOrDie();
  EXPECT_TRUE(products.RepresentationFor(out.category, "Name")
                  .Set(out.category_c, "C")
                  .ok());
  out.p1 = products.AddValueAuto(out.product).ValueOrDie();
  EXPECT_TRUE(products.AddOrder(out.p1, out.category_c).ok());
  const FactId fact = out.mo.registry()->Atom(1);
  EXPECT_TRUE(out.mo.AddFact(fact).ok());
  EXPECT_TRUE(out.mo.Relate(0, fact, out.p1).ok());
  return out;
}

// Epoch 1 appends product P2 with no edge and fact 2 -> P2; epoch 2 hangs
// P2 under C and appends fact 3 -> P1. P2 was published by epoch 1, so
// its edge changes a published value's closure: the second batch must
// take the full seal. Folding it as an append would patch the rollup
// snapshot with P2's stale row (no category), and both the warm entries
// and the fused and tree-walk reads would count C as {1, 3}, not
// {1, 2, 3}.
TEST(AggregateFoldTest, EdgeUnderAPublishedValueTakesTheFullSeal) {
  const ProductMo products = BuildProducts();
  const std::vector<CategoryTypeIndex> by_category =
      GroupingAt(products.mo, 0, products.category);
  const AggregateSpec count = SpecFor(AggFunction::Count(0), by_category);
  const AggregateSpec set_count = SpecFor(AggFunction::SetCount(), by_category);
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("mo", products.mo).ok());
  for (const AggregateSpec& spec : {count, set_count}) {
    ASSERT_TRUE(store.WarmAggregate("mo", spec.function, spec.grouping).ok());
  }
  ValueId p2;
  ASSERT_TRUE(store
                  .AppendBatch("mo",
                               [&](MdObject& draft) {
                                 MDDC_ASSIGN_OR_RETURN(
                                     p2, draft.dimension_mutable(0)
                                             .AddValueAuto(products.product));
                                 const FactId fact = draft.registry()->Atom(2);
                                 MDDC_RETURN_NOT_OK(draft.AddFact(fact));
                                 return draft.Relate(0, fact, p2);
                               })
                  .ok());
  EXPECT_EQ(store.CollectStats().append_batches, 1u);
  ASSERT_TRUE(store
                  .AppendBatch("mo",
                               [&](MdObject& draft) {
                                 MDDC_RETURN_NOT_OK(
                                     draft.dimension_mutable(0).AddOrder(
                                         p2, products.category_c));
                                 const FactId fact = draft.registry()->Atom(3);
                                 MDDC_RETURN_NOT_OK(draft.AddFact(fact));
                                 return draft.Relate(0, fact, products.p1);
                               })
                  .ok());
  const serve::MoStore::Stats stats = store.CollectStats();
  EXPECT_EQ(stats.append_batches, 1u);
  EXPECT_EQ(stats.append_fallbacks, 1u);

  const auto snapshot = store.Pin();
  const serve::PublishedMo* entry = snapshot->Find("mo");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->preagg, nullptr);
  const MdObject scratch =
      entry->mo().WithRegistry(FactRegistry::ForkOf(entry->mo().registry()));
  for (const AggregateSpec& spec : {count, set_count}) {
    const MdObject* warm = entry->preagg->Peek(spec.function, spec.grouping);
    ASSERT_NE(warm, nullptr) << spec.function.name();
    ExpectMatchesFormation(*warm, scratch, spec, "after the edge");
    ASSERT_EQ(warm->facts().size(), 1u) << spec.function.name();
    EXPECT_EQ(
        warm->registry()->Get(warm->facts().front()).ValueOrDie().members.size(),
        3u)
        << spec.function.name();
  }

  const std::string select = "SELECT COUNT FROM mo BY Product.Category";
  serve::MdqlServer server(&store);
  serve::ServerSession session = server.Connect();
  auto served = session.Execute(select);
  ASSERT_TRUE(served.ok()) << served.status();
  mdql::Session plain;
  mdql::CompileOptions off;
  off.enable_compiler = false;
  plain.set_compile_options(off);
  ASSERT_TRUE(plain.Register("mo", entry->mo()).ok());
  auto walked = plain.Execute(select);
  ASSERT_TRUE(walked.ok()) << walked.status();
  EXPECT_EQ(served->ToString(), walked->ToString());
  ASSERT_EQ(served->rows.size(), 1u) << served->ToString();
  EXPECT_EQ(served->rows[0].front(), "C") << served->ToString();
  EXPECT_EQ(served->rows[0].back(), "3") << served->ToString();
}

}  // namespace
}  // namespace mddc
