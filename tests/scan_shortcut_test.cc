#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "algebra/predicate.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "io/serialize.h"
#include "mdql/mdql.h"
#include "reference/aggregate_reference.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// The group-by scan's shortcuts (docs/groupby_kernel.md), each against the
// work it skips:
//   - no route pass when every wanted dense column counts no misses
//     (FactDimRelation::dense_misses) and the visited facts are the
//     relations' rows in place;
//   - rows aligned by position, not by a sweep, when the visited facts are
//     a tail of mo.facts();
//   - no member lists unless set facts, StreamSpec::collect_members or two
//     groups that may share a member set need them; the stream collapses
//     such groups itself.
// Every read runs compiled at 1, 2 and 8 threads, byte-equal to the tree
// walk, and every stream and fold equals the reference formation. The
// gather/walk split and the NumericValueOf calls of each statement are
// pinned to the counts the scan produced before the shortcuts.

namespace mddc {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// What one statement's scan did at one thread.
struct ScanCounts {
  std::size_t gathered;
  std::size_t walked;
  std::size_t lookups;
  friend bool operator==(const ScanCounts&, const ScanCounts&) = default;
};

/// The counts of the scan without the shortcuts, per statement.
const std::map<std::string, ScanCounts>& PinnedCounts() {
  static const auto* counts = new std::map<std::string, ScanCounts>{
      {"SELECT AVG(Amount) FROM sales BY Store.Store WHERE Price >= 150",
       {2105, 0, 0}},
      {"SELECT AVG(Price) FROM sales BY Date.Month",
       {3000, 0, 0}},
      {"SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
       {0, 300, 0}},
      {"SELECT COUNT FROM clinical BY Diagnosis.\"Low-level Diagnosis\"",
       {0, 300, 0}},
      {"SELECT COUNT FROM clinical BY Residence.Region WHERE Residence.Region = 'R0'",
       {124, 40, 0}},
      {"SELECT COUNT FROM clinical BY Residence.Region",
       {246, 54, 0}},
      {"SELECT COUNT FROM sales BY Product.Category",
       {3000, 0, 0}},
      {"SELECT COUNT(Amount) FROM sales BY Store.Region",
       {3001, 0, 0}},
      {"SELECT COUNT, AVG(Amount) FROM sales BY Product.Department",
       {3001, 0, 1}},
      {"SELECT MIN(Amount) FROM sales BY Store.Region",
       {3001, 0, 1}},
      {"SELECT COUNT(Diagnosis) FROM clinical BY Residence.County WHERE Diagnosis.\"Diagnosis Group\" = 'G0'",
       {0, 177, 0}},
      {"SELECT COUNT(Diagnosis) FROM clinical BY Residence.County",
       {0, 300, 0}},
      {"SELECT COUNT, COUNT(Diagnosis) FROM clinical BY Residence.Area",
       {0, 300, 0}},
      {"SELECT COUNT, COUNT(Residence) FROM clinical BY Diagnosis.\"Diagnosis Family\", Residence.Region",
       {0, 300, 0}},
      {"SELECT COUNT, SUM(Amount) FROM sales BY Store.Store",
       {3000, 0, 0}},
      {"SELECT MAX(Amount), MIN(Amount) FROM sales BY Store.Region, Date.Year",
       {3000, 0, 0}},
      {"SELECT SUM(Amount) FROM sales BY Product.Product WHERE Store.Store = 'Store-2'",
       {249, 0, 0}},
      {"SELECT SUM(Amount) FROM sales BY Store.City",
       {3000, 0, 0}},
      {"fold plain tail SUM_3",
       {60, 0, 0}},
      {"fold plain tail SetCount",
       {60, 0, 0}},
      {"fold tail with misses SUM_3",
       {51, 9, 7}},
      {"fold tail with misses SetCount",
       {51, 9, 0}},
  };
  return *counts;
}

void ExpectPinnedCounts(const std::string& what, const ExecStats& stats) {
  const ScanCounts got{stats.facts_gathered, stats.facts_walked,
                       stats.numeric_lookups};
  const auto it = PinnedCounts().find(what);
  ASSERT_NE(it, PinnedCounts().end())
      << "no pinned counts for: {\"" << what << "\", {" << got.gathered
      << ", " << got.walked << ", " << got.lookups << "}},";
  EXPECT_EQ(got, it->second)
      << what << ": gathered " << got.gathered << ", walked " << got.walked
      << ", lookups " << got.lookups;
}

std::string Rendered(const Result<mdql::QueryResult>& result) {
  return result.ok() ? result->ToString()
                     : "error: " + result.status().ToString();
}

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

/// Every statement compiled (the fused scan) at 1/2/8 threads, byte-equal
/// to the compiler-off session (an error only where `errors`); the
/// one-thread run's scan counts must equal the pinned ones.
void ExpectReadsMatchTreeWalk(const std::string& name, const MdObject& mo,
                              const std::vector<std::string>& statements,
                              bool errors = false) {
  mdql::Session compiled;
  ASSERT_TRUE(compiled.Register(name, mo).ok());
  mdql::Session tree;
  mdql::CompileOptions off;
  off.enable_compiler = false;
  tree.set_compile_options(off);
  ASSERT_TRUE(tree.Register(name, mo).ok());
  for (const std::string& statement : statements) {
    const std::string expected = Rendered(tree.Execute(statement));
    EXPECT_EQ(expected.rfind("error", 0) == 0, errors)
        << statement << ": " << expected;
    for (std::size_t threads : kThreadCounts) {
      ExecContext ctx(threads, /*min_facts=*/1);
      EXPECT_EQ(Rendered(compiled.Execute(statement, &ctx)), expected)
          << statement << " at " << threads << " threads";
      EXPECT_EQ(ctx.stats.fused_pipelines, 1u) << statement;
      if (threads == 1) ExpectPinnedCounts(statement, ctx.stats);
    }
  }
}

/// The reference result's value text per group, keyed by member set.
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

/// AggregateStream of `functions` over `mo` (under `keep`, if given) at
/// 1/2/8 threads must equal one reference formation per function over
/// `selected` (mo itself, or the facts `keep` selects): with
/// collect_members every group carries its full member list and the
/// groups are the reference's result facts one to one; without, the same
/// keys and values come back with no lists. `stats` (nullable) gets the
/// one-thread listless stream's stats.
void ExpectStreamMatchesReference(
    const MdObject& mo, const MdObject& selected,
    const std::vector<AggFunction>& functions,
    const std::vector<CategoryTypeIndex>& grouping,
    const std::vector<bool>* keep, const std::string& context,
    ExecStats* stats = nullptr) {
  std::vector<std::map<std::vector<FactId>, std::string>> expected;
  for (const AggFunction& function : functions) {
    auto result =
        reference::AggregateFormation(selected, SpecFor(function, grouping));
    ASSERT_TRUE(result.ok()) << context << ": " << result.status();
    expected.push_back(ReferenceValues(*result));
  }
  for (std::size_t threads : kThreadCounts) {
    StreamSpec spec;
    spec.functions = functions;
    spec.grouping = grouping;
    spec.keep = keep;
    spec.collect_members = true;
    ExecContext listing_ctx(threads, /*min_facts=*/1);
    auto listed = AggregateStream(mo, spec, &listing_ctx);
    ASSERT_TRUE(listed.ok()) << context << ": " << listed.status();
    spec.collect_members = false;
    ExecContext listless_ctx(threads, /*min_facts=*/1);
    auto listless = AggregateStream(mo, spec, &listless_ctx);
    ASSERT_TRUE(listless.ok()) << context << ": " << listless.status();
    if (threads == 1 && stats != nullptr) *stats = listless_ctx.stats;

    ASSERT_EQ(listed->size(), expected.front().size())
        << context << " at " << threads << " threads";
    for (std::size_t k = 0; k < functions.size(); ++k) {
      std::map<std::vector<FactId>, std::string> got;
      for (const StreamGroup& group : *listed) {
        EXPECT_FALSE(group.member_facts.empty()) << context;
        got.emplace(group.member_facts, FormatDouble(group.values[k]));
      }
      EXPECT_EQ(got, expected[k]) << context << " (" << functions[k].name()
                                  << ") at " << threads << " threads";
    }
    ASSERT_EQ(listless->size(), listed->size()) << context;
    for (std::size_t t = 0; t < listed->size(); ++t) {
      EXPECT_EQ((*listless)[t].key, (*listed)[t].key) << context;
      EXPECT_EQ((*listless)[t].values, (*listed)[t].values) << context;
      EXPECT_TRUE((*listless)[t].member_facts.empty()) << context;
    }
  }
}

RetailMo BuildRetail(std::size_t purchases) {
  RetailWorkloadParams params;
  params.seed = 3;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

ClinicalMo BuildClinical() {
  ClinicalWorkloadParams params;
  params.seed = 31;
  params.num_patients = 300;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// kNoDense slots of `relation`'s column under `index`, counted slot by
/// slot.
std::size_t RecountMisses(const FactDimRelation& relation,
                          const RollupIndex& index) {
  const ChunkedVector<std::uint32_t>* column =
      relation.DenseColumn(index.numbering());
  EXPECT_NE(column, nullptr);
  if (column == nullptr) return 0;
  return static_cast<std::size_t>(
      std::count(column->begin(), column->end(), FactDimRelation::kNoDense));
}

// (a) Retail: every fact has one plain pair per dimension, so every
// column is a full hit, every fact is gathered, no route pass runs and no
// member list is built.
TEST(ScanShortcutTest, RetailGathersEveryFactWithoutMemberLists) {
  const RetailMo retail = BuildRetail(3000);
  const MdObject& mo = retail.mo;
  ExpectReadsMatchTreeWalk(
      "sales", mo,
      {"SELECT COUNT FROM sales BY Product.Category",
       "SELECT SUM(Amount) FROM sales BY Store.City",
       "SELECT MAX(Amount), MIN(Amount) FROM sales BY Store.Region, "
       "Date.Year",
       "SELECT AVG(Price) FROM sales BY Date.Month",
       "SELECT COUNT, SUM(Amount) FROM sales BY Store.Store"});

  const std::vector<AggFunction> functions = {
      AggFunction::SetCount(), AggFunction::Count(retail.amount_dim),
      AggFunction::Sum(retail.amount_dim), AggFunction::Max(retail.price_dim)};
  const std::vector<CategoryTypeIndex> grouping =
      Grouping(mo, {{retail.product_dim, retail.category},
                    {retail.store_dim, retail.city}});
  ExecStats stats;
  ExpectStreamMatchesReference(mo, mo, functions, grouping, nullptr,
                               "retail by category and city", &stats);
  EXPECT_EQ(stats.facts_gathered, mo.fact_count());
  EXPECT_EQ(stats.facts_walked, 0u);
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    EXPECT_EQ(RecountMisses(mo.relation(i), *RollupIndex::For(mo.dimension(i))),
              0u)
        << "dimension " << i;
  }

  // The listing stream records one 8-byte incidence per fact in its
  // arena; the listless one records none.
  StreamSpec spec;
  spec.functions = functions;
  spec.grouping = grouping;
  spec.collect_members = true;
  ExecContext listing;
  ASSERT_TRUE(AggregateStream(mo, spec, &listing).ok());
  spec.collect_members = false;
  ExecContext listless;
  ASSERT_TRUE(AggregateStream(mo, spec, &listless).ok());
  EXPECT_GE(listing.stats.arena_bytes,
            listless.stats.arena_bytes + sizeof(std::uint64_t) * mo.fact_count());
}

// (a) again with one more plain purchase whose Amount value has no
// numeric reading: every column still hits, so no route pass runs, and
// the failing value is resolved once, before the scan, for the fact that
// reads it.
TEST(ScanShortcutTest, FullHitsResolveAFailingValueOnce) {
  RetailMo retail = BuildRetail(3000);
  MdObject& mo = retail.mo;
  const FactId odd = mo.registry()->Atom(6000000);
  ASSERT_TRUE(mo.AddFact(odd).ok());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    ValueId value = mo.relation(i).entries()[0].value;
    if (i == retail.amount_dim) {
      const CategoryTypeIndex category =
          mo.dimension(i).CategoryOf(value).ValueOrDie();
      value = mo.dimension_mutable(i).AddValueAuto(category).ValueOrDie();
    }
    ASSERT_TRUE(mo.Relate(i, odd, value).ok());
  }
  ExpectReadsMatchTreeWalk(
      "sales", mo,
      {"SELECT MIN(Amount) FROM sales BY Store.Region",
       "SELECT COUNT, AVG(Amount) FROM sales BY Product.Department"},
      /*errors=*/true);
  ExpectReadsMatchTreeWalk(
      "sales", mo, {"SELECT COUNT(Amount) FROM sales BY Store.Region"});
}

// (b) Clinical by non-strict Diagnosis levels: patients have several
// diagnoses, so walked facts join two groups, two groups can share one
// member set, and the stream must collapse them as the formation's set
// facts do.
TEST(ScanShortcutTest, SharedMemberSetsCollapseInTheStream) {
  const ClinicalMo clinical = BuildClinical();
  const MdObject& mo = clinical.mo;
  ExpectReadsMatchTreeWalk(
      "clinical", mo,
      {"SELECT COUNT FROM clinical BY Diagnosis.\"Low-level Diagnosis\"",
       "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
       "SELECT COUNT, COUNT(Residence) FROM clinical "
       "BY Diagnosis.\"Diagnosis Family\", Residence.Region"});

  const std::vector<CategoryTypeIndex> by_low =
      Grouping(mo, {{clinical.diagnosis_dim, clinical.low_level}});
  ExecStats stats;
  ExpectStreamMatchesReference(
      mo, mo,
      {AggFunction::SetCount(), AggFunction::Count(clinical.residence_dim)},
      by_low, nullptr, "clinical by low-level diagnosis", &stats);
  EXPECT_GT(stats.facts_walked, 0u);

  // The collapse fired: some result fact stands for two low-level
  // diagnoses, and the stream has one group per result fact.
  auto formed = reference::AggregateFormation(
      mo, SpecFor(AggFunction::SetCount(), by_low));
  ASSERT_TRUE(formed.ok()) << formed.status();
  std::size_t shared = 0;
  for (FactId group : formed->facts()) {
    shared += formed->relation(clinical.diagnosis_dim).ForFact(group).size() >=
                      2
                  ? 1
                  : 0;
  }
  EXPECT_GT(shared, 0u);
}

// (c) A keep mask: the scan skips unkept facts on either route, and a
// kept fact is gathered or walked exactly as without the mask.
TEST(ScanShortcutTest, KeepMasksMatchTheSelectedMo) {
  const RetailMo retail = BuildRetail(3000);
  ExpectReadsMatchTreeWalk(
      "sales", retail.mo,
      {"SELECT SUM(Amount) FROM sales BY Product.Product "
       "WHERE Store.Store = 'Store-2'",
       "SELECT AVG(Amount) FROM sales BY Store.Store WHERE Price >= 150"});
  const Predicate expensive = Predicate::NumericCompare(
      retail.price_dim, Predicate::Comparison::kGreaterEq, 150);
  auto keep = expensive.EvaluateMask(retail.mo);
  ASSERT_TRUE(keep.ok()) << keep.status();
  auto selected = Select(retail.mo, expensive);
  ASSERT_TRUE(selected.ok()) << selected.status();
  ExecStats stats;
  ExpectStreamMatchesReference(
      retail.mo, *selected,
      {AggFunction::SetCount(), AggFunction::Avg(retail.amount_dim)},
      Grouping(retail.mo, {{retail.store_dim, retail.store}}), &*keep,
      "retail where Price >= 150", &stats);
  EXPECT_EQ(stats.facts_gathered, selected->fact_count());

  const ClinicalMo clinical = BuildClinical();
  ExpectReadsMatchTreeWalk(
      "clinical", clinical.mo,
      {"SELECT COUNT FROM clinical BY Residence.Region "
       "WHERE Residence.Region = 'R0'",
       "SELECT COUNT(Diagnosis) FROM clinical BY Residence.County "
       "WHERE Diagnosis.\"Diagnosis Group\" = 'G0'"});
  const ValueId first_region =
      *clinical.mo.dimension(clinical.residence_dim)
           .ValuesIn(clinical.region)
           .begin();
  const Predicate in_region =
      Predicate::CharacterizedBy(clinical.residence_dim, first_region);
  auto clinical_keep = in_region.EvaluateMask(clinical.mo);
  ASSERT_TRUE(clinical_keep.ok()) << clinical_keep.status();
  auto in_first = Select(clinical.mo, in_region);
  ASSERT_TRUE(in_first.ok()) << in_first.status();
  ExpectStreamMatchesReference(
      clinical.mo, *in_first,
      {AggFunction::SetCount(), AggFunction::Count(clinical.diagnosis_dim)},
      Grouping(clinical.mo, {{clinical.residence_dim, clinical.area}}),
      &*clinical_keep, "clinical in the first region");
}

/// Appends `count` facts after every fact of `mo`, each a copy of an
/// existing fact's pairs; every `uncertain_every`-th one (0: none) takes
/// its Store pair with probability 0.8, a column miss. Returns them.
std::vector<FactId> AppendCopies(RetailMo& retail, std::size_t count,
                                 std::size_t uncertain_every,
                                 std::uint64_t base_key) {
  MdObject& mo = retail.mo;
  std::vector<FactId> appended;
  const std::vector<FactId> old = mo.facts();
  for (std::size_t k = 0; k < count; ++k) {
    const FactId fact = mo.registry()->Atom(base_key + k);
    const FactId source = old[(k * 37) % old.size()];
    EXPECT_TRUE(mo.AddFact(fact).ok());
    for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
      const bool uncertain = uncertain_every != 0 &&
                             k % uncertain_every == 0 &&
                             i == retail.store_dim;
      for (const FactDimRelation::Entry* entry :
           mo.relation(i).ForFact(source)) {
        EXPECT_TRUE(mo.Relate(i, fact, entry->value, entry->life,
                              uncertain ? 0.8 : entry->prob)
                        .ok());
      }
    }
    appended.push_back(fact);
  }
  EXPECT_TRUE(std::is_sorted(mo.facts().end() - count, mo.facts().end()));
  EXPECT_EQ(std::vector<FactId>(mo.facts().end() - count, mo.facts().end()),
            appended);
  return appended;
}

// (d) A fold over an appended tail whose rows cross a column chunk
// boundary (1,024 rows a chunk): the delta is aligned with the relations'
// last rows by position, across the boundary, with and without column
// misses in the tail.
TEST(ScanShortcutTest, FoldsOverATailAcrossAChunkBoundary) {
  for (std::size_t uncertain_every : {std::size_t{0}, std::size_t{7}}) {
    RetailMo retail = BuildRetail(1000);
    const std::string context =
        uncertain_every == 0 ? "plain tail" : "tail with misses";
    const std::vector<AggregateSpec> specs = {
        SpecFor(AggFunction::Sum(retail.amount_dim),
                Grouping(retail.mo, {{retail.store_dim, retail.city}})),
        SpecFor(AggFunction::SetCount(),
                Grouping(retail.mo, {{retail.product_dim, retail.category},
                                     {retail.store_dim, retail.region}}))};
    std::vector<AggregateFoldState> states(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      AggregateSpec capture = specs[s];
      capture.capture = &states[s];
      ASSERT_TRUE(AggregateFormation(retail.mo, capture).ok()) << context;
      ASSERT_TRUE(states[s].valid) << context;
    }
    const std::vector<FactId> delta =
        AppendCopies(retail, 60, uncertain_every, 7000000);
    ASSERT_LT(retail.mo.fact_count() - delta.size(), 1024u);
    ASSERT_GT(retail.mo.fact_count(), 1024u);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const std::string expected =
          Outcome(reference::AggregateFormation(retail.mo, specs[s]));
      for (std::size_t threads : kThreadCounts) {
        ExecContext ctx(threads, /*min_facts=*/1);
        EXPECT_EQ(Outcome(FoldAggregateAppend(retail.mo, specs[s], states[s],
                                              delta, &ctx)),
                  expected)
            << context << " (" << specs[s].function.name() << ") at "
            << threads << " threads";
        if (threads == 1) {
          ExpectPinnedCounts(StrCat("fold ", context, " ",
                                    specs[s].function.name()),
                             ctx.stats);
        }
        ExecContext scratch_ctx(threads, /*min_facts=*/1);
        EXPECT_EQ(Outcome(AggregateFormation(retail.mo, specs[s],
                                             &scratch_ctx)),
                  expected)
            << context << " (" << specs[s].function.name() << ") at "
            << threads << " threads";
      }
    }
    const std::size_t store_misses = RecountMisses(
        retail.mo.relation(retail.store_dim),
        *RollupIndex::For(retail.mo.dimension(retail.store_dim)));
    EXPECT_EQ(store_misses, uncertain_every == 0 ? 0u : (60 + 6) / 7)
        << context;
  }
}

// (e) Clinical: PROB, temporal and multi-diagnosis pairs are column
// misses, so the route pass runs and sorts gathered from walked facts.
TEST(ScanShortcutTest, ColumnsWithMissesStillRouteEveryFact) {
  const ClinicalMo clinical = BuildClinical();
  const MdObject& mo = clinical.mo;
  for (std::size_t i : {clinical.diagnosis_dim, clinical.residence_dim}) {
    EXPECT_GT(RecountMisses(mo.relation(i), *RollupIndex::For(mo.dimension(i))),
              0u)
        << "dimension " << i;
  }
  ExpectReadsMatchTreeWalk(
      "clinical", mo,
      {"SELECT COUNT FROM clinical BY Residence.Region",
       "SELECT COUNT(Diagnosis) FROM clinical BY Residence.County",
       "SELECT COUNT, COUNT(Diagnosis) FROM clinical BY Residence.Area"});
  ExecStats stats;
  ExpectStreamMatchesReference(
      mo, mo,
      {AggFunction::SetCount(), AggFunction::Count(clinical.residence_dim)},
      Grouping(mo, {{clinical.residence_dim, clinical.county}}), nullptr,
      "clinical by county", &stats);
  EXPECT_GT(stats.facts_gathered, 0u);
  EXPECT_GT(stats.facts_walked, 0u);
  EXPECT_EQ(stats.facts_gathered + stats.facts_walked, mo.fact_count());
}

// The column's miss count is maintained by every write of the column
// (first build, seal, tail extension, copy) and must equal a recount on
// every published epoch: after Publish, after each append batch (the
// published column extended by the batch's rows) and after a DELETE (a
// full rebuild).
TEST(ScanShortcutTest, MissCountsMatchARecountOnEveryEpoch) {
  ClinicalMo clinical = BuildClinical();
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());
  serve::MdqlServer server(&store);
  serve::ServerSession session = server.Connect(/*threads_per_query=*/2);
  auto expect_recount = [&](const std::string& context) {
    const auto snapshot = store.Pin();
    const serve::PublishedMo* entry = snapshot->Find("clinical");
    ASSERT_NE(entry, nullptr) << context;
    for (std::size_t i = 0; i < entry->mo().dimension_count(); ++i) {
      const FactDimRelation& relation = entry->mo().relation(i);
      EXPECT_EQ(relation.dense_misses(),
                RecountMisses(relation, *entry->rollups[i]))
          << context << ": dimension " << i;
      // A copy carries the column and its count.
      const FactDimRelation copy = relation;
      EXPECT_EQ(copy.dense_misses(), RecountMisses(copy, *entry->rollups[i]))
          << context << ": copied dimension " << i;
    }
  };
  expect_recount("published");
  for (std::size_t batch = 0; batch < 4; ++batch) {
    std::string insert = "INSERT INTO clinical";
    for (std::size_t b = 0; b < 5; ++b) {
      const std::uint64_t key = 91000000 + batch * 10 + b;
      insert += StrCat(b == 0 ? " " : ", ", "FACT ", key,
                       " (Diagnosis.\"Low-level Diagnosis\" = 'L", key % 5,
                       "'", b % 2 == 1 ? " PROB 0.8" : "",
                       ", Residence.Area = 'A", key % 4, "')");
    }
    auto inserted = session.Execute(insert);
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    expect_recount(StrCat("append ", batch));
  }
  EXPECT_EQ(store.CollectStats().append_batches, 4u);
  auto deleted = session.Execute("DELETE FROM clinical FACT 91000011");
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  expect_recount("delete");
  auto appended = session.Execute(
      "INSERT INTO clinical FACT 91000100 "
      "(Diagnosis.\"Low-level Diagnosis\" = 'L1', Residence.Area = 'A2')");
  ASSERT_TRUE(appended.ok()) << appended.status();
  expect_recount("append after the delete");
}

}  // namespace
}  // namespace mddc
