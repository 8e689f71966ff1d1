#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "mdql/mdql.h"
#include "reference/aggregate_reference.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/case_study.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// The rollup snapshot's numeric column (docs/rollup_index.md): each
// value's Dimension::NumericValueOf reading, decided once per snapshot.
// The column must agree with NumericValueOf bit for bit wherever it
// answers — on every value of the benchmark MOs, at NOW and at ASOF
// chronons, and on the edge cases of strtod and of timed mappings — and
// the reads that consume it (the group-by scan, the WHERE mask) must
// render exactly what the tree walk and the reference formation render.

namespace mddc {
namespace {

using testing_fixtures::Day;
using testing_fixtures::During;
using NumericState = RollupIndex::NumericState;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// The chronons every comparison runs at: NOW and two ASOF days, one on
/// each side of the 1980 reclassification the timed fixtures use.
std::vector<Chronon> Chronons() {
  return {kNowChronon, Day("01/06/1975"), Day("01/06/1985")};
}

/// Asserts that `dimension`'s numeric column agrees with NumericValueOf
/// on every dense id at every chronon of Chronons(): a kNumber value
/// reads the same bits, a kFails value fails, and a kTimed value really
/// is one NumericValueIsTimeless rejects. Returns the column.
const RollupIndex::NumericColumn& ExpectColumnMatches(
    const Dimension& dimension, const RollupIndex& index,
    const std::string& context) {
  const RollupIndex::NumericColumn& column = index.Numeric(dimension);
  EXPECT_EQ(column.state.size(), index.value_count()) << context;
  EXPECT_EQ(column.value.size(), index.value_count()) << context;
  bool numbers_only = true;
  for (std::uint32_t d = 0; d < index.value_count(); ++d) {
    const ValueId value = index.ValueOf(d);
    const NumericState state = column.state[d];
    numbers_only &= d == index.top_dense() || state == NumericState::kNumber;
    if (state == NumericState::kTimed) {
      EXPECT_FALSE(dimension.NumericValueIsTimeless(value))
          << context << " value " << value.raw();
      continue;
    }
    for (Chronon at : Chronons()) {
      const Result<double> expected = dimension.NumericValueOf(value, at);
      if (state == NumericState::kFails) {
        EXPECT_FALSE(expected.ok())
            << context << " value " << value.raw() << " at " << at;
      } else {
        EXPECT_TRUE(expected.ok())
            << context << " value " << value.raw() << " at " << at;
        if (!expected.ok()) continue;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*expected),
                  std::bit_cast<std::uint64_t>(column.value[d]))
            << context << " value " << value.raw() << " at " << at;
      }
    }
  }
  EXPECT_EQ(column.numbers_only, numbers_only) << context;
  return column;
}

/// Every dimension of `mo`, and of its valid timeslices at the two ASOF
/// chronons when it has valid time.
void ExpectEveryColumnMatches(const MdObject& mo, const std::string& name) {
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const Dimension& dimension = mo.dimension(i);
    ExpectColumnMatches(dimension, *RollupIndex::For(dimension),
                        StrCat(name, " ", dimension.name()));
  }
  for (Chronon at : Chronons()) {
    if (at == kNowChronon) continue;
    auto sliced = ValidTimeslice(mo, at);
    if (!sliced.ok()) continue;  // no valid time to slice
    for (std::size_t i = 0; i < sliced->dimension_count(); ++i) {
      const Dimension& dimension = sliced->dimension(i);
      ExpectColumnMatches(dimension, *RollupIndex::For(dimension),
                          StrCat(name, " ", dimension.name(), " sliced at ",
                                 at));
    }
  }
}

RetailMo BuildRetail(std::size_t purchases) {
  RetailWorkloadParams params;
  params.seed = 11;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

ClinicalMo BuildClinical(std::uint32_t seed, std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = patients;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

TEST(NumericColumnTest, MatchesNumericValueOfOnEveryWorkloadValue) {
  const RetailMo retail = BuildRetail(2000);
  ExpectEveryColumnMatches(retail.mo, "retail");
  // Prices and amounts are plain numbers: the column decides all of them.
  for (std::size_t dim : {retail.amount_dim, retail.price_dim}) {
    const Dimension& dimension = retail.mo.dimension(dim);
    EXPECT_TRUE(RollupIndex::For(dimension)->Numeric(dimension).numbers_only)
        << dimension.name();
  }
  ExpectEveryColumnMatches(BuildClinical(3, 500).mo, "clinical");
  // The stress mix's MO: the clinical generator at the harness's seed.
  ExpectEveryColumnMatches(BuildClinical(17, 400).mo, "stress mix");

  // The case study's Diagnosis Code and Text mappings are time-varying:
  // those values are kTimed, never decided by the column.
  auto case_study = BuildCaseStudy();
  ASSERT_TRUE(case_study.ok()) << case_study.status();
  ExpectEveryColumnMatches(case_study->mo, "case study");
  const Dimension& diagnosis = testing_fixtures::BuildDiagnosisDimension();
  const auto index = RollupIndex::For(diagnosis);
  const RollupIndex::NumericColumn& column =
      ExpectColumnMatches(diagnosis, *index, "fixture Diagnosis");
  EXPECT_EQ(column.state[index->DenseOf(ValueId(9))], NumericState::kTimed);
  EXPECT_EQ(column.state[index->DenseOf(ValueId(4))], NumericState::kFails);
}

// ---- Edge cases ------------------------------------------------------------

/// One measure dimension holding every edge case, by name.
struct EdgeDimension {
  Dimension dimension;
  CategoryTypeIndex reading = 0;
  std::vector<std::pair<std::string, ValueId>> values;

  ValueId Of(const std::string& name) const {
    for (const auto& [n, v] : values) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "no edge value " << name;
    return ValueId();
  }
};

EdgeDimension BuildEdgeDimension() {
  DimensionTypeBuilder builder("Reading");
  builder.AddCategory("Reading", AggregationType::kSum);
  EdgeDimension edge{Dimension(std::move(builder.Build()).ValueOrDie()), 0,
                     {}};
  Dimension& dimension = edge.dimension;
  edge.reading = dimension.type().bottom();
  auto add = [&](const std::string& name) {
    const ValueId value = dimension.AddValueAuto(edge.reading).ValueOrDie();
    edge.values.emplace_back(name, value);
    return value;
  };
  Representation& value_rep =
      dimension.RepresentationFor(edge.reading, "Value");
  Representation& code_rep = dimension.RepresentationFor(edge.reading, "Code");
  EXPECT_TRUE(code_rep.Set(add("code only"), "12").ok());
  const ValueId both = add("value preferred");
  EXPECT_TRUE(value_rep.Set(both, "5").ok());
  EXPECT_TRUE(code_rep.Set(both, "9").ok());
  const ValueId fallback = add("value not numeric");
  EXPECT_TRUE(value_rep.Set(fallback, "abc").ok());
  EXPECT_TRUE(code_rep.Set(fallback, "8").ok());
  for (const char* text : {" 12", "1e3", "0x10", "inf", "nan", "12abc", ""}) {
    EXPECT_TRUE(value_rep.Set(add(StrCat("text '", text, "'")), text).ok());
  }
  add("unmapped");
  EXPECT_TRUE(value_rep
                  .Set(add("old only"), "44", During("[01/01/1970-31/12/1979]"))
                  .ok());
  const ValueId timed = add("timed");
  EXPECT_TRUE(
      value_rep.Set(timed, "4", During("[01/01/1970-31/12/1979]")).ok());
  EXPECT_TRUE(value_rep.Set(timed, "6", During("[01/01/1980-NOW]")).ok());
  // Always in valid time, bounded in transaction time: the column may
  // decide it, since NumericValueOf reads valid time only.
  EXPECT_TRUE(value_rep
                  .Set(add("transaction bounded"), "7",
                       Lifespan{TemporalElement::Always(),
                                TemporalElement(*Interval::Parse(
                                    "[01/01/1990-NOW]"))})
                  .ok());
  return edge;
}

TEST(NumericColumnTest, EdgeCasesMatchNumericValueOf) {
  const EdgeDimension edge = BuildEdgeDimension();
  const Dimension& dimension = edge.dimension;
  const auto index = RollupIndex::For(dimension);
  const RollupIndex::NumericColumn& column =
      ExpectColumnMatches(dimension, *index, "edge cases");
  EXPECT_FALSE(column.numbers_only);
  auto state = [&](const std::string& name) {
    return column.state[index->DenseOf(edge.Of(name))];
  };
  auto number = [&](const std::string& name) {
    return column.value[index->DenseOf(edge.Of(name))];
  };
  EXPECT_EQ(state("code only"), NumericState::kNumber);
  EXPECT_EQ(number("code only"), 12.0);
  EXPECT_EQ(number("value preferred"), 5.0);
  EXPECT_EQ(number("value not numeric"), 8.0);
  EXPECT_EQ(number("text ' 12'"), 12.0);
  EXPECT_EQ(number("text '1e3'"), 1000.0);
  EXPECT_EQ(number("text '0x10'"), 16.0);
  EXPECT_EQ(number("text 'inf'"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(state("text 'nan'"), NumericState::kNumber);
  EXPECT_NE(number("text 'nan'"), number("text 'nan'"));
  EXPECT_EQ(state("text '12abc'"), NumericState::kFails);
  EXPECT_EQ(state("text ''"), NumericState::kFails);
  EXPECT_EQ(state("unmapped"), NumericState::kFails);
  EXPECT_EQ(state("old only"), NumericState::kTimed);
  EXPECT_EQ(state("timed"), NumericState::kTimed);
  EXPECT_EQ(number("transaction bounded"), 7.0);
  EXPECT_EQ(column.state[index->top_dense()], NumericState::kFails);
}

// A representation handle is a structural change: the snapshot that read
// the old mapping goes stale, and its successor's column reads the new one.
TEST(NumericColumnTest, ARepresentationChangeStalesTheSnapshot) {
  EdgeDimension edge = BuildEdgeDimension();
  Dimension& dimension = edge.dimension;
  const ValueId code_only = edge.Of("code only");
  const auto before = RollupIndex::For(dimension);
  EXPECT_EQ(before->Numeric(dimension).value[before->DenseOf(code_only)],
            12.0);
  const std::uint64_t structural = dimension.structural_version();
  ASSERT_TRUE(dimension.RepresentationFor(edge.reading, "Value")
                  .Set(code_only, "3")
                  .ok());
  EXPECT_GT(dimension.structural_version(), structural);
  EXPECT_TRUE(before->StaleFor(dimension));
  const auto after = RollupIndex::For(dimension);
  ASSERT_NE(after.get(), before.get());
  EXPECT_EQ(after->Numeric(dimension).value[after->DenseOf(code_only)], 3.0);
  ExpectColumnMatches(dimension, *after, "after the change");
}

// ---- Concurrency -----------------------------------------------------------

TEST(NumericColumnConcurrencyTest, FourThreadsTakeTheFirstUseAtOnce) {
  const RetailMo retail = BuildRetail(2000);
  const Dimension& prices = retail.mo.dimension(retail.price_dim);
  for (int round = 0; round < 8; ++round) {
    // A fresh snapshot every round: its column is still empty.
    const Dimension dimension = prices;
    dimension.set_compiled_snapshot_slot(nullptr);
    const auto index = RollupIndex::For(dimension);
    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<const RollupIndex::NumericColumn*> seen(kThreads);
    std::vector<double> sums(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        const RollupIndex::NumericColumn& column = index->Numeric(dimension);
        seen[t] = &column;
        for (std::uint32_t d = 0; d < index->value_count(); ++d) {
          if (column.state[d] == NumericState::kNumber) {
            sums[t] += column.value[d];
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], seen[0]);
      EXPECT_EQ(sums[t], sums[0]);
    }
    ExpectColumnMatches(dimension, *index, "after the race");
  }
}

// ---- Reads -----------------------------------------------------------------

/// A valid-time lab MO: facts on three sites, each with one reading whose
/// numeric value is plain ("5", "9"), only a Code ("12"), or timed ("4"
/// in the 1970s, "6" from 1980 on).
MdObject BuildLab(bool with_failing_reading) {
  DimensionTypeBuilder site_builder("Site");
  site_builder.AddCategory("Site");
  Dimension sites(std::move(site_builder.Build()).ValueOrDie());
  const CategoryTypeIndex site = sites.type().bottom();
  Representation& names = sites.RepresentationFor(site, "Name");
  std::vector<ValueId> site_values;
  for (const char* name : {"North", "South", "East"}) {
    site_values.push_back(sites.AddValueAuto(site).ValueOrDie());
    EXPECT_TRUE(names.Set(site_values.back(), name).ok());
  }
  DimensionTypeBuilder reading_builder("Reading");
  reading_builder.AddCategory("Reading", AggregationType::kSum);
  Dimension readings(std::move(reading_builder.Build()).ValueOrDie());
  const CategoryTypeIndex reading = readings.type().bottom();
  Representation& value_rep = readings.RepresentationFor(reading, "Value");
  Representation& code_rep = readings.RepresentationFor(reading, "Code");
  std::vector<ValueId> reading_values;
  auto add = [&]() {
    reading_values.push_back(readings.AddValueAuto(reading).ValueOrDie());
    return reading_values.back();
  };
  EXPECT_TRUE(value_rep.Set(add(), "5").ok());
  EXPECT_TRUE(value_rep.Set(add(), "9").ok());
  EXPECT_TRUE(code_rep.Set(add(), "12").ok());
  const ValueId timed = add();
  EXPECT_TRUE(
      value_rep.Set(timed, "4", During("[01/01/1970-31/12/1979]")).ok());
  EXPECT_TRUE(value_rep.Set(timed, "6", During("[01/01/1980-NOW]")).ok());
  if (with_failing_reading) {
    EXPECT_TRUE(value_rep.Set(add(), "12abc").ok());
  }

  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Measurement", {std::move(sites), std::move(readings)},
              registry, TemporalType::kValidTime);
  for (std::uint64_t key = 0; key < 60; ++key) {
    const FactId fact = registry->Atom(key);
    EXPECT_TRUE(mo.AddFact(fact).ok());
    EXPECT_TRUE(
        mo.Relate(0, fact, site_values[key % site_values.size()]).ok());
    EXPECT_TRUE(mo.Relate(1, fact,
                          reading_values[(key / 3) % reading_values.size()])
                    .ok());
  }
  return mo;
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

/// Renders every statement through a compiling session at 1/2/8 threads
/// and through the tree walk; all must agree byte for byte. Returns the
/// compiled reads' exec stats.
ExecStats ExpectCompiledMatchesTreeWalk(
    const std::string& name, const MdObject& mo,
    const std::vector<std::string>& statements) {
  mdql::Session compiled;
  EXPECT_TRUE(compiled.Register(name, mo).ok());
  mdql::Session tree;
  mdql::CompileOptions off;
  off.enable_compiler = false;
  tree.set_compile_options(off);
  EXPECT_TRUE(tree.Register(name, mo).ok());
  ExecStats stats;
  for (const std::string& statement : statements) {
    const std::string expected = Rendered(tree.Execute(statement));
    for (std::size_t threads : kThreadCounts) {
      ExecContext ctx(threads, /*min_facts=*/1);
      EXPECT_EQ(Rendered(compiled.Execute(statement, &ctx)), expected)
          << statement << " at " << threads << " threads";
      stats.MergeFrom(ctx.stats);
    }
  }
  return stats;
}

/// SUM/AVG/MIN/MAX over `arg` grouped at (`dim`, `category`), at prob_at
/// NOW and at the two ASOF chronons: the production formation at 1/2/8
/// threads byte-equal to the reference.
void ExpectFormationsMatchReference(const MdObject& mo, std::size_t arg,
                                    std::size_t dim,
                                    CategoryTypeIndex category,
                                    const std::string& context) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(i == dim ? category : mo.dimension(i).type().top());
  }
  for (const AggFunction& function :
       {AggFunction::Sum(arg), AggFunction::Avg(arg), AggFunction::Min(arg),
        AggFunction::Max(arg)}) {
    for (Chronon at : Chronons()) {
      const AggregateSpec spec{function, grouping,
                               ResultDimensionSpec::Auto(), at,
                               /*enforce_aggregation_types=*/true};
      const std::string expected =
          Outcome(reference::AggregateFormation(mo, spec));
      for (std::size_t threads : kThreadCounts) {
        ExecContext ctx(threads, /*min_facts=*/1);
        EXPECT_EQ(Outcome(AggregateFormation(mo, spec, &ctx)), expected)
            << context << " " << function.name() << " at chronon " << at
            << ", " << threads << " threads";
      }
    }
  }
}

TEST(NumericColumnReadTest, RetailPriceReadsMatchTheTreeWalkAndReference) {
  const RetailMo retail = BuildRetail(3000);
  const MdObject& mo = retail.mo;
  // An existing price, for the equality atoms.
  const Dimension& prices = mo.dimension(retail.price_dim);
  const FactDimRelation::Entry* first =
      mo.relation(retail.price_dim).ForFact(mo.facts().front()).front();
  const std::string price =
      FormatDouble(prices.NumericValueOf(first->value).ValueOrDie());
  std::vector<std::string> statements;
  for (const char* as_of : {"", " ASOF 'NOW'"}) {
    for (const char* function : {"SUM", "AVG", "MIN", "MAX"}) {
      statements.push_back(StrCat("SELECT ", function,
                                  "(Price) FROM sales BY Product.Category",
                                  as_of));
    }
    for (const std::string& where : std::vector<std::string>{
             "Price >= 250", "Price < 250", "Price = " + price,
             "Price <> " + price}) {
      statements.push_back(StrCat(
          "SELECT COUNT, SUM(Amount), AVG(Price) FROM sales BY Store.City "
          "WHERE ",
          where, as_of));
    }
  }
  const ExecStats stats =
      ExpectCompiledMatchesTreeWalk("sales", mo, statements);
  EXPECT_EQ(stats.fused_pipelines, statements.size() * 3);
  // The column decides every price and amount: no read asked
  // NumericValueOf.
  EXPECT_EQ(stats.numeric_lookups, 0u);
  ExpectFormationsMatchReference(mo, retail.price_dim, retail.product_dim,
                                 retail.category, "retail");
}

TEST(NumericColumnReadTest, TimedReadingsMatchTheTreeWalkAndReference) {
  const MdObject mo = BuildLab(/*with_failing_reading=*/false);
  std::vector<std::string> statements;
  for (const char* as_of :
       {"", " ASOF '01/06/1975'", " ASOF '01/06/1985'", " ASOF 'NOW'"}) {
    for (const char* function : {"SUM", "AVG", "MIN", "MAX"}) {
      statements.push_back(StrCat("SELECT ", function,
                                  "(Reading) FROM lab BY Site.Site", as_of));
    }
    for (const char* where : {"Reading >= 6", "Reading < 6", "Reading = 4",
                              "Reading <> 6", "NOT Reading > 9"}) {
      statements.push_back(StrCat(
          "SELECT COUNT, SUM(Reading) FROM lab BY Site.Site WHERE ", where,
          as_of));
    }
  }
  const ExecStats stats = ExpectCompiledMatchesTreeWalk("lab", mo, statements);
  // Reads without ASOF resolve the timed reading through NumericValueOf.
  EXPECT_GT(stats.numeric_lookups, 0u);
  ExpectFormationsMatchReference(mo, 1, 0, mo.dimension(0).type().bottom(),
                                 "lab");
  for (Chronon at : Chronons()) {
    auto sliced = ValidTimeslice(mo, at);
    ASSERT_TRUE(sliced.ok()) << sliced.status();
    ExpectFormationsMatchReference(*sliced, 1, 0,
                                   sliced->dimension(0).type().bottom(),
                                   StrCat("lab sliced at ", at));
  }
}

TEST(NumericColumnReadTest, ANonNumericArgumentKeepsItsStickyError) {
  const MdObject mo = BuildLab(/*with_failing_reading=*/true);
  const std::string statement = "SELECT SUM(Reading) FROM lab BY Site.Site";
  ExpectCompiledMatchesTreeWalk("lab", mo, {statement});
  mdql::Session compiled;
  ASSERT_TRUE(compiled.Register("lab", mo).ok());
  const Result<mdql::QueryResult> result = compiled.Execute(statement);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find(
                "' has no numeric representation at the requested time"),
            std::string::npos)
      << result.status();
  ExpectFormationsMatchReference(mo, 1, 0, mo.dimension(0).type().bottom(),
                                 "lab with a failing reading");
}

// The serving tier reads the published epoch's shared snapshot: the
// first Price read fills its column, every later one reuses it.
TEST(NumericColumnReadTest, ServedPriceReadsNeverAskNumericValueOf) {
  const RetailMo retail = BuildRetail(2000);
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("sales", retail.mo).ok());
  serve::MdqlServer server(&store);
  serve::ServerSession session = server.Connect(/*threads_per_query=*/2);
  const std::vector<std::string> statements = {
      "SELECT AVG(Price) FROM sales BY Product.Category",
      "SELECT MAX(Price) FROM sales BY Store.City",
      "SELECT MIN(Price) FROM sales BY Store.Region",
      "SELECT COUNT FROM sales BY Product.Department WHERE Price >= 250",
  };
  for (int round = 0; round < 2; ++round) {
    for (const std::string& statement : statements) {
      auto result = session.Execute(statement);
      ASSERT_TRUE(result.ok()) << statement << ": " << result.status();
    }
  }
  EXPECT_EQ(session.stats().exec.fused_pipelines, 2 * statements.size());
  EXPECT_EQ(session.stats().exec.numeric_lookups, 0u);
}

}  // namespace
}  // namespace mddc
