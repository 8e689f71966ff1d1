#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/agg_function.h"
#include "common/strings.h"
#include "mdql/bind.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for warm reads (mdql::ExecuteSelect, docs/serving.md): a
// SELECT with no WHERE and no ASOF whose every function the pinned
// epoch's warm pre-aggregates hold over its grouping renders straight
// from the cached formations. Every warm-served read must be byte-equal
// to the tree walk (a plain mdql::Session with the compiler off) and to
// the fused path (a store without warm specs), on folded, fully resealed
// and deleted-from epochs at 1/2/8 threads per query. A partial hit, a
// WHERE and an ASOF take the old path.

namespace mddc {
namespace serve {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// The warm specs `statement` needs: one (function, grouping) per
/// SELECT-list function, bound on `mo`.
std::vector<WarmSpec> SpecsOf(const MdObject& mo,
                              const std::string& statement) {
  std::vector<WarmSpec> specs;
  auto parsed = mdql::Parse(statement);
  EXPECT_TRUE(parsed.ok() && parsed->select.has_value()) << statement;
  if (!parsed.ok() || !parsed->select.has_value()) return specs;
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(mo.dimension(i).type().top());
  }
  for (const mdql::GroupRef& group : parsed->select->group_by) {
    auto level = mdql::Resolve(mo, group.level);
    EXPECT_TRUE(level.ok()) << statement;
    if (level.ok()) grouping[level->dim] = level->category;
  }
  for (const mdql::AggRef& agg : parsed->select->aggregates) {
    auto function = mdql::BuildAggFunction(mo, agg);
    EXPECT_TRUE(function.ok()) << statement;
    if (function.ok()) specs.push_back(WarmSpec{*function, grouping});
  }
  return specs;
}

/// The text naming `value`: the first representation of its category
/// that has one.
std::string NameOf(const Dimension& dimension, ValueId value) {
  auto category = dimension.CategoryOf(value);
  for (const auto& [cat, rep_name, rep] : dimension.AllRepresentations()) {
    if (!category.ok() || cat != *category) continue;
    auto text = rep->Get(value, kNowChronon);
    if (text.ok()) return *text;
  }
  ADD_FAILURE() << "value " << value.raw() << " of " << dimension.name()
                << " has no name";
  return "";
}

/// One FACT group of an INSERT: fact `key`, characterized by every
/// non-top value the published fact `like` has (with its probability
/// when below 1).
std::string FactLike(const MdObject& mo, FactId like, std::uint64_t key) {
  std::vector<std::string> assignments;
  for (std::size_t d = 0; d < mo.dimension_count(); ++d) {
    const Dimension& dimension = mo.dimension(d);
    for (const FactDimRelation::Entry* entry : mo.relation(d).ForFact(like)) {
      auto category = dimension.CategoryOf(entry->value);
      if (!category.ok() || *category == dimension.type().top()) continue;
      std::string assignment =
          StrCat(dimension.name(), ".\"",
                 dimension.type().category(*category).name, "\" = '",
                 NameOf(dimension, entry->value), "'");
      if (entry->prob < 1.0) assignment += StrCat(" PROB ", entry->prob);
      assignments.push_back(std::move(assignment));
    }
  }
  return StrCat("FACT ", key, " (", Join(assignments, ", "), ")");
}

/// The name of the first value of `category` in dimension `dim` that the
/// fact `like` is not characterized by.
std::string OtherThan(const MdObject& mo, std::size_t dim,
                      CategoryTypeIndex category, FactId like) {
  const Dimension& dimension = mo.dimension(dim);
  for (ValueId value : dimension.ValuesIn(category)) {
    bool held = false;
    for (const FactDimRelation::Entry* entry : mo.relation(dim).ForFact(like)) {
      held = held || entry->value == value;
    }
    if (!held) return NameOf(dimension, value);
  }
  ADD_FAILURE() << "fact holds every value of the category";
  return "";
}

/// One MO held three ways and fed the same statements: a store whose
/// epochs keep warm specs (the reads under test), a store without any
/// (the fused path) and a plain session with the compiler off (the tree
/// walk).
class ThreeWay {
 public:
  ThreeWay(std::string name, const MdObject& mo) : name_(std::move(name)) {
    EXPECT_TRUE(warm_.Publish(name_, mo).ok());
    EXPECT_TRUE(cold_.Publish(name_, mo).ok());
    mdql::CompileOptions off;
    off.enable_compiler = false;
    tree_.set_compile_options(off);
    EXPECT_TRUE(tree_.Register(name_, mo).ok());
  }

  /// Registers on the warm store every spec `statement` needs.
  void Warm(const std::string& statement) {
    const std::shared_ptr<const MoSnapshot> pinned = warm_.Pin();
    for (WarmSpec& spec : SpecsOf(pinned->Find(name_)->mo(), statement)) {
      const Status status =
          warm_.WarmAggregate(name_, spec.function, std::move(spec.grouping));
      EXPECT_TRUE(status.ok()) << statement << ": " << status;
    }
  }

  /// Runs a write through both stores and the plain session.
  void Write(const std::string& statement) {
    ServerSession warm_writer = warm_server_.Connect();
    auto warm_ack = warm_writer.Execute(statement);
    ASSERT_TRUE(warm_ack.ok()) << statement << ": " << warm_ack.status();
    warm_writes_.MergeFrom(warm_writer.stats().exec);
    ServerSession cold_writer = cold_server_.Connect();
    auto cold_ack = cold_writer.Execute(statement);
    ASSERT_TRUE(cold_ack.ok()) << statement << ": " << cold_ack.status();
    auto tree_ack = tree_.Execute(statement);
    ASSERT_TRUE(tree_ack.ok()) << statement << ": " << tree_ack.status();
  }

  /// Reads `statement` all three ways at every thread count: the same
  /// bytes everywhere, and the warm store's read takes the warm path
  /// (no scan, no compile) iff `warm`.
  void ExpectRead(const std::string& statement, bool warm,
                  const std::string& context) {
    auto tree = tree_.Execute(statement);
    ASSERT_TRUE(tree.ok()) << statement << ": " << tree.status();
    const std::string want = tree->ToString();
    for (std::size_t threads : kThreadCounts) {
      const std::string where =
          StrCat(context, ": ", statement, " at ", threads, " threads");
      ServerSession warm_session = warm_server_.Connect(threads);
      ServerSession cold_session = cold_server_.Connect(threads);
      auto served = warm_session.Execute(statement);
      ASSERT_TRUE(served.ok()) << where << ": " << served.status();
      auto fused = cold_session.Execute(statement);
      ASSERT_TRUE(fused.ok()) << where << ": " << fused.status();
      EXPECT_EQ(served->ToString(), want) << where;
      EXPECT_EQ(fused->ToString(), want) << where;

      const ExecStats& got = warm_session.stats().exec;
      const ExecStats& cold = cold_session.stats().exec;
      EXPECT_EQ(cold.warm_reads, 0u) << where;
      EXPECT_EQ(got.warm_reads, warm ? 1u : 0u) << where;
      if (warm) {
        EXPECT_EQ(got.fused_pipelines, 0u) << where;
        EXPECT_EQ(got.plan_fallbacks, 0u) << where;
        EXPECT_EQ(got.rewrites_applied, 0u) << where;
        EXPECT_EQ(got.facts_gathered + got.facts_walked, 0u) << where;
      } else {
        EXPECT_EQ(got.fused_pipelines, cold.fused_pipelines) << where;
        EXPECT_EQ(got.plan_fallbacks, cold.plan_fallbacks) << where;
      }
    }
  }

  MoStore& warm_store() { return warm_; }
  const ExecStats& warm_writes() const { return warm_writes_; }

 private:
  std::string name_;
  MoStore warm_;
  MoStore cold_;
  MdqlServer warm_server_{&warm_};
  MdqlServer cold_server_{&cold_};
  mdql::Session tree_;
  ExecStats warm_writes_;
};

/// The epochs every read is checked on, in order, after the published
/// one: two pure appends (folded), a re-INSERT of an appended fact (it
/// relates a published fact: the full-seal fallback), a DELETE (a full
/// rebuild) and an append on the rebuilt epoch.
struct EpochSchedule {
  std::string append1, append2, fallback, del, append3;
};

void ExpectReadsAcrossEpochs(ThreeWay& three,
                             const std::vector<std::string>& warm_reads,
                             const std::vector<std::string>& cold_reads,
                             const EpochSchedule& schedule) {
  auto check = [&](const std::string& context) {
    for (const std::string& read : warm_reads) {
      three.ExpectRead(read, /*warm=*/true, context);
    }
    for (const std::string& read : cold_reads) {
      three.ExpectRead(read, /*warm=*/false, context);
    }
  };
  check("published");
  const std::pair<const char*, const std::string*> steps[] = {
      {"append", &schedule.append1},     {"second append", &schedule.append2},
      {"full-seal fallback", &schedule.fallback},
      {"delete", &schedule.del},         {"append after rebuild",
                                          &schedule.append3}};
  for (const auto& [context, write] : steps) {
    three.Write(*write);
    check(context);
  }
  const MoStore::Stats stats = three.warm_store().CollectStats();
  EXPECT_EQ(stats.append_batches, 3u);
  EXPECT_EQ(stats.append_fallbacks, 1u);
  EXPECT_GT(three.warm_writes().preagg_folds, 0u);
}

TEST(WarmReadTest, ClinicalReadsMatchTheTreeWalkAndTheFusedPath) {
  ClinicalWorkloadParams params;
  params.seed = 31;
  params.num_patients = 300;
  auto clinical =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(clinical.ok()) << clinical.status();
  const MdObject& mo = clinical->mo;
  ThreeWay three("clinical", mo);

  const std::string by_low =
      "SELECT COUNT FROM clinical BY Diagnosis.\"Low-level Diagnosis\"";
  const std::vector<std::string> warm_reads = {
      // The non-strict Diagnosis hierarchy.
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
      "SELECT COUNT(Diagnosis) FROM clinical BY Residence.County",
      by_low,
      "SELECT COUNT, COUNT(Residence) FROM clinical "
      "BY Diagnosis.\"Diagnosis Family\", Residence.Region",
      "SELECT COUNT FROM clinical BY Residence.Region",
  };
  const std::vector<std::string> cold_reads = {
      // COUNT by Region is warm, COUNT(Diagnosis) by Region is not.
      "SELECT COUNT, COUNT(Diagnosis) FROM clinical BY Residence.Region",
      "SELECT COUNT FROM clinical BY Residence.Region "
      "WHERE Residence.Region = 'R0'",
      "SELECT COUNT FROM clinical BY Residence.Region ASOF 'NOW'",
  };
  for (const std::string& read : warm_reads) three.Warm(read);

  // The low-level grouping collapses: two groups with one member set
  // are one set fact, related to both diagnoses and rendered once. The
  // second append below splits such a pair.
  std::string collapsed_low;
  {
    const std::shared_ptr<const MoSnapshot> pinned = three.warm_store().Pin();
    const PublishedMo* entry = pinned->Find("clinical");
    const std::vector<WarmSpec> specs = SpecsOf(entry->mo(), by_low);
    ASSERT_EQ(specs.size(), 1u);
    const MdObject* formed =
        entry->preagg->Peek(specs[0].function, specs[0].grouping);
    ASSERT_NE(formed, nullptr);
    const std::size_t diagnosis = clinical->diagnosis_dim;
    for (FactId group : formed->facts()) {
      auto pairs = formed->relation(diagnosis).ForFact(group);
      if (pairs.size() >= 2) {
        collapsed_low = NameOf(formed->dimension(diagnosis), pairs[1]->value);
        break;
      }
    }
  }
  ASSERT_FALSE(collapsed_low.empty()) << "no collapsed low-level group";

  // Appended facts copy published ones that hold an uncertain (PROB)
  // pair.
  std::vector<FactId> uncertain;
  for (FactId fact : mo.facts()) {
    for (const FactDimRelation::Entry* entry :
         mo.relation(clinical->diagnosis_dim).ForFact(fact)) {
      if (entry->prob < 1.0) {
        uncertain.push_back(fact);
        break;
      }
    }
  }
  ASSERT_GE(uncertain.size(), 6u);
  const std::string area =
      OtherThan(mo, clinical->residence_dim, clinical->area, uncertain[0]);

  EpochSchedule schedule;
  schedule.append1 = StrCat("INSERT INTO clinical ",
                            FactLike(mo, uncertain[0], 95000000), ", ",
                            FactLike(mo, uncertain[1], 95000001), ", ",
                            FactLike(mo, uncertain[2], 95000002));
  schedule.append2 =
      StrCat("INSERT INTO clinical FACT 95000010 (Diagnosis.\"Low-level "
             "Diagnosis\" = '",
             collapsed_low, "' PROB 0.8, Residence.Area = '", area, "'), ",
             FactLike(mo, uncertain[3], 95000011));
  schedule.fallback = StrCat("INSERT INTO clinical FACT 95000000 "
                             "(Residence.Area = '",
                             area, "')");
  schedule.del = "DELETE FROM clinical FACT 95000001";
  schedule.append3 = StrCat("INSERT INTO clinical ",
                            FactLike(mo, uncertain[4], 95000020), ", ",
                            FactLike(mo, uncertain[5], 95000021));
  ExpectReadsAcrossEpochs(three, warm_reads, cold_reads, schedule);
}

TEST(WarmReadTest, RetailFunctionsMatchTheTreeWalkAndTheFusedPath) {
  RetailWorkloadParams params;
  params.seed = 13;
  params.num_purchases = 300;
  auto retail = GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(retail.ok()) << retail.status();
  const MdObject& mo = retail->mo;
  ThreeWay three("sales", mo);

  const std::vector<std::string> warm_reads = {
      "SELECT SUM(Amount) FROM sales BY Product.Category",
      "SELECT AVG(Price) FROM sales BY Store.Region",
      "SELECT MIN(Price), MAX(Amount), COUNT(Amount) FROM sales "
      "BY Product.Department, Store.City",
      // No BY: one group over every fact.
      "SELECT COUNT, SUM(Price) FROM sales",
      "SELECT COUNT FROM sales BY Date.Month",
      // Grouping at TOP is the no-BY grouping: served from its entry,
      // where the fused path falls back to the tree walk.
      "SELECT COUNT FROM sales BY Product.TOP",
  };
  const std::vector<std::string> cold_reads = {
      "SELECT SUM(Amount), AVG(Amount) FROM sales BY Product.Category",
      "SELECT SUM(Amount) FROM sales BY Product.Category WHERE Price >= 20",
      "SELECT MAX(Price) FROM sales BY Product.Category",
  };
  for (const std::string& read : warm_reads) three.Warm(read);

  const std::vector<FactId>& facts = mo.facts();
  ASSERT_GE(facts.size(), 7u);
  const std::string product =
      OtherThan(mo, retail->product_dim, retail->product, facts[0]);
  EpochSchedule schedule;
  schedule.append1 = StrCat("INSERT INTO sales ",
                            FactLike(mo, facts[0], 96000000), ", ",
                            FactLike(mo, facts[1], 96000001), ", ",
                            FactLike(mo, facts[2], 96000002));
  schedule.append2 = StrCat("INSERT INTO sales ",
                            FactLike(mo, facts[3], 96000010), ", ",
                            FactLike(mo, facts[4], 96000011));
  schedule.fallback = StrCat("INSERT INTO sales FACT 96000000 "
                             "(Product.Product = '",
                             product, "')");
  schedule.del = "DELETE FROM sales FACT 96000001";
  schedule.append3 = StrCat("INSERT INTO sales ",
                            FactLike(mo, facts[5], 96000020), ", ",
                            FactLike(mo, facts[6], 96000021));
  ExpectReadsAcrossEpochs(three, warm_reads, cold_reads, schedule);
}

}  // namespace
}  // namespace serve
}  // namespace mddc
