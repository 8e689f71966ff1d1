#include <gtest/gtest.h>

#include <algorithm>
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
#include "mdql/physical.h"
#include "mdql/plan.h"
#include "mdql/rewrite.h"
#include "reference/plan_reference.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// The MDQL compiler (docs/mdql_compiler.md): every logical rewrite rule
// individually and composed, and the load-bearing contract — the
// optimized (fused) physical plan renders byte-identically to the
// tree-walk interpreter, on every statement, at every thread count.

namespace mddc {
namespace mdql {
namespace {

ClinicalMo BuildClinical(std::size_t patients,
                         std::shared_ptr<FactRegistry> registry = nullptr) {
  ClinicalWorkloadParams params;
  params.seed = 17;
  params.num_patients = patients;
  if (registry == nullptr) registry = std::make_shared<FactRegistry>();
  auto workload = GenerateClinicalWorkload(params, std::move(registry));
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// The rules gated on Section 3.4 summarizability (select-below-aggregate,
/// collapse-rollup) need a dimension whose fact mapping is strict even
/// atemporally; relocations give a patient two residence areas, so they
/// are turned off here. Diagnosis keeps its non-strictness — the negative
/// cases rely on it.
ClinicalMo BuildClinicalSettled(std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = 17;
  params.num_patients = patients;
  params.relocation_rate = 0.0;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

RetailMo BuildRetail(std::size_t purchases,
                     std::shared_ptr<FactRegistry> registry = nullptr) {
  RetailWorkloadParams params;
  params.seed = 7;
  params.num_purchases = purchases;
  if (registry == nullptr) registry = std::make_shared<FactRegistry>();
  auto workload = GenerateRetailWorkload(params, std::move(registry));
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

bool Fired(const RewriteOutcome& outcome, const std::string& rule) {
  return std::find(outcome.fired.begin(), outcome.fired.end(), rule) !=
         outcome.fired.end();
}

/// Renders an aggregate-result MO as sorted "label|value" lines: the
/// grouping label through the Code representation of `category`, the
/// result through the auto dimension's Value representation.
/// Shape-independent, so a two-level roll-up and its collapsed form are
/// comparable.
std::vector<std::string> RenderedValues(const MdObject& mo,
                                        const std::string& dim_name,
                                        const std::string& category) {
  std::vector<std::string> rows;
  auto dim_idx = mo.FindDimension(dim_name);
  EXPECT_TRUE(dim_idx.ok());
  if (!dim_idx.ok()) return rows;
  const Dimension& dim = mo.dimension(*dim_idx);
  auto cat = dim.type().Find(category);
  EXPECT_TRUE(cat.ok());
  if (!cat.ok()) return rows;
  auto rep = dim.FindRepresentation(*cat, "Code");
  EXPECT_TRUE(rep.ok());
  if (!rep.ok()) return rows;
  const std::size_t result_dim = mo.dimension_count() - 1;
  const Dimension& result = mo.dimension(result_dim);
  auto value_rep = result.FindRepresentation(result.type().bottom(), "Value");
  EXPECT_TRUE(value_rep.ok());
  if (!value_rep.ok()) return rows;
  for (FactId fact : mo.facts()) {
    auto group_pairs = mo.relation(*dim_idx).ForFact(fact);
    auto result_pairs = mo.relation(result_dim).ForFact(fact);
    if (group_pairs.empty() || result_pairs.empty()) {
      ADD_FAILURE() << "fact " << fact.raw() << " missing relations";
      continue;
    }
    auto label = (*rep)->Get(group_pairs.front()->value, kNowChronon);
    auto value = (*value_rep)->Get(result_pairs.front()->value, kNowChronon);
    if (!label.ok() || !value.ok()) {
      ADD_FAILURE() << "fact " << fact.raw() << " unrenderable";
      continue;
    }
    rows.push_back(StrCat(*label, "|", *value));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---- Logical rules, individually --------------------------------------

TEST(RewriteRuleTest, HoistTimesliceSharesCommonChains) {
  ClinicalMo clinical = BuildClinical(200);
  auto statement = Parse(
      "SELECT COUNT, COUNT(Diagnosis) FROM clinical "
      "BY Diagnosis.\"Diagnosis Group\" "
      "WHERE Diagnosis.\"Diagnosis Group\" = 'G0' ASOF 'NOW'");
  ASSERT_TRUE(statement.ok()) << statement.status();
  PlanRef plan =
      LowerSelect(statement->select->mo_name, &clinical.mo,
                  *statement->select);
  // Lowering duplicates each branch's Select/Timeslice chain.
  const std::string before = PrintPlan(plan);
  EXPECT_EQ(plan->children.size(), 2u);
  EXPECT_NE(plan->children[0]->children[0], plan->children[1]->children[0]);

  RewriteOptions options;
  options.rule_mask = kRuleHoistTimeslice;
  RewriteOutcome outcome = Rewrite(plan, options);
  EXPECT_TRUE(Fired(outcome, "hoist-timeslice")) << before;
  // After CSE the two aggregate branches hang off one shared chain.
  ASSERT_EQ(outcome.plan->children.size(), 2u);
  EXPECT_EQ(outcome.plan->children[0]->children[0],
            outcome.plan->children[1]->children[0]);
  EXPECT_NE(PrintPlan(outcome.plan).find("[shared"), std::string::npos);
}

TEST(RewriteRuleTest, MergeSiblingAggregatesFoldsTheMerge) {
  ClinicalMo clinical = BuildClinical(200);
  auto statement = Parse(
      "SELECT COUNT, COUNT(Diagnosis) FROM clinical "
      "BY Diagnosis.\"Diagnosis Group\" "
      "WHERE Residence.Region = 'R0'");
  ASSERT_TRUE(statement.ok()) << statement.status();
  PlanRef plan =
      LowerSelect(statement->select->mo_name, &clinical.mo,
                  *statement->select);

  // Without the hoist the siblings' duplicated Select chains differ, so
  // merging alone cannot fire: the rule only absorbs siblings over one
  // shared child.
  RewriteOptions merge_only;
  merge_only.rule_mask = kRuleMergeSiblingAggregates;
  EXPECT_FALSE(Fired(Rewrite(plan, merge_only), "merge-sibling-aggregates"));

  plan = LowerSelect(statement->select->mo_name, &clinical.mo,
                     *statement->select);
  RewriteOptions both;
  both.rule_mask = kRuleHoistTimeslice | kRuleMergeSiblingAggregates;
  RewriteOutcome outcome = Rewrite(plan, both);
  EXPECT_TRUE(Fired(outcome, "merge-sibling-aggregates"));
  ASSERT_EQ(outcome.plan->children.size(), 1u);
  EXPECT_EQ(outcome.plan->children[0]->aggregates.size(), 2u);
}

TEST(RewriteRuleTest, SelectBelowAggregateDifferential) {
  ClinicalMo clinical = BuildClinicalSettled(300);
  // A Select sitting ABOVE the aggregate, on a category at or above the
  // grouping category. The surface language never produces this shape;
  // the IR constructors do. Residence is the strict, partitioning
  // hierarchy the rule's Theorem-2 gate demands (Diagnosis is
  // deliberately non-strict and must NOT fire — checked below).
  auto statement = Parse(
      "SELECT COUNT FROM clinical BY Residence.County "
      "WHERE Residence.Region = 'R0'");
  ASSERT_TRUE(statement.ok()) << statement.status();
  const SelectStatement& select = *statement->select;

  auto build = [&]() {
    PlanRef scan = MakeScan(select.mo_name, &clinical.mo);
    PlanRef agg =
        MakeAggregate(scan, select.aggregates, select.group_by);
    return MakeSelect(agg, select.where.get());
  };

  RewriteOptions options;
  options.rule_mask = kRuleSelectBelowAggregate;
  RewriteOutcome outcome = Rewrite(build(), options);
  ASSERT_TRUE(Fired(outcome, "select-below-aggregate"));
  // The rewritten root is the aggregate; the select moved below it.
  EXPECT_EQ(outcome.plan->kind, PlanKind::kAggregate);
  EXPECT_EQ(outcome.plan->children[0]->kind, PlanKind::kSelect);

  auto original = reference::ExecutePlanMaterialized(build());
  ASSERT_TRUE(original.ok()) << original.status();
  auto rewritten = reference::ExecutePlanMaterialized(outcome.plan);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  // sigma restricts facts, not dimension values, so the original keeps
  // orphaned auto-result values for the filtered-out groups; compare the
  // rendered rows, which is what any consumer of either MO observes.
  std::vector<std::string> original_rows =
      RenderedValues(*original, "Residence", "County");
  EXPECT_FALSE(original_rows.empty());
  EXPECT_EQ(original_rows, RenderedValues(*rewritten, "Residence", "County"));

  // The non-strict Diagnosis hierarchy fails the gate: pushing a family
  // predicate below the aggregate would drop facts that reach the named
  // family only through one of their several parents.
  auto non_strict = Parse(
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Family\" "
      "WHERE Diagnosis.\"Diagnosis Family\" = 'F3'");
  ASSERT_TRUE(non_strict.ok()) << non_strict.status();
  const SelectStatement& ns = *non_strict->select;
  PlanRef scan = MakeScan(ns.mo_name, &clinical.mo);
  PlanRef agg = MakeAggregate(scan, ns.aggregates, ns.group_by);
  RewriteOutcome refused = Rewrite(MakeSelect(agg, ns.where.get()), options);
  EXPECT_FALSE(Fired(refused, "select-below-aggregate"));
}

TEST(RewriteRuleTest, SelectBelowJoinDifferential) {
  auto registry = std::make_shared<FactRegistry>();
  ClinicalMo clinical = BuildClinical(60, registry);
  RetailMo retail = BuildRetail(60, registry);
  // Dimension names are disjoint, so the whole predicate resolves on the
  // clinical side and pushes below the join.
  auto statement = Parse(
      "SELECT COUNT FROM joined "
      "WHERE Diagnosis.\"Diagnosis Group\" = 'G1'");
  ASSERT_TRUE(statement.ok()) << statement.status();
  const SelectStatement& select = *statement->select;

  auto build = [&]() {
    PlanRef left = MakeScan(Name::Of("clinical"), &clinical.mo);
    PlanRef right = MakeScan(Name::Of("retail"), &retail.mo);
    PlanRef join = MakeJoin(left, right, JoinPredicate::kTrue);
    return MakeSelect(join, select.where.get());
  };

  RewriteOptions options;
  options.rule_mask = kRuleSelectBelowJoin;
  RewriteOutcome outcome = Rewrite(build(), options);
  ASSERT_TRUE(Fired(outcome, "select-below-join"));
  EXPECT_EQ(outcome.plan->kind, PlanKind::kJoin);
  EXPECT_EQ(outcome.plan->children[0]->kind, PlanKind::kSelect);
  EXPECT_EQ(outcome.plan->children[1]->kind, PlanKind::kScan);

  auto original = reference::ExecutePlanMaterialized(build());
  ASSERT_TRUE(original.ok()) << original.status();
  auto rewritten = reference::ExecutePlanMaterialized(outcome.plan);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  auto original_text = io::WriteMo(*original);
  auto rewritten_text = io::WriteMo(*rewritten);
  ASSERT_TRUE(original_text.ok() && rewritten_text.ok());
  EXPECT_EQ(*original_text, *rewritten_text);
}

TEST(RewriteRuleTest, CollapseRollupDifferential) {
  ClinicalMo clinical = BuildClinicalSettled(300);
  // Residence again: collapse is licensed by the same strict +
  // partitioning summarizability gate as the stream's parallel path.
  auto inner_stmt = Parse(
      "SELECT COUNT FROM clinical BY Residence.County");
  auto outer_stmt = Parse(
      "SELECT SUM(Result) FROM clinical BY Residence.Region");
  ASSERT_TRUE(inner_stmt.ok() && outer_stmt.ok());
  const SelectStatement& inner = *inner_stmt->select;
  const SelectStatement& outer = *outer_stmt->select;

  auto build = [&]() {
    PlanRef scan = MakeScan(inner.mo_name, &clinical.mo);
    PlanRef low = MakeAggregate(scan, inner.aggregates, inner.group_by);
    return MakeAggregate(low, outer.aggregates, outer.group_by);
  };

  RewriteOptions options;
  options.rule_mask = kRuleCollapseRollup;
  RewriteOutcome outcome = Rewrite(build(), options);
  ASSERT_TRUE(Fired(outcome, "collapse-rollup"));
  // One aggregate straight over the scan: SUM o COUNT == COUNT regrouped.
  EXPECT_EQ(outcome.plan->kind, PlanKind::kAggregate);
  EXPECT_EQ(outcome.plan->children[0]->kind, PlanKind::kScan);
  ASSERT_EQ(outcome.plan->aggregates.size(), 1u);
  EXPECT_EQ(outcome.plan->aggregates[0].fn, AggRef::Fn::kSetCount);
  // The collapsed aggregate renders under the outer statement's label.
  EXPECT_EQ(outcome.plan->aggregates[0].label, outer.aggregates[0].label);

  auto original = reference::ExecutePlanMaterialized(build());
  ASSERT_TRUE(original.ok()) << original.status();
  auto rewritten = reference::ExecutePlanMaterialized(outcome.plan);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  // MO shapes differ (the two-level plan nests a second result
  // dimension), so compare at the rendered-value level.
  EXPECT_EQ(RenderedValues(*original, "Residence", "Region"),
            RenderedValues(*rewritten, "Residence", "Region"));
}

TEST(RewriteRuleTest, PruneDeadDimensionsAnnotates) {
  ClinicalMo clinical = BuildClinical(200);
  // Groups only Diagnosis; Residence is dead.
  auto statement = Parse(
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"");
  ASSERT_TRUE(statement.ok()) << statement.status();
  PlanRef plan =
      LowerSelect(statement->select->mo_name, &clinical.mo,
                  *statement->select);
  RewriteOptions options;
  options.rule_mask = kRulePruneDeadDimensions;
  RewriteOutcome outcome = Rewrite(plan, options);
  EXPECT_TRUE(Fired(outcome, "prune-dead-dimensions"));
  ASSERT_EQ(outcome.plan->children.size(), 1u);
  EXPECT_TRUE(outcome.plan->children[0]->prune_dead);
}

TEST(RewriteRuleTest, ComposedRulesReachTheFusedShape) {
  ClinicalMo clinical = BuildClinical(200);
  auto statement = Parse(
      "SELECT COUNT, COUNT(Diagnosis) FROM clinical "
      "BY Diagnosis.\"Diagnosis Family\" "
      "WHERE Diagnosis.\"Diagnosis Group\" = 'G0' ASOF 'NOW'");
  ASSERT_TRUE(statement.ok()) << statement.status();
  PlanRef plan =
      LowerSelect(statement->select->mo_name, &clinical.mo,
                  *statement->select);
  RewriteOutcome outcome = Rewrite(plan, RewriteOptions{});
  EXPECT_TRUE(Fired(outcome, "hoist-timeslice"));
  EXPECT_TRUE(Fired(outcome, "merge-sibling-aggregates"));
  EXPECT_TRUE(Fired(outcome, "prune-dead-dimensions"));
  // Merge -> one Aggregate -> Select -> Timeslice -> Scan.
  ASSERT_EQ(outcome.plan->children.size(), 1u);
  const PlanNode& agg = *outcome.plan->children[0];
  EXPECT_EQ(agg.kind, PlanKind::kAggregate);
  EXPECT_EQ(agg.aggregates.size(), 2u);
  EXPECT_TRUE(agg.prune_dead);
  EXPECT_EQ(agg.children[0]->kind, PlanKind::kSelect);
  EXPECT_EQ(agg.children[0]->children[0]->kind, PlanKind::kTimeslice);
  EXPECT_EQ(agg.children[0]->children[0]->children[0]->kind,
            PlanKind::kScan);
}

// ---- Optimized vs tree-walk, byte for byte ----------------------------

/// The differential workload: every statement class the compiler
/// handles, including the shapes that force a fallback.
const char* kStatements[] = {
    "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
    "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Family\" "
    "WHERE Diagnosis.\"Diagnosis Group\" = 'G1'",
    // The exact shape that once diverged: a fact characterized by
    // several low-level diagnoses makes singleton groups with identical
    // member sets, which the formation interns into ONE set-fact.
    "SELECT COUNT FROM clinical BY Diagnosis.\"Low-level Diagnosis\" AS Seq "
    "WHERE Diagnosis.\"Diagnosis Family\" = 'F61'",
    "SELECT COUNT, COUNT(Diagnosis) FROM clinical "
    "BY Diagnosis.\"Diagnosis Group\" AS Code, Residence.Region",
    "SELECT COUNT FROM clinical WHERE "
    "PROB(Diagnosis.\"Diagnosis Family\" = 'F2') >= 0.5",
    "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Family\" "
    "ASOF 'NOW'",
    "SELECT COUNT FROM clinical",
    "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\" "
    "WHERE Diagnosis.\"Diagnosis Family\" = 'F0' OR Residence.Region = 'R0'",
};

TEST(CompiledDifferentialTest, ByteIdentityAcrossThreadCounts) {
  ClinicalMo clinical = BuildClinical(10000);
  Session compiled;
  ASSERT_TRUE(compiled.Register("clinical", clinical.mo).ok());
  Session interpreted;
  CompileOptions off;
  off.enable_compiler = false;
  interpreted.set_compile_options(off);
  ASSERT_TRUE(
      interpreted.Register("clinical", std::move(clinical.mo)).ok());

  for (const char* statement : kStatements) {
    ExecContext exec_interp(1, 4096);
    auto expected = interpreted.Execute(statement, &exec_interp);
    ASSERT_TRUE(expected.ok()) << statement << ": " << expected.status();
    const std::string want = expected->ToString();
    for (std::size_t threads : {1u, 2u, 8u}) {
      ExecContext exec(threads, /*min_facts=*/512);
      auto result = compiled.Execute(statement, &exec);
      ASSERT_TRUE(result.ok()) << statement << ": " << result.status();
      EXPECT_EQ(result->ToString(), want)
          << statement << " at " << threads << " threads";
    }
  }
}

TEST(CompiledDifferentialTest, RepeatedRunsAreStable) {
  ClinicalMo clinical = BuildClinical(2000);
  Session compiled;
  ASSERT_TRUE(compiled.Register("clinical", clinical.mo).ok());
  Session interpreted;
  CompileOptions off;
  off.enable_compiler = false;
  interpreted.set_compile_options(off);
  ASSERT_TRUE(
      interpreted.Register("clinical", std::move(clinical.mo)).ok());

  const std::string statement =
      "SELECT COUNT, COUNT(Diagnosis) FROM clinical "
      "BY Diagnosis.\"Diagnosis Family\" "
      "WHERE Diagnosis.\"Diagnosis Group\" = 'G0'";
  auto expected = interpreted.Execute(statement);
  ASSERT_TRUE(expected.ok()) << expected.status();
  const std::string want = expected->ToString();
  for (int rep = 0; rep < 50; ++rep) {
    ExecContext exec(8, /*min_facts=*/256);
    auto result = compiled.Execute(statement, &exec);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->ToString(), want) << "rep " << rep;
  }
}

TEST(CompiledDifferentialTest, FusedPipelinesActuallyRun) {
  ClinicalMo clinical = BuildClinical(1000);
  Session session;
  ASSERT_TRUE(session.Register("clinical", std::move(clinical.mo)).ok());
  ExecContext exec(2, 512);
  auto result = session.Execute(
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"", &exec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(exec.stats.fused_pipelines, 0u);
  EXPECT_GT(exec.stats.rewrites_applied, 0u);
  EXPECT_EQ(exec.stats.plan_fallbacks, 0u);
}

TEST(CompiledDifferentialTest, RuleAblationFallsBackAndStaysIdentical) {
  ClinicalMo clinical = BuildClinical(1000);
  Session interpreted;
  CompileOptions off;
  off.enable_compiler = false;
  interpreted.set_compile_options(off);
  ASSERT_TRUE(interpreted.Register("clinical", clinical.mo).ok());
  const std::string statement =
      "SELECT COUNT, COUNT(Diagnosis) FROM clinical "
      "BY Diagnosis.\"Diagnosis Group\"";
  auto expected = interpreted.Execute(statement);
  ASSERT_TRUE(expected.ok()) << expected.status();

  // Without hoist+merge the lowered per-aggregate branches never fuse
  // back together; without prune the dead Residence dimension blocks the
  // fused claim. Every ablation must fall back — and render identically.
  for (std::uint32_t mask :
       {kAllRules & ~(kRuleHoistTimeslice | kRuleMergeSiblingAggregates),
        kAllRules & ~kRulePruneDeadDimensions, std::uint32_t{0}}) {
    Session ablated;
    CompileOptions options;
    options.rewrites.rule_mask = mask;
    ablated.set_compile_options(options);
    ASSERT_TRUE(ablated.Register("clinical", clinical.mo).ok());
    ExecContext exec(1, 4096);
    auto result = ablated.Execute(statement, &exec);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->ToString(), expected->ToString()) << "mask " << mask;
    EXPECT_GT(exec.stats.plan_fallbacks, 0u) << "mask " << mask;
    EXPECT_EQ(exec.stats.fused_pipelines, 0u) << "mask " << mask;
  }

  // Fusion disabled: rewrites still run, execution falls back.
  Session unfused;
  CompileOptions options;
  options.enable_fusion = false;
  unfused.set_compile_options(options);
  ASSERT_TRUE(unfused.Register("clinical", std::move(clinical.mo)).ok());
  ExecContext exec(1, 4096);
  auto result = unfused.Execute(statement, &exec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ToString(), expected->ToString());
  EXPECT_GT(exec.stats.plan_fallbacks, 0u);
  EXPECT_GT(exec.stats.rewrites_applied, 0u);
}

TEST(CompiledDifferentialTest, ErrorMessageParity) {
  ClinicalMo clinical = BuildClinical(200);
  Session compiled;
  ASSERT_TRUE(compiled.Register("clinical", clinical.mo).ok());
  Session interpreted;
  CompileOptions off;
  off.enable_compiler = false;
  interpreted.set_compile_options(off);
  ASSERT_TRUE(
      interpreted.Register("clinical", std::move(clinical.mo)).ok());

  const char* bad[] = {
      "SELECT COUNT FROM clinical BY Nowhere.Level",
      "SELECT COUNT FROM clinical BY Diagnosis.\"No Such Category\"",
      "SELECT COUNT FROM clinical WHERE Nowhere.Level = 'x'",
      "SELECT SUM(Nowhere) FROM clinical",
      "SELECT COUNT FROM clinical ASOF '99/99/9999'",
      "SELECT COUNT FROM nowhere",
  };
  for (const char* statement : bad) {
    auto a = compiled.Execute(statement);
    auto b = interpreted.Execute(statement);
    ASSERT_FALSE(a.ok()) << statement;
    ASSERT_FALSE(b.ok()) << statement;
    EXPECT_EQ(a.status().message(), b.status().message()) << statement;
  }
}

// ---- EXPLAIN ----------------------------------------------------------

TEST(ExplainTest, RendersPlansRulesAndPhysicalChoice) {
  ClinicalMo clinical = BuildClinical(500);
  Session session;
  ASSERT_TRUE(session.Register("clinical", std::move(clinical.mo)).ok());
  auto result = session.Execute(
      "EXPLAIN SELECT COUNT, COUNT(Diagnosis) FROM clinical "
      "BY Diagnosis.\"Diagnosis Group\" "
      "WHERE Diagnosis.\"Diagnosis Family\" = 'F1' ASOF 'NOW'");
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string text = result->ToString();
  EXPECT_NE(text.find("logical plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("optimized plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("rewrites:"), std::string::npos) << text;
  EXPECT_NE(text.find("hoist-timeslice"), std::string::npos) << text;
  EXPECT_NE(text.find("merge-sibling-aggregates"), std::string::npos)
      << text;
  EXPECT_NE(text.find("physical:"), std::string::npos) << text;
  EXPECT_NE(text.find("fused"), std::string::npos) << text;
}

TEST(ExplainTest, NamesGatherColumnsAndValueMasks) {
  RetailMo retail = BuildRetail(300);
  Session session;
  ASSERT_TRUE(session.Register("retail", std::move(retail.mo)).ok());
  auto result = session.Execute(
      "EXPLAIN SELECT SUM(Amount), COUNT, MAX(Amount) FROM retail "
      "BY Store.City "
      "WHERE Store.Store = 'Store-1' AND Price >= 100 "
      "OR PROB(Store.Store = 'Store-2') >= 0.5");
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string text = result->ToString();
  // Both name and numeric atoms are decided per value; PROB runs per fact.
  EXPECT_NE(text.find("where: value masks [char(1,"), std::string::npos)
      << text;
  EXPECT_NE(text.find(", num(4 >= "), std::string::npos) << text;
  EXPECT_NE(text.find("], per fact [prob(1,"), std::string::npos) << text;
  EXPECT_NE(text.find("columns: live [Store] arguments [Amount]"),
            std::string::npos)
      << text;

  // The clinical Diagnosis hierarchy is non-strict and temporal: no flat
  // table, so its atoms run per fact and its facts are never gathered.
  ClinicalMo clinical = BuildClinical(200);
  ASSERT_TRUE(session.Register("clinical", std::move(clinical.mo)).ok());
  auto fallback = session.Execute(
      "EXPLAIN SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\" "
      "WHERE Diagnosis.\"Diagnosis Family\" = 'F1'");
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  const std::string fallback_text = fallback->ToString();
  EXPECT_NE(fallback_text.find("where: value masks [], per fact [char(0,"),
            std::string::npos)
      << fallback_text;
  EXPECT_NE(fallback_text.find("columns: live [] arguments []"),
            std::string::npos)
      << fallback_text;
}

TEST(ExplainTest, ExplainNeverExecutesOrMutates) {
  ClinicalMo clinical = BuildClinical(200);
  const std::size_t facts_before = clinical.mo.facts().size();
  Session session;
  ASSERT_TRUE(session.Register("clinical", clinical.mo).ok());

  auto insert = session.Execute(
      "EXPLAIN INSERT INTO clinical FACT 999999 "
      "(Diagnosis.\"Low-level Diagnosis\" = 'L0')");
  ASSERT_TRUE(insert.ok()) << insert.status();
  EXPECT_NE(insert->ToString().find("direct execution"), std::string::npos);
  auto mo = session.Get("clinical");
  ASSERT_TRUE(mo.ok());
  EXPECT_EQ((*mo)->facts().size(), facts_before);

  // EXPLAIN SELECT leaves the execution counters untouched.
  ExecContext exec(1, 4096);
  auto select = session.Execute(
      "EXPLAIN SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
      &exec);
  ASSERT_TRUE(select.ok()) << select.status();
  EXPECT_EQ(exec.stats.fused_pipelines, 0u);
  EXPECT_EQ(exec.stats.plan_fallbacks, 0u);
  EXPECT_EQ(exec.stats.rewrites_applied, 0u);
}

TEST(ExplainTest, FallbackShapeSaysWhy) {
  ClinicalMo clinical = BuildClinical(200);
  Session session;
  CompileOptions options;
  options.rewrites.rule_mask = 0;  // nothing fires; merge stays multi-child
  session.set_compile_options(options);
  ASSERT_TRUE(session.Register("clinical", std::move(clinical.mo)).ok());
  auto result = session.Execute(
      "EXPLAIN SELECT COUNT, COUNT(Diagnosis) FROM clinical "
      "BY Diagnosis.\"Diagnosis Group\"");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->ToString().find("tree-walk fallback"),
            std::string::npos)
      << result->ToString();
}

}  // namespace
}  // namespace mdql
}  // namespace mddc
