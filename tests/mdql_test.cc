#include <gtest/gtest.h>

#include "common/strings.h"
#include "engine/executor.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "mdql/token.h"
#include "workload/case_study.h"
#include "workload/retail_generator.h"

namespace mddc {
namespace mdql {
namespace {

TEST(MdqlTokenTest, TokenizesOperatorsAndLiterals) {
  auto tokens = Tokenize("SELECT COUNT FROM m WHERE a.b = 'x' AND v >= 3.5");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& token : *tokens) kinds.push_back(token.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kSelect, TokenKind::kCount, TokenKind::kFrom,
                TokenKind::kIdentifier, TokenKind::kWhere,
                TokenKind::kIdentifier, TokenKind::kDot,
                TokenKind::kIdentifier, TokenKind::kEq, TokenKind::kString,
                TokenKind::kAnd, TokenKind::kIdentifier, TokenKind::kGe,
                TokenKind::kNumber, TokenKind::kEnd}));
}

TEST(MdqlTokenTest, QuotedIdentifiersAndCaseInsensitiveKeywords) {
  auto tokens = Tokenize("select count from \"My Cube\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSelect);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[3].text, "My Cube");
}

TEST(MdqlTokenTest, RejectsBadInput) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
}

TEST(MdqlParserTest, FullSelect) {
  auto statement = Parse(
      "SELECT COUNT, SUM(Amount) FROM sales "
      "BY Product.Category AS Name, Store.Region "
      "WHERE Product.Category = 'fruit' AND Amount >= 2 "
      "ASOF '01/06/1999'");
  ASSERT_TRUE(statement.ok()) << statement.status();
  ASSERT_TRUE(statement->select.has_value());
  const SelectStatement& select = *statement->select;
  ASSERT_EQ(select.aggregates.size(), 2u);
  EXPECT_EQ(select.aggregates[0].fn, AggRef::Fn::kSetCount);
  EXPECT_EQ(select.aggregates[1].fn, AggRef::Fn::kSum);
  EXPECT_EQ(select.aggregates[1].dimension, "Amount");
  ASSERT_EQ(select.group_by.size(), 2u);
  EXPECT_EQ(select.group_by[0].representation, "Name");
  EXPECT_TRUE(select.group_by[1].representation.empty());
  ASSERT_NE(select.where, nullptr);
  // "a AND b" parses to an AND node over the two atoms.
  ASSERT_EQ(select.where->kind, WhereExpr::Kind::kAnd);
  EXPECT_EQ(select.where->left->atom.kind, WhereAtom::Kind::kNameEquals);
  EXPECT_EQ(select.where->right->atom.kind,
            WhereAtom::Kind::kNumericCompare);
  ASSERT_TRUE(select.as_of.has_value());
  EXPECT_EQ(*select.as_of, "01/06/1999");
}

TEST(MdqlParserTest, ProbAtom) {
  auto statement = Parse(
      "SELECT COUNT FROM patients "
      "WHERE PROB(Diagnosis.Family = 'E10') >= 0.8");
  ASSERT_TRUE(statement.ok()) << statement.status();
  ASSERT_NE(statement->select->where, nullptr);
  ASSERT_EQ(statement->select->where->kind, WhereExpr::Kind::kAtom);
  const WhereAtom& atom = statement->select->where->atom;
  EXPECT_EQ(atom.kind, WhereAtom::Kind::kProbAtLeast);
  EXPECT_EQ(atom.text, "E10");
  EXPECT_DOUBLE_EQ(atom.number, 0.8);
}

TEST(MdqlParserTest, OrAndPrecedenceAndParens) {
  // a AND b OR c parses as (a AND b) OR c.
  auto statement = Parse(
      "SELECT COUNT FROM m WHERE x.y = 'a' AND x.y = 'b' OR x.y = 'c'");
  ASSERT_TRUE(statement.ok()) << statement.status();
  const WhereExpr& root = *statement->select->where;
  ASSERT_EQ(root.kind, WhereExpr::Kind::kOr);
  EXPECT_EQ(root.left->kind, WhereExpr::Kind::kAnd);
  EXPECT_EQ(root.right->kind, WhereExpr::Kind::kAtom);

  // Parentheses override: a AND (b OR c).
  auto grouped = Parse(
      "SELECT COUNT FROM m WHERE x.y = 'a' AND (x.y = 'b' OR x.y = 'c')");
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  const WhereExpr& groot = *grouped->select->where;
  ASSERT_EQ(groot.kind, WhereExpr::Kind::kAnd);
  EXPECT_EQ(groot.right->kind, WhereExpr::Kind::kOr);

  EXPECT_FALSE(Parse("SELECT COUNT FROM m WHERE (x.y = 'a'").ok());
}

TEST(MdqlParserTest, ShowStatements) {
  auto dims = Parse("SHOW DIMENSIONS FROM patients");
  ASSERT_TRUE(dims.ok());
  ASSERT_TRUE(dims->show.has_value());
  EXPECT_EQ(dims->show->what, ShowStatement::What::kDimensions);

  auto hierarchy = Parse("SHOW HIERARCHY Diagnosis FROM patients");
  ASSERT_TRUE(hierarchy.ok());
  EXPECT_EQ(hierarchy->show->what, ShowStatement::What::kHierarchy);
  EXPECT_EQ(hierarchy->show->dimension, "Diagnosis");
}

TEST(MdqlParserTest, InsertStatement) {
  auto statement = Parse(
      "INSERT INTO patients FACT 42 "
      "(Residence.City = 'Aalborg', Diagnosis.Family = 'E10' PROB 0.8)");
  ASSERT_TRUE(statement.ok()) << statement.status();
  ASSERT_TRUE(statement->insert.has_value());
  const InsertStatement& insert = *statement->insert;
  EXPECT_EQ(insert.mo_name, "patients");
  ASSERT_EQ(insert.facts.size(), 1u);
  EXPECT_EQ(insert.facts[0].key, 42u);
  const auto& assignments = insert.facts[0].assignments;
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].level.dimension, "Residence");
  EXPECT_EQ(assignments[0].level.category, "City");
  EXPECT_EQ(assignments[0].text, "Aalborg");
  EXPECT_DOUBLE_EQ(assignments[0].prob, 1.0);
  EXPECT_EQ(assignments[1].text, "E10");
  EXPECT_DOUBLE_EQ(assignments[1].prob, 0.8);

  auto bulk = Parse(
      "INSERT INTO patients FACT 43 (Residence.City = 'Aalborg'), "
      "FACT 44 (Diagnosis.Family = 'E10' PROB 0.5)");
  ASSERT_TRUE(bulk.ok()) << bulk.status();
  ASSERT_TRUE(bulk->insert.has_value());
  ASSERT_EQ(bulk->insert->facts.size(), 2u);
  EXPECT_EQ(bulk->insert->facts[0].key, 43u);
  EXPECT_EQ(bulk->insert->facts[1].key, 44u);
  ASSERT_EQ(bulk->insert->facts[1].assignments.size(), 1u);
  EXPECT_DOUBLE_EQ(bulk->insert->facts[1].assignments[0].prob, 0.5);

  auto del = Parse("DELETE FROM patients FACT 42");
  ASSERT_TRUE(del.ok()) << del.status();
  ASSERT_TRUE(del->del.has_value());
  EXPECT_EQ(del->del->mo_name, "patients");
  EXPECT_EQ(del->del->key, 42u);
  EXPECT_TRUE(IsMutating(*del));
  EXPECT_EQ(StatementMoName(*del), "patients");

  EXPECT_TRUE(IsMutating(*statement));
  EXPECT_EQ(StatementMoName(*statement), "patients");
  auto select = Parse("SELECT COUNT FROM m");
  ASSERT_TRUE(select.ok());
  EXPECT_FALSE(IsMutating(*select));
}

TEST(MdqlParserTest, InsertErrors) {
  EXPECT_FALSE(Parse("INSERT patients FACT 1 (A.B = 'x')").ok());
  EXPECT_FALSE(Parse("INSERT INTO patients FACT (A.B = 'x')").ok());
  EXPECT_FALSE(Parse("INSERT INTO patients FACT 1.5 (A.B = 'x')").ok());
  EXPECT_FALSE(Parse("INSERT INTO patients FACT -3 (A.B = 'x')").ok());
  EXPECT_FALSE(Parse("INSERT INTO patients FACT 1 ()").ok());
  EXPECT_FALSE(Parse("INSERT INTO patients FACT 1 (A.B = 3)").ok());
  EXPECT_FALSE(Parse("INSERT INTO patients FACT 1 (A.B = 'x' PROB)").ok());
  EXPECT_FALSE(Parse("INSERT INTO patients FACT 1 (A.B = 'x'").ok());
}

TEST(MdqlParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT FROM m").ok());
  EXPECT_FALSE(Parse("SELECT COUNT").ok());
  EXPECT_FALSE(Parse("SELECT COUNT FROM m trailing").ok());
  EXPECT_FALSE(Parse("SELECT FOO(x) FROM m").ok());
  EXPECT_FALSE(Parse("SHOW SOMETHING FROM m").ok());
  EXPECT_FALSE(Parse("DELETE FROM m").ok());
}

TEST(MdqlParserTest, WhereNestingIsBounded) {
  auto nested = [](std::size_t depth) {
    return StrCat("SELECT COUNT FROM m WHERE ", std::string(depth, '('),
                  "Name.Name = 'x'", std::string(depth, ')'));
  };
  auto deepest = Parse(nested(kMaxWhereNesting));
  ASSERT_TRUE(deepest.ok()) << deepest.status();
  EXPECT_EQ(deepest->select->where->kind, WhereExpr::Kind::kAtom);
  EXPECT_EQ(Parse(nested(kMaxWhereNesting + 1)).status().code(),
            StatusCode::kInvalidArgument);
  // Deep enough to overflow an 8 MB stack without the bound.
  auto hostile = Parse(nested(10000));
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(hostile.status().message().find("nests"), std::string::npos)
      << hostile.status();
}

class MdqlSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cs = BuildCaseStudy();
    ASSERT_TRUE(cs.ok());
    ASSERT_TRUE(session_.Register("patients", cs->mo).ok());
    RetailWorkloadParams params;
    params.num_purchases = 500;
    auto retail =
        GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
    ASSERT_TRUE(retail.ok());
    ASSERT_TRUE(session_.Register("sales", retail->mo).ok());
  }

  Session session_;
};

TEST_F(MdqlSessionTest, CountByDiagnosisGroup) {
  auto result = session_.Execute(
      "SELECT COUNT FROM patients BY Diagnosis.\"Diagnosis Group\" AS Code");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  // Sorted by label: E1 (group 11) then O2 (group 12).
  EXPECT_EQ(result->rows[0][0], "E1");
  EXPECT_EQ(result->rows[0][1], "2");
  EXPECT_EQ(result->rows[1][0], "O2");
  EXPECT_EQ(result->rows[1][1], "1");
}

TEST_F(MdqlSessionTest, WhereByName) {
  auto result = session_.Execute(
      "SELECT COUNT FROM patients WHERE Name.Name = 'Jane Doe'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "1");
}

TEST_F(MdqlSessionTest, UnknownNameYieldsEmptyResult) {
  auto result = session_.Execute(
      "SELECT COUNT FROM patients WHERE Name.Name = 'Nobody'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(MdqlSessionTest, NumericWhere) {
  auto result =
      session_.Execute("SELECT COUNT FROM patients WHERE Age >= 40");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "1");  // only Jane (48)
}

TEST_F(MdqlSessionTest, AsOfTimeslice) {
  // In 1975 only patient 2 had diagnoses.
  auto result = session_.Execute(
      "SELECT COUNT FROM patients ASOF '15/06/1975'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "1");
}

TEST_F(MdqlSessionTest, AsOfNowSlicesAtTheNowSentinel) {
  // ASOF 'NOW' is the current state: deterministic (no clock read),
  // keeping exactly the characterizations whose valid time runs to NOW.
  auto now = session_.Execute("SELECT COUNT FROM patients ASOF 'NOW'");
  ASSERT_TRUE(now.ok()) << now.status();
  ASSERT_EQ(now->rows.size(), 1u);
  // Some 1975-era diagnoses ended at concrete chronons, so the current
  // state differs from the 1975 slice above.
  auto past = session_.Execute(
      "SELECT COUNT FROM patients ASOF '15/06/1975'");
  ASSERT_TRUE(past.ok()) << past.status();
  EXPECT_NE(now->rows[0][0], past->rows[0][0]);
  // Anything else that is not a date still fails to parse.
  EXPECT_FALSE(session_.Execute(
                           "SELECT COUNT FROM patients ASOF 'SOON'")
                   .ok());
}

TEST_F(MdqlSessionTest, OrPredicateExecutes) {
  auto result = session_.Execute(
      "SELECT COUNT FROM patients "
      "WHERE Name.Name = 'Jane Doe' OR Name.Name = 'John Doe'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "2");

  // Unknown names inside an OR do not kill the whole predicate.
  auto partial = session_.Execute(
      "SELECT COUNT FROM patients "
      "WHERE Name.Name = 'Nobody' OR Name.Name = 'Jane Doe'");
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_EQ(partial->rows.size(), 1u);
  EXPECT_EQ(partial->rows[0][0], "1");
}

TEST_F(MdqlSessionTest, ParenthesizedWhereExecutes) {
  auto result = session_.Execute(
      "SELECT COUNT FROM patients "
      "WHERE Age >= 40 AND (Name.Name = 'Jane Doe' OR Name.Name = 'John "
      "Doe')");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "1");  // only Jane is >= 40
}

TEST_F(MdqlSessionTest, MultipleAggregatesMerge) {
  auto result = session_.Execute(
      "SELECT COUNT, SUM(Amount), AVG(Price) FROM sales "
      "BY Product.Department");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->columns.size(), 4u);
  EXPECT_EQ(result->columns[1], "COUNT");
  EXPECT_EQ(result->columns[2], "SUM(Amount)");
  ASSERT_EQ(result->rows.size(), 3u);  // three departments
  for (const auto& row : result->rows) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_NE(row[1], "-");
    EXPECT_NE(row[2], "-");
    EXPECT_NE(row[3], "-");
  }
}

TEST_F(MdqlSessionTest, ParallelContextRendersIdenticalResults) {
  // The exec context reaches the ASOF timeslice and the BY aggregate
  // formation; the rendered table must not depend on it.
  const std::vector<std::string> queries = {
      "SELECT SUM(Amount), AVG(Price) FROM sales BY Product.Category",
      "SELECT COUNT FROM sales BY Store.Region",
      "SELECT COUNT FROM patients ASOF '15/06/1975'",
  };
  for (const std::string& query : queries) {
    auto sequential = session_.Execute(query);
    ASSERT_TRUE(sequential.ok()) << query << ": " << sequential.status();
    ExecContext ctx(8, /*min_facts=*/1);
    auto parallel = session_.Execute(query, &ctx);
    ASSERT_TRUE(parallel.ok()) << query << ": " << parallel.status();
    EXPECT_EQ(parallel->ToString(), sequential->ToString()) << query;
  }
}

TEST_F(MdqlSessionTest, ParallelContextCountersAdvance) {
  // Retail is strict, so the BY aggregate really runs on the engine.
  ExecContext ctx(4, /*min_facts=*/1);
  auto result = session_.Execute(
      "SELECT SUM(Amount) FROM sales BY Product.Category", &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(ctx.stats.parallel_runs, 1u);
}

TEST_F(MdqlSessionTest, IllegalAggregationSurfaces) {
  auto result =
      session_.Execute("SELECT SUM(Diagnosis) FROM patients");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIllegalAggregation);
}

TEST_F(MdqlSessionTest, ShowDimensions) {
  auto result = session_.Execute("SHOW DIMENSIONS FROM patients");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 6u);
  std::string rendered = result->ToString();
  EXPECT_NE(rendered.find("Diagnosis"), std::string::npos);
  EXPECT_NE(rendered.find("Age"), std::string::npos);
}

TEST_F(MdqlSessionTest, ShowHierarchy) {
  auto result = session_.Execute("SHOW HIERARCHY Diagnosis FROM patients");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 4u);  // 3 levels + TOP
  EXPECT_EQ(result->rows[0][0], "Low-level Diagnosis");
  EXPECT_EQ(result->rows[0][2], "Diagnosis Family");
}

TEST_F(MdqlSessionTest, ShowPathsListsBothDobHierarchies) {
  auto result =
      session_.Execute("SHOW PATHS \"Date of Birth\" FROM patients");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  std::vector<std::string> paths = {result->rows[0][0],
                                    result->rows[1][0]};
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths[0], "Day < Month < Quarter < Year < Decade < TOP");
  EXPECT_EQ(paths[1], "Day < Week < TOP");

  auto single = session_.Execute("SHOW PATHS Diagnosis FROM patients");
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->rows.size(), 1u);
  EXPECT_EQ(single->rows[0][0],
            "Low-level Diagnosis < Diagnosis Family < Diagnosis Group < "
            "TOP");
}

TEST_F(MdqlSessionTest, UnknownMoAndDimension) {
  EXPECT_EQ(session_.Execute("SELECT COUNT FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(
      session_.Execute("SHOW HIERARCHY Nope FROM patients").ok());
  EXPECT_FALSE(session_.Execute("SELECT SUM(Nope) FROM sales").ok());
}

TEST_F(MdqlSessionTest, RegisterRejectsDuplicates) {
  auto cs = BuildCaseStudy();
  ASSERT_TRUE(cs.ok());
  EXPECT_FALSE(session_.Register("patients", cs->mo).ok());
  EXPECT_EQ(session_.names().size(), 2u);
}

TEST_F(MdqlSessionTest, InsertThenSelectSeesTheNewFact) {
  auto before = session_.Execute(
      "SELECT COUNT FROM patients WHERE Name.Name = 'Jane Doe'");
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->rows[0][0], "1");

  auto ack = session_.Execute(
      "INSERT INTO patients FACT 42 (Name.Name = 'Jane Doe')");
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_EQ(ack->rows.size(), 1u);
  EXPECT_EQ(ack->columns[0], "inserted");
  EXPECT_EQ(ack->rows[0][0], "1");

  auto after = session_.Execute(
      "SELECT COUNT FROM patients WHERE Name.Name = 'Jane Doe'");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->rows[0][0], "2");
}

TEST_F(MdqlSessionTest, InsertResolvesNamesBeforeMutating) {
  auto count = [&] {
    auto result = session_.Execute("SELECT COUNT FROM patients");
    EXPECT_TRUE(result.ok());
    return result->rows[0][0];
  };
  const std::string before = count();
  // The second assignment fails to resolve; the first must not have
  // been applied.
  auto result = session_.Execute(
      "INSERT INTO patients FACT 43 "
      "(Name.Name = 'Jane Doe', Name.Name = 'No Such Person')");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(count(), before);
  // Out-of-range probabilities are rejected too.
  EXPECT_FALSE(session_
                   .Execute("INSERT INTO patients FACT 43 "
                            "(Name.Name = 'Jane Doe' PROB 2)")
                   .ok());
  EXPECT_EQ(count(), before);
}

TEST_F(MdqlSessionTest, TreeWalkReadsLeaveTheRegistryUnchanged) {
  // The interpreter's formation interns set facts into a private fork,
  // so reads leave the registered MO's registry as they found it.
  CompileOptions interpreted;
  interpreted.enable_compiler = false;
  session_.set_compile_options(interpreted);
  auto sales = session_.Get("sales");
  ASSERT_TRUE(sales.ok());
  const std::size_t before = (*sales)->registry()->size();
  for (const char* query :
       {"SELECT COUNT, SUM(Amount) FROM sales BY Product.Category",
        "SELECT MAX(Price) FROM sales BY Store.Region, Product.Department",
        "SELECT COUNT FROM sales BY Product.TOP"}) {
    auto result = session_.Execute(query);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status();
    EXPECT_FALSE(result->rows.empty()) << query;
  }
  EXPECT_EQ((*sales)->registry()->size(), before);
}

TEST_F(MdqlSessionTest, ProbabilityThreshold) {
  // Build a small uncertain MO inline.
  auto cs = BuildCaseStudy();
  ASSERT_TRUE(cs.ok());
  MdObject cohort("Patient", {cs->mo.dimension(cs->diagnosis)}, cs->registry,
                  TemporalType::kSnapshot);
  FactId sure = cs->registry->Atom(50);
  FactId unsure = cs->registry->Atom(51);
  ASSERT_TRUE(cohort.AddFact(sure).ok());
  ASSERT_TRUE(cohort.AddFact(unsure).ok());
  ASSERT_TRUE(cohort.Relate(0, sure, ValueId(9)).ok());
  ASSERT_TRUE(
      cohort.Relate(0, unsure, ValueId(9), Lifespan::AlwaysSpan(), 0.6)
          .ok());
  ASSERT_TRUE(session_.Register("cohort", std::move(cohort)).ok());
  auto result = session_.Execute(
      "SELECT COUNT FROM cohort "
      "WHERE PROB(Diagnosis.\"Diagnosis Family\" = 'E10') >= 0.9");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "1");
}

}  // namespace
}  // namespace mdql
}  // namespace mddc
