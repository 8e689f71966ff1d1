#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "fixtures.h"
#include "workload/clinical_generator.h"

namespace mddc {
namespace {

using testing_fixtures::BuildDiagnosisDimension;
using testing_fixtures::BuildPatientDiagnosisMo;
using testing_fixtures::Day;
using testing_fixtures::During;

TEST(MdObjectTest, SchemaDerivedFromDimensions) {
  MdObject mo = BuildPatientDiagnosisMo();
  EXPECT_EQ(mo.schema().fact_type(), "Patient");
  EXPECT_EQ(mo.dimension_count(), 1u);
  EXPECT_EQ(mo.dimension(0).name(), "Diagnosis");
  auto index = mo.FindDimension("Diagnosis");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 0u);
  EXPECT_FALSE(mo.FindDimension("Nope").ok());
}

TEST(MdObjectTest, FactSetIsSortedAndDeduplicated) {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  FactId p2 = registry->Atom(2);
  FactId p1 = registry->Atom(1);
  ASSERT_TRUE(mo.AddFact(p2).ok());
  ASSERT_TRUE(mo.AddFact(p1).ok());
  ASSERT_TRUE(mo.AddFact(p2).ok());  // idempotent
  ASSERT_EQ(mo.fact_count(), 2u);
  EXPECT_LT(mo.facts()[0], mo.facts()[1]);
  EXPECT_TRUE(mo.HasFact(p1));
}

TEST(MdObjectTest, RelateValidatesFactAndValue) {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  FactId p1 = registry->Atom(1);
  // Fact not yet added.
  EXPECT_EQ(mo.Relate(0, p1, ValueId(9)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(mo.AddFact(p1).ok());
  // Unknown value.
  EXPECT_EQ(mo.Relate(0, p1, ValueId(999)).code(), StatusCode::kNotFound);
  // Unknown dimension.
  EXPECT_EQ(mo.Relate(7, p1, ValueId(9)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(mo.Relate(0, p1, ValueId(9)).ok());
}

TEST(MdObjectTest, MixedGranularityFactsAreAllowed) {
  // Fact 1 is related to value 9, a Diagnosis *Family* — not a bottom
  // value. This is requirement 9 (different levels of granularity),
  // which the surveyed models cannot express.
  MdObject mo = BuildPatientDiagnosisMo();
  FactId p1 = mo.registry()->Atom(1);
  auto pairs = mo.relation(0).ForFact(p1);
  ASSERT_EQ(pairs.size(), 1u);
  auto category = mo.dimension(0).CategoryOf(pairs[0]->value);
  ASSERT_TRUE(category.ok());
  EXPECT_EQ(mo.dimension(0).type().category(*category).name,
            "Diagnosis Family");
}

TEST(MdObjectTest, CharacterizationFollowsContainment) {
  MdObject mo = BuildPatientDiagnosisMo();
  FactId p1 = mo.registry()->Atom(1);
  // Patient 1 has diagnosis 9 (family), so it is characterized by 9,
  // group 11 and top — at times when both the Has pair and the grouping
  // edge hold.
  std::vector<std::uint64_t> values;
  for (const auto& c : mo.CharacterizedBy(p1, 0)) {
    if (c.value != mo.dimension(0).top_value()) {
      values.push_back(c.value.raw());
    }
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::uint64_t>{9, 11}));
}

TEST(MdObjectTest, CharacterizationSpanIntersectsRelationAndOrder) {
  MdObject mo = BuildPatientDiagnosisMo();
  FactId p2 = mo.registry()->Atom(2);
  // (2,8) holds [01/01/70-31/12/81]; 8 <= 11 holds [01/01/80-NOW]. So
  // patient 2 is characterized by group 11 via 8 during [80-81] — and via
  // 9 during [82-NOW].
  Lifespan span = mo.CharacterizationSpan(p2, 0, ValueId(11));
  EXPECT_TRUE(span.valid.Contains(Day("15/06/80")));
  EXPECT_TRUE(span.valid.Contains(Day("15/06/85")));
  EXPECT_FALSE(span.valid.Contains(Day("15/06/75")));
}

TEST(MdObjectTest, FactsCharacterizedByGroup) {
  MdObject mo = BuildPatientDiagnosisMo();
  // Both patients fall in group 11 (Example 12's {1,2}).
  auto facts11 = mo.FactsWith(0, ValueId(11));
  EXPECT_EQ(facts11.size(), 2u);
  // Only patient 2 falls in group 12 (via 3 <= 7 <= ... no; via
  // 5 <= 4 <= 12).
  auto facts12 = mo.FactsWith(0, ValueId(12));
  ASSERT_EQ(facts12.size(), 1u);
  EXPECT_EQ(facts12[0].first, mo.registry()->Atom(2));
}

TEST(MdObjectTest, FactsWithMatchesPerFactCharacterizationOnClinical) {
  // A generated clinical MO: non-strict and reclassified (temporal)
  // Diagnosis edges, uncertain pairs, diagnoses at two granularities and
  // relocations, so facts reach a value through several witnesses.
  ClinicalWorkloadParams params;
  params.seed = 11;
  params.num_patients = 150;
  params.uncertain_rate = 0.3;
  auto clinical =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(clinical.ok()) << clinical.status();
  const MdObject& mo = clinical->mo;

  std::size_t uncertain = 0;
  std::size_t temporal = 0;
  std::size_t several_witnesses = 0;
  for (std::size_t dim = 0; dim < mo.dimension_count(); ++dim) {
    SCOPED_TRACE(StrCat("dimension ", mo.dimension(dim).name()));
    const Dimension& dimension = mo.dimension(dim);
    const FactDimRelation& relation = mo.relation(dim);
    for (const FactDimRelation::Entry& entry : relation.entries()) {
      uncertain += entry.prob < 1.0 ? 1 : 0;
      temporal += entry.life.IsAlways() ? 0 : 1;
    }
    // The oracle: f ~> v read off each fact's own characterization.
    using Witnessed = std::pair<FactId, MdObject::Characterization>;
    std::map<ValueId, std::vector<Witnessed>> by_value;
    for (FactId fact : mo.facts()) {
      for (const MdObject::Characterization& c :
           mo.CharacterizedBy(fact, dim)) {
        by_value[c.value].emplace_back(fact, c);
      }
    }
    for (ValueId value : dimension.AllValues()) {
      // Top characterizes every fact unconditionally in CharacterizedBy;
      // FactsWith derives it from the pairs like any other value.
      if (value == dimension.top_value()) continue;
      const auto actual = mo.FactsWith(dim, value);
      const auto& expected = by_value[value];
      ASSERT_EQ(actual.size(), expected.size()) << "value " << value;
      for (std::size_t k = 0; k < actual.size(); ++k) {
        EXPECT_EQ(actual[k].first, expected[k].first) << "value " << value;
        EXPECT_EQ(actual[k].second.value, value);
        EXPECT_EQ(actual[k].second.life, expected[k].second.life)
            << "value " << value << ", fact " << actual[k].first;
        EXPECT_NEAR(actual[k].second.prob, expected[k].second.prob, 1e-12)
            << "value " << value << ", fact " << actual[k].first;
      }

      // Bit for bit: the witnesses combine as the per-value walk did —
      // the value's own pairs, then each descendant's, each in entry
      // order — so the first witness and the noisy-or order hold.
      std::map<FactId, MdObject::Characterization> walked;
      std::map<FactId, std::size_t> witnesses;
      auto visit = [&](ValueId from, const Lifespan& containment,
                       double contain_prob) {
        for (const FactDimRelation::Entry& entry : relation.entries()) {
          if (entry.value != from) continue;
          const Lifespan life = entry.life.Intersect(containment);
          if (life.Empty()) continue;
          const double prob = entry.prob * contain_prob;
          ++witnesses[entry.fact];
          auto [it, inserted] = walked.try_emplace(
              entry.fact,
              MdObject::Characterization{entry.value, value, life, prob});
          if (!inserted) {
            it->second.life = it->second.life.Union(life);
            it->second.prob = 1.0 - (1.0 - it->second.prob) * (1.0 - prob);
          }
        }
      };
      visit(value, Lifespan::AlwaysSpan(), 1.0);
      for (const Dimension::Containment& d : dimension.Descendants(value)) {
        visit(d.value, d.life, d.prob);
      }
      ASSERT_EQ(actual.size(), walked.size()) << "value " << value;
      std::size_t k = 0;
      for (const auto& [fact, c] : walked) {
        EXPECT_EQ(actual[k].first, fact);
        EXPECT_EQ(actual[k].second.base, c.base) << "value " << value;
        EXPECT_EQ(actual[k].second.life, c.life) << "value " << value;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[k].second.prob),
                  std::bit_cast<std::uint64_t>(c.prob))
            << "value " << value << ", fact " << fact;
        several_witnesses += witnesses[fact] > 1 ? 1 : 0;
        ++k;
      }
    }
  }
  // The shapes the differential is for did occur.
  EXPECT_GT(uncertain, 0u);
  EXPECT_GT(temporal, 0u);
  EXPECT_GT(several_witnesses, 0u);
}

TEST(MdObjectTest, MultipleWitnessesUnionLifespans) {
  MdObject mo = BuildPatientDiagnosisMo();
  FactId p2 = mo.registry()->Atom(2);
  // Patient 2 reaches family 9 directly ([82-NOW]) and via 5 <= 9 during
  // [82-30/09/82]; the union is [82-NOW].
  Lifespan span = mo.CharacterizationSpan(p2, 0, ValueId(9));
  EXPECT_TRUE(span.valid.Contains(Day("01/02/82")));
  EXPECT_TRUE(span.valid.Contains(Day("01/01/99")));
}

TEST(MdObjectTest, ValidateDetectsUncoveredFact) {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  FactId p1 = registry->Atom(1);
  ASSERT_TRUE(mo.AddFact(p1).ok());
  // No pair in the Diagnosis relation: the paper forbids missing values.
  EXPECT_EQ(mo.Validate().code(), StatusCode::kInvariantViolation);
  ASSERT_TRUE(mo.CoverWithTop().ok());
  EXPECT_TRUE(mo.Validate().ok());
  // The cover uses the top value.
  auto pairs = mo.relation(0).ForFact(p1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0]->value, mo.dimension(0).top_value());
}

TEST(MdObjectTest, ValidateAcceptsCaseStudyMo) {
  MdObject mo = BuildPatientDiagnosisMo();
  EXPECT_TRUE(mo.Validate().ok());
}

TEST(MdObjectTest, ProbabilisticCharacterization) {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  FactId p1 = registry->Atom(1);
  ASSERT_TRUE(mo.AddFact(p1).ok());
  // The physician is only 90% certain of diagnosis 5 (requirement 8).
  ASSERT_TRUE(mo.Relate(0, p1, ValueId(5), During("[01/01/85-NOW]"), 0.9).ok());
  for (const auto& c : mo.CharacterizedBy(p1, 0)) {
    if (c.value == ValueId(5)) {
      EXPECT_DOUBLE_EQ(c.prob, 0.9);
    }
    // Containment 5 <= 9 is certain, so the derived characterization by 9
    // carries probability 0.9 as well.
    if (c.value == ValueId(9)) {
      EXPECT_DOUBLE_EQ(c.prob, 0.9);
    }
    if (c.value == mo.dimension(0).top_value()) {
      EXPECT_DOUBLE_EQ(c.prob, 1.0);
    }
  }
}

TEST(MdObjectTest, ToStringMentionsFactsAndRelations) {
  MdObject mo = BuildPatientDiagnosisMo();
  std::string out = mo.ToString();
  EXPECT_NE(out.find("Patient"), std::string::npos);
  EXPECT_NE(out.find("R[Diagnosis]"), std::string::npos);
}

TEST(MoFamilyTest, AddAndLookup) {
  MoFamily family;
  ASSERT_TRUE(family.Add("patients", BuildPatientDiagnosisMo()).ok());
  EXPECT_FALSE(family.Add("patients", BuildPatientDiagnosisMo()).ok());
  EXPECT_TRUE(family.Get("patients").ok());
  EXPECT_FALSE(family.Get("other").ok());
  EXPECT_EQ(family.names().size(), 1u);
}

TEST(MoFamilyTest, DetectsSharedSubdimension) {
  MoFamily family;
  ASSERT_TRUE(family.Add("a", BuildPatientDiagnosisMo()).ok());
  ASSERT_TRUE(family.Add("b", BuildPatientDiagnosisMo()).ok());
  auto shared = family.SharesSubdimension("a", 0, "b", 0);
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(*shared);
}

TEST(MoFamilyTest, DetectsDivergedDimension) {
  MoFamily family;
  ASSERT_TRUE(family.Add("a", BuildPatientDiagnosisMo()).ok());
  MdObject b = BuildPatientDiagnosisMo();
  CategoryTypeIndex low = *b.dimension(0).type().Find("Low-level Diagnosis");
  ASSERT_TRUE(b.dimension_mutable(0).AddValue(low, ValueId(100)).ok());
  ASSERT_TRUE(family.Add("b", std::move(b)).ok());
  auto shared = family.SharesSubdimension("a", 0, "b", 0);
  ASSERT_TRUE(shared.ok());
  EXPECT_FALSE(*shared);
}

}  // namespace
}  // namespace mddc
