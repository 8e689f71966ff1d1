#include "reference/aggregate_reference.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "algebra/predicate.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "engine/executor.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// The reference differential: the production AggregateFormation (one
// group-by scan, dense slots or flat hash, rollup-index lookups, the
// partitioned parallel path) against the executable specification in
// tests/reference/ — byte-identical results, or identical Status text,
// at 1, 2 and 8 threads. The cases cover the request shapes the other
// engine differentials do not: explicit result dimensions, expected
// counts, unenforced aggregation types, out-of-range argument
// dimensions, and the stress mix's reads (the non-strict temporal
// Diagnosis hierarchy, MOs cut by ValidTimeslice, Select with PROB
// predicates, two-dimension star groupings).

namespace mddc {
namespace {

using testing_fixtures::BuildDiagnosisDimension;

std::string Outcome(const Result<MdObject>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  auto bytes = io::WriteMo(*result);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

/// Asserts the scan reproduces the reference — bytes on success, Status
/// text on failure — at every thread count.
void ExpectMatchesReference(const MdObject& mo, const AggregateSpec& spec,
                            const std::string& context) {
  const std::string expected = Outcome(reference::AggregateFormation(mo, spec));
  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    EXPECT_EQ(Outcome(AggregateFormation(mo, spec, &ctx)), expected)
        << context << " (" << spec.function.name() << ") at " << threads
        << " threads";
  }
  EXPECT_EQ(Outcome(AggregateFormation(mo, spec)), expected)
      << context << " without a context";
}

std::vector<CategoryTypeIndex> GroupingAt(const MdObject& mo, std::size_t dim,
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

ClinicalMo BuildClinical() {
  ClinicalWorkloadParams params;
  params.seed = 11;
  params.num_patients = 160;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

RetailMo BuildRetail() {
  RetailWorkloadParams params;
  params.seed = 3;
  params.num_purchases = 250;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

TEST(ReferenceDifferentialTest, Figure3ExplicitResultDimension) {
  // Example 12's snapshot MO under Figure 3's Count < Range result
  // dimension, as in AggregateFormationTest.Figure3ExplicitResultDimension.
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  const FactId p1 = registry->Atom(1);
  const FactId p2 = registry->Atom(2);
  ASSERT_TRUE(mo.AddFact(p1).ok());
  ASSERT_TRUE(mo.AddFact(p2).ok());
  ASSERT_TRUE(mo.Relate(0, p1, ValueId(9)).ok());
  for (std::uint64_t value : {3u, 5u, 8u, 9u}) {
    ASSERT_TRUE(mo.Relate(0, p2, ValueId(value)).ok());
  }

  DimensionTypeBuilder builder("Result");
  builder.AddCategory("Count", AggregationType::kSum)
      .AddCategory("Range", AggregationType::kConstant)
      .AddOrder("Count", "Range");
  Dimension prototype(std::move(builder.Build()).ValueOrDie());
  const CategoryTypeIndex count_cat = *prototype.type().Find("Count");
  const CategoryTypeIndex range_cat = *prototype.type().Find("Range");
  const ValueId range_low(9000);
  const ValueId range_high(9001);
  ASSERT_TRUE(prototype.AddValue(range_cat, range_low).ok());
  ASSERT_TRUE(prototype.AddValue(range_cat, range_high).ok());
  Representation& range_rep = prototype.RepresentationFor(range_cat, "Value");
  ASSERT_TRUE(range_rep.Set(range_low, "0-1").ok());
  ASSERT_TRUE(range_rep.Set(range_high, ">1").ok());
  for (std::uint64_t c = 0; c <= 10; ++c) {
    ASSERT_TRUE(prototype.AddValue(count_cat, ValueId(c)).ok());
    ASSERT_TRUE(prototype.RepresentationFor(count_cat, "Value")
                    .Set(ValueId(c), std::to_string(c))
                    .ok());
    ASSERT_TRUE(
        prototype.AddOrder(ValueId(c), c <= 1 ? range_low : range_high).ok());
  }

  const CategoryTypeIndex group =
      *mo.dimension(0).type().Find("Diagnosis Group");
  AggregateSpec spec = SpecFor(AggFunction::SetCount(), {group});
  spec.result = ResultDimensionSpec::Explicit(
      std::move(prototype), [](double value) -> Result<ValueId> {
        if (value < 0 || value > 10) {
          return Status::InvalidArgument("count out of prototype range");
        }
        return ValueId(static_cast<std::uint64_t>(value));
      });
  ExpectMatchesReference(mo, spec, "Figure 3");
}

TEST(ReferenceDifferentialTest, ExpectedCountsUnderUncertainty) {
  const ClinicalMo clinical = BuildClinical();
  for (const auto& [dim, level] :
       {std::pair{clinical.diagnosis_dim, clinical.family},
        std::pair{clinical.diagnosis_dim, clinical.group},
        std::pair{clinical.residence_dim, clinical.region}}) {
    AggregateSpec spec =
        SpecFor(AggFunction::SetCount(), GroupingAt(clinical.mo, dim, level));
    spec.expected_counts = true;
    ExpectMatchesReference(clinical.mo, spec, "expected counts");
  }
  const RetailMo retail = BuildRetail();
  AggregateSpec spec = SpecFor(
      AggFunction::SetCount(),
      GroupingAt(retail.mo, retail.store_dim, retail.city));
  spec.expected_counts = true;
  ExpectMatchesReference(retail.mo, spec, "retail expected counts");
}

TEST(ReferenceDifferentialTest, UnenforcedAggregationTypes) {
  // SUM over Date (aggregation type a) is illegal when enforced; without
  // the guard the scan must fold exactly what the reference evaluates.
  const RetailMo retail = BuildRetail();
  const auto by_category =
      GroupingAt(retail.mo, retail.product_dim, retail.category);
  for (const AggFunction& function :
       {AggFunction::Sum(retail.date_dim), AggFunction::Max(retail.date_dim),
        AggFunction::Count(retail.date_dim)}) {
    AggregateSpec spec = SpecFor(function, by_category);
    ExpectMatchesReference(retail.mo, spec, "enforced");
    spec.enforce_aggregation_types = false;
    ExpectMatchesReference(retail.mo, spec, "unenforced");
  }
  // Diagnoses have no numeric reading at all: the first failing entry's
  // error must surface identically.
  const ClinicalMo clinical = BuildClinical();
  AggregateSpec spec =
      SpecFor(AggFunction::Avg(clinical.diagnosis_dim),
              GroupingAt(clinical.mo, clinical.residence_dim, clinical.region));
  spec.enforce_aggregation_types = false;
  ExpectMatchesReference(clinical.mo, spec, "non-numeric");
}

TEST(ReferenceDifferentialTest, OutOfRangeArgumentDimension) {
  const RetailMo retail = BuildRetail();
  const auto by_city = GroupingAt(retail.mo, retail.store_dim, retail.city);
  for (bool enforce : {true, false}) {
    AggregateSpec spec = SpecFor(AggFunction::Sum(99), by_city);
    spec.enforce_aggregation_types = enforce;
    ExpectMatchesReference(retail.mo, spec, "argument dimension 99");
    const std::string text =
        Outcome(reference::AggregateFormation(retail.mo, spec));
    EXPECT_NE(text.find("references dimension 99"), std::string::npos)
        << text;
  }
}

TEST(ReferenceDifferentialTest, NonStrictTemporalDiagnosisHierarchy) {
  const ClinicalMo clinical = BuildClinical();
  for (CategoryTypeIndex level :
       {clinical.low_level, clinical.family, clinical.group}) {
    const auto grouping =
        GroupingAt(clinical.mo, clinical.diagnosis_dim, level);
    ExpectMatchesReference(clinical.mo,
                           SpecFor(AggFunction::SetCount(), grouping),
                           "diagnosis set-count");
    ExpectMatchesReference(
        clinical.mo,
        SpecFor(AggFunction::Count(clinical.residence_dim), grouping),
        "diagnosis count");
  }
}

TEST(ReferenceDifferentialTest, ValidTimesliceCuts) {
  const ClinicalMo clinical = BuildClinical();
  for (const char* date : {"01/01/75", "01/01/95"}) {
    auto slice = ValidTimeslice(clinical.mo, *ParseDate(date));
    ASSERT_TRUE(slice.ok()) << slice.status();
    for (const auto& [dim, level] :
         {std::pair{clinical.diagnosis_dim, clinical.group},
          std::pair{clinical.residence_dim, clinical.county}}) {
      ExpectMatchesReference(
          *slice,
          SpecFor(AggFunction::SetCount(), GroupingAt(*slice, dim, level)),
          std::string("slice at ") + date);
    }
  }
}

TEST(ReferenceDifferentialTest, SelectWithProbabilityPredicates) {
  const ClinicalMo clinical = BuildClinical();
  const Dimension& diagnosis = clinical.mo.dimension(clinical.diagnosis_dim);
  const std::vector<ValueId> families = diagnosis.ValuesIn(clinical.family);
  ASSERT_GE(families.size(), 2u);
  const Predicate uncertain =
      Predicate::MinProbability(clinical.diagnosis_dim, families[0], 0.7)
          .Or(Predicate::MinProbability(clinical.diagnosis_dim, families[1],
                                        0.9));
  auto selected = Select(clinical.mo, uncertain);
  ASSERT_TRUE(selected.ok()) << selected.status();
  ASSERT_GT(selected->fact_count(), 0u);
  for (bool expected : {false, true}) {
    AggregateSpec spec = SpecFor(
        AggFunction::SetCount(),
        GroupingAt(*selected, clinical.residence_dim, clinical.region));
    spec.expected_counts = expected;
    ExpectMatchesReference(*selected, spec, "PROB select");
  }
}

TEST(ReferenceDifferentialTest, TwoDimensionStarGroupings) {
  const ClinicalMo clinical = BuildClinical();
  auto grouping =
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.group);
  grouping[clinical.residence_dim] = clinical.region;
  ExpectMatchesReference(clinical.mo,
                         SpecFor(AggFunction::SetCount(), grouping),
                         "clinical star");

  const RetailMo retail = BuildRetail();
  auto star = GroupingAt(retail.mo, retail.product_dim, retail.category);
  star[retail.store_dim] = retail.city;
  for (const AggFunction& function :
       {AggFunction::Sum(retail.amount_dim), AggFunction::Avg(retail.price_dim),
        AggFunction::Min(retail.price_dim)}) {
    ExpectMatchesReference(retail.mo, SpecFor(function, star), "retail star");
  }
}

}  // namespace
}  // namespace mddc
