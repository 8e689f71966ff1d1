#include <gtest/gtest.h>

#include "algebra/timeslice.h"
#include "fixtures.h"
#include "reference/timeslice_reference.h"

namespace mddc {
namespace {

using testing_fixtures::BuildDiagnosisDimension;
using testing_fixtures::BuildPatientDiagnosisMo;
using testing_fixtures::Day;
using testing_fixtures::During;

TEST(TimesliceTest, ValidSliceIn1975UsesOldClassification) {
  MdObject mo = BuildPatientDiagnosisMo();
  auto sliced = ValidTimeslice(mo, Day("15/06/75"));
  ASSERT_TRUE(sliced.ok()) << sliced.status();
  EXPECT_EQ(sliced->temporal_type(), TemporalType::kSnapshot);

  // In 1975 the new classification did not exist yet.
  EXPECT_FALSE(sliced->dimension(0).HasValue(ValueId(5)));
  EXPECT_FALSE(sliced->dimension(0).HasValue(ValueId(11)));
  EXPECT_TRUE(sliced->dimension(0).HasValue(ValueId(3)));
  EXPECT_TRUE(sliced->dimension(0).HasValue(ValueId(7)));

  // Only patient 2 had diagnoses in 1975; patient 1's pair starts 1989.
  ASSERT_EQ(sliced->fact_count(), 1u);
  EXPECT_EQ(sliced->facts()[0], mo.registry()->Atom(2));

  // Attached valid times are removed by the slice.
  for (const auto& entry : sliced->relation(0).entries()) {
    EXPECT_EQ(entry.life.valid, TemporalElement::Always());
  }
}

TEST(TimesliceTest, ValidSliceNowUsesNewClassification) {
  MdObject mo = BuildPatientDiagnosisMo();
  auto sliced = ValidTimeslice(mo, Day("01/06/99"));
  ASSERT_TRUE(sliced.ok());
  EXPECT_TRUE(sliced->dimension(0).HasValue(ValueId(9)));
  EXPECT_TRUE(sliced->dimension(0).HasValue(ValueId(11)));
  EXPECT_FALSE(sliced->dimension(0).HasValue(ValueId(7)));
  // Both patients carry current diagnoses.
  EXPECT_EQ(sliced->fact_count(), 2u);
  // The old->new bridge (8 <= 11) does not appear because 8 is not a
  // member in 1999.
  EXPECT_FALSE(sliced->dimension(0).HasValue(ValueId(8)));
}

TEST(TimesliceTest, SliceKeepsOrderEdgesAliveAtT) {
  MdObject mo = BuildPatientDiagnosisMo();
  auto sliced = ValidTimeslice(mo, Day("15/06/85"));
  ASSERT_TRUE(sliced.ok());
  const Dimension& diagnosis = sliced->dimension(0);
  EXPECT_TRUE(diagnosis.LessEqAt(ValueId(5), ValueId(4)));
  EXPECT_TRUE(diagnosis.LessEqAt(ValueId(9), ValueId(11)));
  // The 1970s edge 3 <= 7 is gone (and so are its endpoints).
  EXPECT_FALSE(diagnosis.HasValue(ValueId(3)));
}

TEST(TimesliceTest, SliceFiltersRepresentations) {
  MdObject mo = BuildPatientDiagnosisMo();
  auto sliced = ValidTimeslice(mo, Day("15/06/85"));
  ASSERT_TRUE(sliced.ok());
  CategoryTypeIndex family =
      *sliced->dimension(0).type().Find("Diagnosis Family");
  auto rep = sliced->dimension(0).FindRepresentation(family, "Code");
  ASSERT_TRUE(rep.ok());
  // "E10" (new coding) is present; "D1" (old coding) is not.
  EXPECT_TRUE((*rep)->Lookup("E10").ok());
  EXPECT_FALSE((*rep)->Lookup("D1").ok());
}

TEST(TimesliceTest, RejectsWrongTemporalType) {
  auto registry = std::make_shared<FactRegistry>();
  MdObject snapshot("Patient", {BuildDiagnosisDimension()}, registry,
                    TemporalType::kSnapshot);
  EXPECT_EQ(ValidTimeslice(snapshot, 0).status().code(),
            StatusCode::kTemporalTypeMismatch);
  EXPECT_EQ(TransactionTimeslice(snapshot, 0).status().code(),
            StatusCode::kTemporalTypeMismatch);
}

TEST(TimesliceTest, BitemporalSliceChain) {
  // A bitemporal MO: the pair (p1, 9) was recorded on 05/01/89 with valid
  // time [01/01/89-NOW]; on 01/06/90 the valid time was corrected to
  // [01/03/89-NOW].
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry,
              TemporalType::kBitemporal);
  FactId p1 = registry->Atom(1);
  ASSERT_TRUE(mo.AddFact(p1).ok());
  Chronon t1 = Day("05/01/89");
  Chronon t2 = Day("01/06/90");
  ASSERT_TRUE(mo.Relate(0, p1, ValueId(9),
                        Lifespan{TemporalElement(
                                     Interval(Day("01/01/89"), kNowChronon)),
                                 TemporalElement(Interval(t1, t2 - 1))})
                  .ok());
  ASSERT_TRUE(mo.Relate(0, p1, ValueId(9),
                        Lifespan{TemporalElement(
                                     Interval(Day("01/03/89"), kNowChronon)),
                                 TemporalElement(Interval(t2, kNowChronon))})
                  .ok());

  // As recorded before the correction: valid from 01/01/89.
  auto before = TransactionTimeslice(mo, t1);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->temporal_type(), TemporalType::kValidTime);
  auto pairs = before->relation(0).ForFact(p1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs.front()->life.valid.Contains(Day("15/01/89")));

  // As recorded after: valid only from 01/03/89.
  auto after = TransactionTimeslice(mo, t2);
  ASSERT_TRUE(after.ok());
  pairs = after->relation(0).ForFact(p1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs.front()->life.valid.Contains(Day("15/01/89")));
  EXPECT_TRUE(pairs.front()->life.valid.Contains(Day("15/03/89")));

  // Chaining: transaction slice then valid slice yields a snapshot.
  auto snapshot = ValidTimeslice(*after, Day("15/03/89"));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->temporal_type(), TemporalType::kSnapshot);
  EXPECT_EQ(snapshot->fact_count(), 1u);
}

TEST(TimesliceTest, DimensionLevelSliceHelper) {
  Dimension diagnosis = BuildDiagnosisDimension();
  auto sliced =
      reference::ValidTimesliceDimension(diagnosis, Day("15/06/75"));
  ASSERT_TRUE(sliced.ok());
  EXPECT_TRUE(sliced->HasValue(ValueId(3)));
  EXPECT_FALSE(sliced->HasValue(ValueId(5)));
  EXPECT_TRUE(sliced->Validate().ok());
}

TEST(TimesliceTest, AnalysisAcrossChange_Example10) {
  // Example 10: counting patients with the old Diabetes (8) together with
  // the new Diabetes (11) "when we look at diagnoses made from 1970 to
  // the present" — the bridge 8 <= [80-NOW] 11 makes patient 2's 1970s
  // diagnosis 8 count toward group 11 today.
  MdObject mo = BuildPatientDiagnosisMo();
  FactId p2 = mo.registry()->Atom(2);
  Lifespan span = mo.CharacterizationSpan(p2, 0, ValueId(11));
  // Via the bridge, patient 2 is in group 11 from 1980 (while (2,8) held
  // until 1981), and from 1982 via diagnosis 9.
  EXPECT_TRUE(span.valid.Contains(Day("15/06/80")));
  EXPECT_TRUE(span.valid.Contains(Day("15/06/99")));
}

}  // namespace
}  // namespace mddc
