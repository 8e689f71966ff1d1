#ifndef MDDC_TESTS_FIXTURES_H_
#define MDDC_TESTS_FIXTURES_H_

// Shared test fixtures: the paper's Diagnosis dimension (Tables 1,
// Examples 4, 9, 10) built inline, independent of the workload module.

#include <memory>

#include <cstdint>
#include <vector>

#include "common/date.h"
#include "core/dimension.h"
#include "core/dimension_type.h"
#include "core/md_object.h"
#include "engine/rollup_index.h"
#include "temporal/lifespan.h"

namespace mddc {
namespace testing_fixtures {

inline Chronon Day(const std::string& date) { return *ParseDate(date); }

inline Lifespan During(const std::string& interval_text) {
  return Lifespan::ValidDuring(
      TemporalElement(*Interval::Parse(interval_text)));
}

inline std::shared_ptr<const DimensionType> DiagnosisType() {
  DimensionTypeBuilder builder("Diagnosis");
  builder.AddCategory("Low-level Diagnosis", AggregationType::kConstant)
      .AddCategory("Diagnosis Family", AggregationType::kConstant)
      .AddCategory("Diagnosis Group", AggregationType::kConstant)
      .AddOrder("Low-level Diagnosis", "Diagnosis Family")
      .AddOrder("Diagnosis Family", "Diagnosis Group");
  return std::move(builder.Build()).ValueOrDie();
}

/// The Diagnosis dimension of the case study: categories per Example 4,
/// order edges per the Grouping table of Table 1, plus the cross-
/// classification link 8 <= 11 of Example 10.
inline Dimension BuildDiagnosisDimension() {
  auto type = DiagnosisType();
  Dimension dimension(type);
  CategoryTypeIndex low = *type->Find("Low-level Diagnosis");
  CategoryTypeIndex family = *type->Find("Diagnosis Family");
  CategoryTypeIndex group = *type->Find("Diagnosis Group");

  // Low-level Diagnosis = {3,5,6}; Diagnosis Family = {4,7,8,9,10};
  // Diagnosis Group = {11,12}. Membership periods follow the Diagnosis
  // table's ValidFrom/ValidTo.
  auto add = [&](CategoryTypeIndex category, std::uint64_t id,
                 const std::string& during) {
    (void)dimension.AddValue(category, ValueId(id), During(during));
  };
  add(low, 3, "[01/01/70-31/12/79]");
  add(low, 5, "[01/01/80-NOW]");
  add(low, 6, "[01/01/80-NOW]");
  add(family, 4, "[01/01/80-NOW]");
  add(family, 7, "[01/01/70-31/12/79]");
  add(family, 8, "[01/10/70-31/12/79]");
  add(family, 9, "[01/01/80-NOW]");
  add(family, 10, "[01/01/80-NOW]");
  add(group, 11, "[01/01/80-NOW]");
  add(group, 12, "[01/10/80-NOW]");

  // Grouping table (ParentID, ChildID, ValidFrom, ValidTo).
  auto order = [&](std::uint64_t child, std::uint64_t parent,
                   const std::string& during) {
    (void)dimension.AddOrder(ValueId(child), ValueId(parent), During(during));
  };
  order(5, 4, "[01/01/80-NOW]");
  order(6, 4, "[01/01/80-NOW]");
  order(3, 7, "[01/01/70-31/12/79]");
  order(3, 8, "[01/01/70-31/12/79]");  // user-defined
  order(5, 9, "[01/01/80-NOW]");       // user-defined
  order(6, 10, "[01/01/80-NOW]");      // user-defined
  order(9, 11, "[01/01/80-NOW]");
  order(10, 11, "[01/01/80-NOW]");
  order(4, 12, "[01/01/80-NOW]");
  // Example 10: the old Diabetes family (8) is considered contained in
  // the new Diabetes group (11) from 1980 on.
  order(8, 11, "[01/01/80-NOW]");

  // Code representation (subset used by tests; Example 6/9).
  Representation& code = dimension.RepresentationFor(low, "Code");
  (void)code.Set(ValueId(3), "P11", During("[01/01/70-31/12/79]"));
  (void)code.Set(ValueId(5), "O24.0", During("[01/01/80-NOW]"));
  (void)code.Set(ValueId(6), "O24.1", During("[01/01/80-NOW]"));
  Representation& family_code = dimension.RepresentationFor(family, "Code");
  (void)family_code.Set(ValueId(8), "D1", During("[01/01/70-31/12/79]"));
  (void)family_code.Set(ValueId(9), "E10", During("[01/01/80-NOW]"));
  return dimension;
}

/// A one-dimensional Patient MO over the Diagnosis dimension with the Has
/// table of Table 1 as its fact-dimension relation.
inline MdObject BuildPatientDiagnosisMo() {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry,
              TemporalType::kValidTime);
  FactId p1 = registry->Atom(1);
  FactId p2 = registry->Atom(2);
  (void)mo.AddFact(p1);
  (void)mo.AddFact(p2);
  // Has table: (PatientID, DiagnosisID, ValidFrom, ValidTo).
  (void)mo.Relate(0, p1, ValueId(9), During("[01/01/89-NOW]"));
  (void)mo.Relate(0, p2, ValueId(3), During("[23/03/75-24/12/75]"));
  (void)mo.Relate(0, p2, ValueId(8), During("[01/01/70-31/12/81]"));
  (void)mo.Relate(0, p2, ValueId(5), During("[01/01/82-30/09/82]"));
  (void)mo.Relate(0, p2, ValueId(9), During("[01/01/82-NOW]"));
  return mo;
}

/// A from-scratch dense-id column of `relation` under `index`: the
/// relation rebuilt entry by entry, so no sealed state carries over.
inline ChunkedVector<std::uint32_t> FreshColumn(
    const FactDimRelation& relation, const RollupIndex& index) {
  FactDimRelation fresh;
  for (const FactDimRelation::Entry& entry : relation.entries()) {
    (void)fresh.Add(entry.fact, entry.value, entry.life, entry.prob);
  }
  return *fresh.DenseColumn(index.numbering());
}

/// True when `relation` already holds a valid dense column under
/// `index`'s numbering, decided without building one: a copy carries
/// only a valid column, and a carried column of another generation
/// answers null rather than being rebuilt.
inline bool HasSealedColumn(const FactDimRelation& relation,
                            const RollupIndex& index) {
  const FactDimRelation copy = relation;
  const ValueId none[1] = {ValueId()};
  const FactDimRelation::DenseNumbering other{0, none, ValueId()};
  return copy.DenseColumn(other) == nullptr &&
         copy.DenseColumn(index.numbering()) != nullptr;
}

}  // namespace testing_fixtures
}  // namespace mddc

#endif  // MDDC_TESTS_FIXTURES_H_
