#include "workload/clinical_generator.h"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "common/date.h"
#include "common/strings.h"

namespace mddc {
namespace {

/// Deterministic surrogate blocks.
constexpr std::uint64_t kLowBase = 100000;
constexpr std::uint64_t kFamilyBase = 200000;
constexpr std::uint64_t kGroupBase = 300000;
constexpr std::uint64_t kAreaBase = 400000;
constexpr std::uint64_t kCountyBase = 500000;
constexpr std::uint64_t kRegionBase = 600000;

Lifespan OldEra() {
  return Lifespan::ValidDuring(TemporalElement(
      Interval(*ParseDate("01/01/70"), *ParseDate("31/12/79"))));
}

Lifespan NewEra() {
  return Lifespan::ValidDuring(
      TemporalElement(Interval(*ParseDate("01/01/80"), kNowChronon)));
}

}  // namespace

Result<ClinicalMo> GenerateClinicalWorkload(
    const ClinicalWorkloadParams& params,
    std::shared_ptr<FactRegistry> registry) {
  std::mt19937 rng(params.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> fanout(params.min_fanout,
                                                    params.max_fanout);

  // ---- Diagnosis dimension -------------------------------------------------
  DimensionTypeBuilder diagnosis_builder("Diagnosis");
  diagnosis_builder.AddCategory("Low-level Diagnosis")
      .AddCategory("Diagnosis Family")
      .AddCategory("Diagnosis Group")
      .AddOrder("Low-level Diagnosis", "Diagnosis Family")
      .AddOrder("Diagnosis Family", "Diagnosis Group");
  MDDC_ASSIGN_OR_RETURN(auto diagnosis_type, diagnosis_builder.Build());
  Dimension diagnosis(diagnosis_type);
  CategoryTypeIndex low = *diagnosis_type->Find("Low-level Diagnosis");
  CategoryTypeIndex family = *diagnosis_type->Find("Diagnosis Family");
  CategoryTypeIndex group = *diagnosis_type->Find("Diagnosis Group");

  std::vector<ValueId> lows;
  std::vector<ValueId> families;
  std::uint64_t next_low = kLowBase;
  std::uint64_t next_family = kFamilyBase;
  Representation& code_rep = diagnosis.RepresentationFor(low, "Code");
  // Deterministic, index-based codes at every level so queries (and the
  // stress harness's statement generator, src/stress/mix.h) can name any
  // value without touching the rng stream: families are F<k> and groups
  // G<k> in creation order, and lows carry a sequential L<k> alias next
  // to their hierarchical C<g>.<f>.<l> code.
  Representation& low_seq_rep = diagnosis.RepresentationFor(low, "Seq");
  Representation& family_rep = diagnosis.RepresentationFor(family, "Code");
  Representation& group_rep = diagnosis.RepresentationFor(group, "Code");

  for (std::size_t g = 0; g < params.num_groups; ++g) {
    ValueId group_id(kGroupBase + g);
    MDDC_RETURN_NOT_OK(diagnosis.AddValue(group, group_id));
    MDDC_RETURN_NOT_OK(group_rep.Set(group_id, StrCat("G", g)));
    std::size_t family_count = fanout(rng);
    for (std::size_t f = 0; f < family_count; ++f) {
      ValueId family_id(next_family++);
      MDDC_RETURN_NOT_OK(family_rep.Set(
          family_id, StrCat("F", family_id.raw() - kFamilyBase)));
      bool reclassified = unit(rng) < params.reclassified_rate;
      if (reclassified) {
        // Old-era family: bounded membership, bridged into the new group
        // per Example 10.
        MDDC_RETURN_NOT_OK(diagnosis.AddValue(family, family_id, OldEra()));
        MDDC_RETURN_NOT_OK(
            diagnosis.AddOrder(family_id, group_id, NewEra()));
      } else {
        MDDC_RETURN_NOT_OK(diagnosis.AddValue(family, family_id));
        MDDC_RETURN_NOT_OK(diagnosis.AddOrder(family_id, group_id));
      }
      families.push_back(family_id);
      std::size_t low_count = fanout(rng);
      for (std::size_t l = 0; l < low_count; ++l) {
        ValueId low_id(next_low++);
        MDDC_RETURN_NOT_OK(diagnosis.AddValue(low, low_id));
        MDDC_RETURN_NOT_OK(code_rep.Set(
            low_id, StrCat("C", g, ".", f, ".", l)));
        MDDC_RETURN_NOT_OK(low_seq_rep.Set(
            low_id, StrCat("L", low_id.raw() - kLowBase)));
        MDDC_RETURN_NOT_OK(diagnosis.AddOrder(low_id, family_id));
        lows.push_back(low_id);
      }
    }
  }
  // Non-strict extra parents (user-defined hierarchy).
  if (!families.empty()) {
    std::uniform_int_distribution<std::size_t> pick_family(
        0, families.size() - 1);
    for (ValueId low_id : lows) {
      if (unit(rng) >= params.non_strict_rate) continue;
      ValueId extra = families[pick_family(rng)];
      // AddOrder coalesces if the (child, parent) pair already exists.
      MDDC_RETURN_NOT_OK(diagnosis.AddOrder(low_id, extra));
    }
  }

  // ---- Residence dimension ---------------------------------------------------
  DimensionTypeBuilder residence_builder("Residence");
  residence_builder.AddCategory("Area")
      .AddCategory("County")
      .AddCategory("Region")
      .AddOrder("Area", "County")
      .AddOrder("County", "Region");
  MDDC_ASSIGN_OR_RETURN(auto residence_type, residence_builder.Build());
  Dimension residence(residence_type);
  CategoryTypeIndex area = *residence_type->Find("Area");
  CategoryTypeIndex county = *residence_type->Find("County");
  CategoryTypeIndex region = *residence_type->Find("Region");
  std::vector<ValueId> areas;
  std::uint64_t next_area = kAreaBase;
  std::uint64_t next_county = kCountyBase;
  // Same deterministic naming scheme as Diagnosis: R<r>, CO<k>, A<k> in
  // creation order, rng-free.
  Representation& region_rep = residence.RepresentationFor(region, "Code");
  Representation& county_rep = residence.RepresentationFor(county, "Code");
  Representation& area_rep = residence.RepresentationFor(area, "Code");
  for (std::size_t r = 0; r < params.num_regions; ++r) {
    ValueId region_id(kRegionBase + r);
    MDDC_RETURN_NOT_OK(residence.AddValue(region, region_id));
    MDDC_RETURN_NOT_OK(region_rep.Set(region_id, StrCat("R", r)));
    for (std::size_t c = 0; c < params.counties_per_region; ++c) {
      ValueId county_id(next_county++);
      MDDC_RETURN_NOT_OK(residence.AddValue(county, county_id));
      MDDC_RETURN_NOT_OK(county_rep.Set(
          county_id, StrCat("CO", county_id.raw() - kCountyBase)));
      MDDC_RETURN_NOT_OK(residence.AddOrder(county_id, region_id));
      for (std::size_t a = 0; a < params.areas_per_county; ++a) {
        ValueId area_id(next_area++);
        MDDC_RETURN_NOT_OK(residence.AddValue(area, area_id));
        MDDC_RETURN_NOT_OK(area_rep.Set(
            area_id, StrCat("A", area_id.raw() - kAreaBase)));
        MDDC_RETURN_NOT_OK(residence.AddOrder(area_id, county_id));
        areas.push_back(area_id);
      }
    }
  }

  // ---- Patients -----------------------------------------------------------------
  ClinicalMo result{
      MdObject("Patient", {std::move(diagnosis), std::move(residence)},
               registry, TemporalType::kValidTime),
      0, 1, low, family, group, area, county, region, lows.size(),
      families.size()};
  MdObject& mo = result.mo;

  std::uniform_int_distribution<std::size_t> pick_low(0, lows.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_family_dist(
      0, families.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_area(0, areas.size() - 1);
  // poisson_distribution requires a positive mean. At mean 0 no extra
  // diagnosis is drawn, so the placeholder mean is never used.
  const bool draw_extra = params.mean_extra_diagnoses > 0;
  std::poisson_distribution<int> extra(
      draw_extra ? params.mean_extra_diagnoses : 1.0);
  const Chronon epoch = *ParseDate("01/01/80");
  std::uniform_int_distribution<Chronon> onset(*ParseDate("01/01/70"),
                                               *ParseDate("01/01/95"));

  for (std::size_t p = 0; p < params.num_patients; ++p) {
    FactId patient = registry->Atom(p + 1);
    MDDC_RETURN_NOT_OK(mo.AddFact(patient));

    const int diagnosis_count = 1 + (draw_extra ? extra(rng) : 0);
    std::set<ValueId> chosen;
    for (int d = 0; d < diagnosis_count; ++d) {
      bool coarse = unit(rng) < params.coarse_granularity_rate;
      ValueId value = coarse ? families[pick_family_dist(rng)]
                             : lows[pick_low(rng)];
      // A repeated pick would re-assert the same pair (possibly with a
      // different probability); one registration per diagnosis suffices.
      if (!chosen.insert(value).second) continue;
      // A diagnosis only while its value is a member: reclassified
      // old-era families need old-era pair times.
      MDDC_ASSIGN_OR_RETURN(Lifespan membership, mo.dimension(0).MembershipOf(value));
      Chronon start = onset(rng);
      Chronon end = unit(rng) < 0.5 ? kNowChronon
                                    : std::min<Chronon>(start + 3650,
                                                        *ParseDate("31/12/98"));
      if (end < start) end = start;
      Lifespan life = Lifespan::ValidDuring(
          TemporalElement(Interval(start, end)).Intersect(membership.valid));
      if (life.Empty()) {
        life = membership;  // fall back to the value's own era
      }
      double prob = 1.0;
      if (unit(rng) < params.uncertain_rate) {
        prob = params.min_probability +
               unit(rng) * (1.0 - params.min_probability);
      }
      MDDC_RETURN_NOT_OK(mo.Relate(0, patient, value, life, prob));
    }

    ValueId home = areas[pick_area(rng)];
    if (unit(rng) < params.relocation_rate) {
      ValueId second = areas[pick_area(rng)];
      if (second == home && areas.size() > 1) {
        second = areas[(pick_area(rng) + 1) % areas.size()];
      }
      MDDC_RETURN_NOT_OK(mo.Relate(
          1, patient, home,
          Lifespan::ValidDuring(TemporalElement(
              Interval(*ParseDate("01/01/70"), epoch - 1)))));
      MDDC_RETURN_NOT_OK(mo.Relate(
          1, patient, second,
          Lifespan::ValidDuring(
              TemporalElement(Interval(epoch, kNowChronon)))));
    } else {
      MDDC_RETURN_NOT_OK(mo.Relate(1, patient, home));
    }
  }
  MDDC_RETURN_NOT_OK(mo.Validate());
  return result;
}

}  // namespace mddc
