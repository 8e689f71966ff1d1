#include "reference/timeslice_reference.h"

#include <vector>

#include "common/strings.h"

namespace mddc {
namespace reference {
namespace {

enum class Axis { kValid, kTransaction };

const TemporalElement& Component(const Lifespan& life, Axis axis) {
  return axis == Axis::kValid ? life.valid : life.transaction;
}

/// The lifespan with its sliced component cleared.
Lifespan Residual(const Lifespan& life, Axis axis) {
  Lifespan result = life;
  if (axis == Axis::kValid) {
    result.valid = TemporalElement::Always();
  } else {
    result.transaction = TemporalElement::Always();
  }
  return result;
}

Result<Dimension> TimesliceDimension(const Dimension& dimension, Chronon t,
                                     Axis axis) {
  Dimension result(dimension.type_ptr());
  for (ValueId value : dimension.AllValues()) {
    if (value == dimension.top_value()) continue;
    MDDC_ASSIGN_OR_RETURN(Lifespan membership, dimension.MembershipOf(value));
    if (!Component(membership, axis).Contains(t)) continue;
    MDDC_ASSIGN_OR_RETURN(CategoryTypeIndex category,
                          dimension.CategoryOf(value));
    MDDC_RETURN_NOT_OK(
        result.AddValue(category, value, Residual(membership, axis)));
  }
  for (const Dimension::Edge& edge : dimension.edges()) {
    if (!Component(edge.life, axis).Contains(t)) continue;
    if (!result.HasValue(edge.child) || !result.HasValue(edge.parent)) {
      continue;  // an endpoint was not a member at t
    }
    MDDC_RETURN_NOT_OK(result.AddOrder(edge.child, edge.parent,
                                       Residual(edge.life, axis), edge.prob));
  }
  for (const auto& [category, rep_name, rep] :
       dimension.AllRepresentations()) {
    Representation& target = result.RepresentationFor(category, rep_name);
    for (ValueId value : dimension.ValuesInView(category)) {
      if (!result.HasValue(value)) continue;
      for (const auto& [text, life] : rep->GetAll(value)) {
        if (!Component(life, axis).Contains(t)) continue;
        MDDC_RETURN_NOT_OK(target.Set(value, text, Residual(life, axis)));
      }
    }
  }
  return result;
}

Result<MdObject> Timeslice(const MdObject& mo, Chronon t, Axis axis,
                           TemporalType new_type) {
  const std::size_t n = mo.dimension_count();
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(Dimension sliced,
                          TimesliceDimension(mo.dimension(i), t, axis));
    dimensions.push_back(std::move(sliced));
  }
  MdObject result(mo.schema().fact_type(), std::move(dimensions),
                  mo.registry(), new_type);
  std::vector<FactDimRelation> sliced(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const FactDimRelation::Entry& entry : mo.relation(i).entries()) {
      if (!Component(entry.life, axis).Contains(t)) continue;
      if (!result.dimension(i).HasValue(entry.value)) continue;
      MDDC_RETURN_NOT_OK(sliced[i].Add(entry.fact, entry.value,
                                       Residual(entry.life, axis),
                                       entry.prob));
    }
  }
  for (FactId fact : mo.facts()) {
    bool all = true;
    for (std::size_t i = 0; i < n; ++i) all = all && sliced[i].HasFact(fact);
    if (all) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  }
  for (std::size_t i = 0; i < n; ++i) {
    sliced[i].RestrictToFacts(result.facts());
    result.relation_mutable(i) = std::move(sliced[i]);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

}  // namespace

Result<MdObject> ValidTimeslice(const MdObject& mo, Chronon t) {
  switch (mo.temporal_type()) {
    case TemporalType::kValidTime:
      return Timeslice(mo, t, Axis::kValid, TemporalType::kSnapshot);
    case TemporalType::kBitemporal:
      return Timeslice(mo, t, Axis::kValid, TemporalType::kTransactionTime);
    default:
      return Status::TemporalTypeMismatch(
          StrCat("valid-timeslice applies to valid-time or bitemporal MOs; "
                 "this MO is ",
                 TemporalTypeName(mo.temporal_type())));
  }
}

Result<MdObject> TransactionTimeslice(const MdObject& mo, Chronon t) {
  switch (mo.temporal_type()) {
    case TemporalType::kTransactionTime:
      return Timeslice(mo, t, Axis::kTransaction, TemporalType::kSnapshot);
    case TemporalType::kBitemporal:
      return Timeslice(mo, t, Axis::kTransaction, TemporalType::kValidTime);
    default:
      return Status::TemporalTypeMismatch(
          StrCat("transaction-timeslice applies to transaction-time or "
                 "bitemporal MOs; this MO is ",
                 TemporalTypeName(mo.temporal_type())));
  }
}

Result<Dimension> ValidTimesliceDimension(const Dimension& dimension,
                                          Chronon t) {
  return TimesliceDimension(dimension, t, Axis::kValid);
}

}  // namespace reference
}  // namespace mddc
