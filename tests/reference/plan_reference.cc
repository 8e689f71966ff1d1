#include "reference/plan_reference.h"

#include <vector>

#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "common/strings.h"
#include "mdql/bind.h"

namespace mddc {
namespace reference {

using mdql::PlanKind;
using mdql::PlanNode;

Result<MdObject> ExecutePlanMaterialized(const mdql::PlanRef& plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  const PlanNode& node = *plan;
  switch (node.kind) {
    case PlanKind::kScan:
      if (node.mo == nullptr) {
        return Status::InvalidArgument(
            StrCat("scan of '", node.mo_name, "' has no bound MO"));
      }
      return *node.mo;
    case PlanKind::kTimeslice: {
      MDDC_ASSIGN_OR_RETURN(MdObject child,
                            ExecutePlanMaterialized(node.children[0]));
      Chronon day = kNowChronon;
      if (node.as_of != "NOW") {
        MDDC_ASSIGN_OR_RETURN(day, ParseDate(node.as_of));
      }
      return ValidTimeslice(child, day);
    }
    case PlanKind::kSelect: {
      MDDC_ASSIGN_OR_RETURN(MdObject child,
                            ExecutePlanMaterialized(node.children[0]));
      if (node.where == nullptr) return child;
      MDDC_ASSIGN_OR_RETURN(Predicate predicate,
                            mdql::BuildWhere(child, *node.where, nullptr));
      return Select(child, predicate);
    }
    case PlanKind::kAggregate: {
      MDDC_ASSIGN_OR_RETURN(MdObject child,
                            ExecutePlanMaterialized(node.children[0]));
      if (node.aggregates.size() != 1) {
        return Status::InvalidArgument(
            "materializing executor runs single-function aggregates only");
      }
      std::vector<CategoryTypeIndex> grouping;
      grouping.reserve(child.dimension_count());
      for (std::size_t i = 0; i < child.dimension_count(); ++i) {
        grouping.push_back(child.dimension(i).type().top());
      }
      for (const mdql::GroupRef& group : node.group_by) {
        MDDC_ASSIGN_OR_RETURN(mdql::ResolvedLevel level,
                              mdql::Resolve(child, group.level));
        grouping[level.dim] = level.category;
      }
      MDDC_ASSIGN_OR_RETURN(AggFunction function,
                            mdql::BuildAggFunction(child, node.aggregates[0]));
      AggregateSpec spec{std::move(function), std::move(grouping)};
      return AggregateFormation(child, spec);
    }
    case PlanKind::kMerge:
      if (node.children.size() == 1) {
        return ExecutePlanMaterialized(node.children[0]);
      }
      return Status::InvalidArgument(
          "materializing executor cannot merge row sets; use the session "
          "path");
    case PlanKind::kJoin: {
      MDDC_ASSIGN_OR_RETURN(MdObject left,
                            ExecutePlanMaterialized(node.children[0]));
      MDDC_ASSIGN_OR_RETURN(MdObject right,
                            ExecutePlanMaterialized(node.children[1]));
      return Join(left, right, node.join_predicate);
    }
  }
  return Status::InvalidArgument("unknown plan node");
}

}  // namespace reference
}  // namespace mddc
