#ifndef MDDC_TESTS_REFERENCE_PLAN_REFERENCE_H_
#define MDDC_TESTS_REFERENCE_PLAN_REFERENCE_H_

#include "common/result.h"
#include "core/md_object.h"
#include "mdql/plan.h"

namespace mddc {
namespace reference {

/// The reference executor for MDQL logical plans: runs every node by
/// materializing its full MO result (a formation per aggregate, a real
/// selection, a real join). The rewrite-rule differentials compare a
/// plan against its rewritten form at the MO level with it;
/// multi-function aggregates and multi-branch merges (rendering
/// concerns, not MO algebra) are rejected.
Result<MdObject> ExecutePlanMaterialized(const mdql::PlanRef& plan);

}  // namespace reference
}  // namespace mddc

#endif  // MDDC_TESTS_REFERENCE_PLAN_REFERENCE_H_
