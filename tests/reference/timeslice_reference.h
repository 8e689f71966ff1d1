#ifndef MDDC_TESTS_REFERENCE_TIMESLICE_REFERENCE_H_
#define MDDC_TESTS_REFERENCE_TIMESLICE_REFERENCE_H_

#include "common/result.h"
#include "core/md_object.h"

namespace mddc {
namespace reference {

/// The executable specification of the timeslice operators (paper
/// Section 4.2), one sequential pass each: every value, order edge,
/// representation entry and fact-dimension pair whose sliced time
/// contains `t` survives with that time cleared, values scanned through
/// the dimension's own AllValues() and MembershipOf/CategoryOf lookups;
/// facts survive when they keep a pair in every dimension. Test-only:
/// the production ValidTimeslice/TransactionTimeslice (rollup-snapshot
/// value scan, parallel per-fact path) must serialize byte-identically
/// to these at every thread count.
Result<MdObject> ValidTimeslice(const MdObject& mo, Chronon t);
Result<MdObject> TransactionTimeslice(const MdObject& mo, Chronon t);

/// One dimension sliced on its valid components.
Result<Dimension> ValidTimesliceDimension(const Dimension& dimension,
                                          Chronon t);

}  // namespace reference
}  // namespace mddc

#endif  // MDDC_TESTS_REFERENCE_TIMESLICE_REFERENCE_H_
