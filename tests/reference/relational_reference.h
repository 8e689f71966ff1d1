#ifndef MDDC_TESTS_REFERENCE_RELATIONAL_REFERENCE_H_
#define MDDC_TESTS_REFERENCE_RELATIONAL_REFERENCE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/algebra.h"

namespace mddc {
namespace reference {

/// The executable specification of Klug's aggregate formation
/// gamma[group_by; terms](r): tuples grouped in an ordered std::map keyed
/// by the grouping values (so groups come out in key order), each term
/// computed over its group's members in relation order. Test-only:
/// relational::Aggregate (flat-hash interning, partitioned parallel
/// path) must return an equal relation at every thread count.
Result<relational::Relation> RelationalAggregate(
    const relational::Relation& r, const std::vector<std::string>& group_by,
    const std::vector<relational::AggregateTerm>& terms);

}  // namespace reference
}  // namespace mddc

#endif  // MDDC_TESTS_REFERENCE_RELATIONAL_REFERENCE_H_
