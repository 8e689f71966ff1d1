#ifndef MDDC_TESTS_REFERENCE_AGGREGATE_REFERENCE_H_
#define MDDC_TESTS_REFERENCE_AGGREGATE_REFERENCE_H_

#include <vector>

#include "algebra/operators.h"
#include "common/result.h"
#include "core/md_object.h"

namespace mddc {
namespace reference {

/// The executable specification of aggregate formation
/// alpha[D_{n+1}, g, C_1..C_n](M) (paper Section 4.1, temporal rules of
/// Section 4.2), written for obviousness rather than speed: every fact's
/// grouping coordinates come from the memoized MdObject::CharacterizedBy
/// walk, groups live in an ordered std::map keyed by the full grouping
/// key (so iteration order is the canonical lexicographic order), each
/// group is evaluated by AggFunction::Evaluate over its sorted member
/// list, and the result MO is assembled here, independently of the
/// production assembly.
///
/// Test-only. The production AggregateFormation (one group-by scan with
/// dense-slot or flat-hash grouping, rollup-index lookups and a
/// partitioned parallel path) must serialize byte-identically to this at
/// every thread count; the engine differentials in tests/ and the
/// bit-identity gates in bench/ compare against it. spec.capture is
/// ignored: fold state is a production concern.
Result<MdObject> AggregateFormation(const MdObject& mo,
                                    const AggregateSpec& spec);

/// The executable specification of PreAggregateCache's rollup reuse
/// (Section 3.4: partial results of a distributive function combine
/// along strict paths): `cached` is an auto-result formation of
/// `function` over `base`, and the result regroups its set-facts at
/// `grouping` (categories of `base`'s dimension types, at or above the
/// cached ones) and merges their partial values, groups in an ordered
/// std::map, each fine value's ancestor found by Dimension::AncestorsIn.
/// A non-strict step fails as the cache's does. Test-only: the cache's
/// flat-hash merge over rollup-snapshot lookups must serialize
/// byte-identically to this.
Result<MdObject> RollUpAggregate(
    const MdObject& base, const MdObject& cached, const AggFunction& function,
    const std::vector<CategoryTypeIndex>& grouping);

}  // namespace reference
}  // namespace mddc

#endif  // MDDC_TESTS_REFERENCE_AGGREGATE_REFERENCE_H_
