#ifndef MDDC_ALGEBRA_TIMESLICE_H_
#define MDDC_ALGEBRA_TIMESLICE_H_

#include "common/result.h"
#include "core/md_object.h"

namespace mddc {

struct ExecContext;  // engine/executor.h

/// The valid-timeslice operator rho_v(M, t) (paper Section 4.2): returns
/// the parts of the MO valid at chronon `t` — category memberships, order
/// relations, representations and fact-dimension pairs whose valid time
/// contains `t` — with no valid time attached. The temporal type moves
/// from valid-time to snapshot (or bitemporal to transaction-time).
///
/// With an ExecContext whose num_threads > 1 and a fact set of at least
/// min_parallel_facts, the slice runs the parallel engine. Timeslicing
/// is embarrassingly parallel — every output cell depends on one input
/// cell and the chronon — so there is no partition/merge step: dimensions
/// slice into per-dimension result slots, relation entries filter in
/// contiguous chunks written to per-chunk slots and appended in chunk
/// order, and fact coverage is checked into per-fact flags. Errors land
/// in per-slot Status vectors and the first one in deterministic slot
/// order is returned, so io::WriteMo of the parallel slice is
/// byte-identical to the sequential one at any thread count. A null
/// `exec` runs as a fresh sequential context.
Result<MdObject> ValidTimeslice(const MdObject& mo, Chronon t,
                                ExecContext* exec = nullptr);

/// The transaction-timeslice operator rho_t(M, t): the state the database
/// recorded at transaction chronon `t`, with no transaction time
/// attached. Bitemporal becomes valid-time; transaction-time becomes
/// snapshot. Parallelizes exactly as ValidTimeslice.
Result<MdObject> TransactionTimeslice(const MdObject& mo, Chronon t,
                                      ExecContext* exec = nullptr);

}  // namespace mddc

#endif  // MDDC_ALGEBRA_TIMESLICE_H_
