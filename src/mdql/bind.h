#ifndef MDDC_MDQL_BIND_H_
#define MDDC_MDQL_BIND_H_

#include <functional>
#include <string>
#include <vector>

#include "algebra/agg_function.h"
#include "algebra/derived.h"
#include "algebra/predicate.h"
#include "common/result.h"
#include "core/md_object.h"
#include "mdql/ast.h"
#include "mdql/mdql.h"

namespace mddc {

struct ExecContext;  // engine/executor.h

namespace mdql {

/// Name binding: the shared layer between the tree-walk interpreter and
/// the compiled pipeline (docs/mdql_compiler.md). Both paths resolve AST
/// names through exactly these functions, so a bad identifier produces
/// the same Status whichever engine answers the statement.

/// "dimension.category" resolved against an MO.
struct ResolvedLevel {
  std::size_t dim = 0;
  CategoryTypeIndex category = 0;
};

Result<ResolvedLevel> Resolve(const MdObject& mo, const LevelRef& level);

/// Finds the dimension value named `text` in the given category by
/// trying every representation registered for it. NotFound if no
/// representation knows the name. Each probe is an interned-hash lookup
/// (no key string materialized); `exec` (optional) counts resolutions
/// into stats.interner_hits / interner_misses.
Result<ValueId> ResolveValueByName(const MdObject& mo,
                                   const ResolvedLevel& level,
                                   const std::string& text,
                                   ExecContext* exec);

/// Picks the labeling representation for a grouping column: an explicit
/// request, else the first of Name / Code / Value that exists.
std::string PickRepresentation(const MdObject& mo, const ResolvedLevel& level,
                               const Name& requested);

/// Compiles a WHERE tree to an algebra predicate. An unknown value name
/// yields a predicate matching nothing (NOT then matches everything).
Result<Predicate> BuildWhere(const MdObject& mo, const WhereExpr& expr,
                             ExecContext* exec);

/// Binds one SELECT-list aggregate to its algebra function.
Result<AggFunction> BuildAggFunction(const MdObject& mo, const AggRef& agg);

/// The tree-walk interpreter for SELECT: timeslice, then a materialized
/// Select, then one full AggregateFormation per aggregate (SqlAggregate),
/// merged by MergeSelectRows. The compiled pipeline's differential
/// baseline and its automatic fallback for uncovered plan shapes. It
/// works on a copy of `source` whose registry is a fork of the source's,
/// so the set facts formation interns never reach `source` and
/// concurrent readers may share it.
Result<QueryResult> ExecuteSelectTreeWalk(const MdObject& source,
                                          const SelectStatement& select,
                                          ExecContext* exec);

/// The SELECT's BY columns resolved against `mo`, in statement order,
/// each labeled by PickRepresentation.
Result<std::vector<SqlGroupBy>> ResolveGroupBy(const MdObject& mo,
                                               const SelectStatement& select);

/// The tree walk's row merge: columns named from the statement, then
/// `rows_of(a)` for each SELECT-list aggregate in order, merged by group
/// labels. A group an aggregate has no row for renders "-" there; of an
/// aggregate's rows sharing labels, the last in (labels, value) order
/// wins. Returns the first failing `rows_of`'s Status. The warm read
/// (physical.h) renders through it too, from SqlRows over each cached
/// formation, so it and the tree walk differ only in where each
/// aggregate's formed MO comes from.
Result<QueryResult> MergeSelectRows(
    const SelectStatement& select,
    const std::function<Result<std::vector<SqlRow>>(std::size_t)>& rows_of);

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_BIND_H_
