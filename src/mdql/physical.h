#ifndef MDDC_MDQL_PHYSICAL_H_
#define MDDC_MDQL_PHYSICAL_H_

#include "common/result.h"
#include "core/md_object.h"
#include "mdql/ast.h"
#include "mdql/mdql.h"
#include "mdql/plan.h"
#include "mdql/rewrite.h"

namespace mddc {

struct ExecContext;        // engine/executor.h
class PreAggregateCache;  // engine/preagg_cache.h

namespace mdql {

/// The physical choice for one SELECT, in order (docs/mdql_compiler.md):
///   1. a warm read: `preagg` (optional) is the pinned epoch's cache of
///      warm pre-aggregates over `source`; a SELECT with no WHERE and no
///      ASOF whose every function has an exact cached formation over its
///      grouping renders straight from those MOs — no compile, no scan —
///      through the tree walk's own renderer and merge (SqlRows,
///      MergeSelectRows), counting stats.warm_reads;
///   2. when `options` enable the compiler, ExecuteCompiledSelect (the
///      fused pipeline or its tree-walk fallback);
///   3. else the tree walk.
/// Every path renders the same bytes.
Result<QueryResult> ExecuteSelect(const MdObject& source,
                                  const SelectStatement& select,
                                  const CompileOptions& options,
                                  ExecContext* exec = nullptr,
                                  const PreAggregateCache* preagg = nullptr);

/// The physical layer of compiled MDQL (docs/mdql_compiler.md): lower
/// the SELECT to the logical IR, run the rewrite rules, and — when the
/// optimized plan is the single fused-aggregate shape — execute it as
/// one streaming scan (AggregateStream) that never materializes an
/// intermediate MO. Any other shape falls back to the tree-walk
/// interpreter and counts stats.plan_fallbacks; a fused run counts
/// stats.fused_pipelines. The rendered result is byte-identical to the
/// interpreter either way, at any thread count.
Result<QueryResult> ExecuteCompiledSelect(const MdObject& source,
                                          const SelectStatement& select,
                                          const CompileOptions& options,
                                          ExecContext* exec = nullptr);

/// EXPLAIN rendering: the logical plan before and after rewrites, the
/// rules that fired, and the chosen physical operators (probing the
/// stream's engine selection without scanning). Under "physical:" a
/// SELECT that ExecuteSelect would answer from `preagg` prints one
/// "warm pre-aggregate (exact match): N function(s), G group(s)" line
/// instead. Never executes the statement and never perturbs ExecStats.
/// Non-SELECT statements render a single "direct execution" line.
Result<QueryResult> ExplainStatement(const MdObject& source,
                                     const Statement& statement,
                                     const CompileOptions& options,
                                     ExecContext* exec = nullptr,
                                     const PreAggregateCache* preagg = nullptr);

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_PHYSICAL_H_
