#ifndef MDDC_RELATIONAL_ALGEBRA_H_
#define MDDC_RELATIONAL_ALGEBRA_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/relation.h"

namespace mddc {

struct ExecContext;  // engine/executor.h

namespace relational {

/// Klug's relational algebra with aggregation [16]: the five classic
/// operators plus aggregate formation over grouping attributes. This is
/// the comparison class of the paper's Theorem 2 ("the algebra is at
/// least as powerful as Klug's relational algebra with aggregation") and
/// the engine under the star-schema/data-cube baselines.

/// A simple comparison condition attribute `op` constant.
struct Condition {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };
  std::string attribute;
  Op op = Op::kEq;
  Value constant;
};

/// sigma[condition](r).
Result<Relation> Select(const Relation& r, const Condition& condition);

/// sigma[A = B](r): attribute-to-attribute equality selection (part of
/// Klug's selection class).
Result<Relation> SelectAttrEq(const Relation& r, const std::string& a,
                              const std::string& b);

/// sigma[p](r) with an arbitrary tuple predicate.
Result<Relation> SelectWhere(
    const Relation& r,
    const std::function<Result<bool>(const Relation&, const Tuple&)>& p);

/// pi[attributes](r); duplicates collapse (set semantics).
Result<Relation> Project(const Relation& r,
                         const std::vector<std::string>& attributes);

/// rho[new names](r).
Result<Relation> RenameAttributes(const Relation& r,
                                  const std::vector<std::string>& names);

/// r u s (union-compatible).
Result<Relation> Union(const Relation& r, const Relation& s);

/// r \ s (union-compatible).
Result<Relation> Difference(const Relation& r, const Relation& s);

/// r x s; attribute names must be disjoint.
Result<Relation> Product(const Relation& r, const Relation& s);

/// Equi-join on pairs of attribute names (left, right).
Result<Relation> EquiJoin(
    const Relation& r, const Relation& s,
    const std::vector<std::pair<std::string, std::string>>& on);

/// Natural join on all shared attribute names.
Result<Relation> NaturalJoin(const Relation& r, const Relation& s);

/// An aggregate term of Klug's aggregate formation: function over an
/// attribute (attribute ignored for COUNT(*) which is spelled
/// kCountStar).
struct AggregateTerm {
  enum class Func { kCountStar, kCount, kCountDistinct, kSum, kAvg, kMin,
                    kMax };
  Func func = Func::kCountStar;
  std::string attribute;     // unused for kCountStar
  std::string result_name = "agg";
};

/// gamma[group_by; terms](r): one output tuple per distinct combination
/// of the grouping attributes, extended with the aggregate results.
///
/// With an ExecContext whose num_threads > 1 and at least
/// min_parallel_facts input tuples, grouping runs on the parallel
/// engine: workers share a scan of the tuples (in relation order) and
/// each accumulates only the groups of its hash partition, so every
/// group's member list is built whole and in scan order by one worker.
/// Partitions merge deterministically in partition order — the output
/// relation is identical, byte for byte, to the sequential one. Either
/// way groups are interned by the flat-hash engine
/// (docs/groupby_kernel.md) and emitted in key order. A null `exec`
/// means a fresh one-thread context.
Result<Relation> Aggregate(const Relation& r,
                           const std::vector<std::string>& group_by,
                           const std::vector<AggregateTerm>& terms,
                           ExecContext* exec = nullptr);

}  // namespace relational
}  // namespace mddc

#endif  // MDDC_RELATIONAL_ALGEBRA_H_
