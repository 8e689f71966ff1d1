#ifndef MDDC_ALGEBRA_DERIVED_H_
#define MDDC_ALGEBRA_DERIVED_H_

#include <optional>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/result.h"
#include "core/md_object.h"

namespace mddc {

/// Derived operators (paper Section 4.1, end): "Other common OLAP and
/// relational operators, such as value-based join, duplicate removal,
/// SQL-like aggregation, star-join, drill-down, and roll-up can easily be
/// defined in terms of the fundamental operators."

/// Roll-up: aggregate formation grouping dimension `dim` at `category`
/// and every other dimension at its top category.
Result<MdObject> RollUp(const MdObject& mo, std::size_t dim,
                        CategoryTypeIndex category,
                        const AggFunction& function);

/// Drill-down: moving from a coarser grouping to a finer one. Aggregate
/// results cannot be disaggregated, so drill-down re-aggregates the
/// *base* MO at the finer category (the standard OLAP realization).
Result<MdObject> DrillDown(const MdObject& base, std::size_t dim,
                           CategoryTypeIndex finer_category,
                           const AggFunction& function);

/// Value-based join: pairs (f1, f2) of facts characterized by a common
/// value of the match category. `dim1`/`dim2` index the shared
/// (sub)dimension in each MO; `match_category` is a category index of
/// m1's dimension type (m2's dimension must have an equally named
/// category). Equivalent to rename + identity join + a selection on
/// shared characterizing values; implemented directly.
Result<MdObject> ValueJoin(const MdObject& m1, std::size_t dim1,
                           const MdObject& m2, std::size_t dim2,
                           CategoryTypeIndex match_category);

/// Duplicate removal: facts directly related to identical value sets in
/// every dimension are merged into one set-fact ("duplicate values" —
/// several facts with the same combination of dimension values — are the
/// model's representation of relational duplicates).
Result<MdObject> DuplicateRemoval(const MdObject& mo);

/// Star-join: the OLAP idiom of restricting a fact set by values in
/// several dimensions at once. `restrictions[i]`, when set, keeps only
/// facts characterized by that value in dimension i. Defined as a
/// selection with a conjunctive characterized-by predicate.
Result<MdObject> StarJoin(
    const MdObject& mo,
    const std::vector<std::optional<ValueId>>& restrictions);

/// Drill-across: combining two MOs of a family through a *shared
/// subdimension* (paper Section 3.1: "The shared subdimensions can be
/// used to 'join' data from separate MOs"). Verifies that dimension
/// `dim_a` of MO `a` and dimension `dim_b` of MO `b` really share
/// structure, then value-joins the fact sets on `match_category`.
Result<MdObject> DrillAcross(const MoFamily& family, const std::string& a,
                             std::size_t dim_a, const std::string& b,
                             std::size_t dim_b,
                             CategoryTypeIndex match_category);

/// One output row of an SQL-like aggregation: the names of the grouping
/// values (via the requested representations) and the aggregate.
struct SqlRow {
  std::vector<std::string> group;
  double value = 0.0;
};

/// A grouping column of SqlAggregate: dimension index, category to group
/// at, and the representation used to label the groups.
struct SqlGroupBy {
  std::size_t dim = 0;
  CategoryTypeIndex category = 0;
  std::string representation = "Code";
};

/// SQL-like aggregation ("SELECT r(e_1), g(..) .. GROUP BY C_1, .."):
/// aggregate formation over SqlGrouping(mo, group_by) followed by
/// SqlRows over the formed MO. Rows are sorted by their group labels.
/// Dimensions not listed group at top. `exec` (optional) is handed to the
/// underlying aggregate formation so MDQL queries reach the parallel
/// engine.
Result<std::vector<SqlRow>> SqlAggregate(const MdObject& mo,
                                         const std::vector<SqlGroupBy>& group_by,
                                         const AggFunction& function,
                                         Chronon at = kNowChronon,
                                         ExecContext* exec = nullptr);

/// The grouping SqlAggregate forms: each column's category on its
/// dimension (the last column wins when a dimension is listed twice), top
/// on every other dimension. InvalidArgument for a column whose dimension
/// is out of range.
Result<std::vector<CategoryTypeIndex>> SqlGrouping(
    const MdObject& mo, const std::vector<SqlGroupBy>& group_by);

/// SqlAggregate's rendering half: the rows of `aggregated`, an aggregate
/// formation (auto result dimension) over SqlGrouping(mo, group_by) — one
/// per group fact, labeled through each column's representation at `at`,
/// sorted by (labels, value). Reads `aggregated` only, so a published
/// warm pre-aggregate renders exactly as a fresh formation would.
Result<std::vector<SqlRow>> SqlRows(const MdObject& aggregated,
                                    const std::vector<SqlGroupBy>& group_by,
                                    Chronon at = kNowChronon);

}  // namespace mddc

#endif  // MDDC_ALGEBRA_DERIVED_H_
