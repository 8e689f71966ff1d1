#ifndef MDDC_MDQL_AST_H_
#define MDDC_MDQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mdql/names.h"

namespace mddc {
namespace mdql {

/// A reference to a category of a dimension: "Diagnosis.Diagnosis-Group"
/// or "Diagnosis.\"Diagnosis Group\"".
/// Identifier fields throughout the AST are interned Names (names.h):
/// the parser resolves each identifier to a 4-byte handle once, and the
/// compiler, binder and session catalog pass handles instead of string
/// copies. String *literals* (compared names, date literals) stay
/// std::string — they are data, not identifiers.
struct LevelRef {
  Name dimension;
  Name category;
};

/// One aggregate of the SELECT list: COUNT (set-count of facts) or
/// FN(dimension) with FN in {COUNT, SUM, AVG, MIN, MAX}.
struct AggRef {
  enum class Fn { kSetCount, kCount, kSum, kAvg, kMin, kMax };
  Fn fn = Fn::kSetCount;
  Name dimension;     // empty for set-count
  std::string label;  // rendered column name
};

/// One grouping column: a level reference plus the representation used to
/// label groups (default: first of Name, Code, Value that exists).
struct GroupRef {
  LevelRef level;
  Name representation;  // empty = automatic
};

/// A WHERE atom. Exactly one of the forms is populated:
///  * name:   dimension.category = 'text'   (representation lookup)
///  * number: dimension >= 42               (numeric on directly related
///                                           values)
///  * prob:   PROB(dimension.category = 'text') >= 0.8
struct WhereAtom {
  enum class Kind { kNameEquals, kNumericCompare, kProbAtLeast };
  Kind kind = Kind::kNameEquals;
  bool negated = false;

  LevelRef level;    // kNameEquals, kProbAtLeast
  std::string text;  // the compared name
  Name dimension;    // kNumericCompare
  enum class Cmp { kLt, kLe, kEq, kGe, kGt, kNe };
  Cmp cmp = Cmp::kEq;
  double number = 0.0;  // numeric bound or probability threshold
};

/// A boolean WHERE expression: atoms combined with AND/OR (NOT lives on
/// the atoms), parenthesization preserved by the tree shape.
struct WhereExpr {
  enum class Kind { kAtom, kAnd, kOr };
  Kind kind = Kind::kAtom;
  WhereAtom atom;  // kAtom
  std::shared_ptr<const WhereExpr> left;
  std::shared_ptr<const WhereExpr> right;
};

/// SELECT <aggs> FROM <mo> [BY <groups>] [WHERE <boolean expr>]
/// [ASOF 'dd/mm/yyyy'].
struct SelectStatement {
  std::vector<AggRef> aggregates;
  Name mo_name;
  std::vector<GroupRef> group_by;
  std::shared_ptr<const WhereExpr> where;  // null = no restriction
  std::optional<std::string> as_of;  // date literal
};

/// One characterization of an INSERT: relate the new fact to the value
/// named `text` in `level`, with probability `prob`.
struct InsertAssignment {
  LevelRef level;
  std::string text;
  double prob = 1.0;
};

/// One fact of a (possibly bulk) INSERT: the external key plus the
/// characterizations to relate it to.
struct InsertFact {
  std::uint64_t key = 0;
  std::vector<InsertAssignment> assignments;
};

/// INSERT INTO <mo> FACT <key> (<level> = '<text>' [PROB <p>], ...)
///   [, FACT <key> (...)]*
/// — the appending statement of the serving tier. Adds each atomic fact
/// with its external key and relates it to the named values; dimensions
/// left out are covered with top per the paper's convention for unknown
/// characterizations. All facts of one statement resolve before any
/// mutation and publish as ONE epoch, which is what makes the store's
/// batched-append fast path (docs/ingestion.md) pay off.
struct InsertStatement {
  Name mo_name;
  std::vector<InsertFact> facts;
};

/// DELETE FROM <mo> FACT <key> — removes the fact and every
/// characterization referencing it. Deletes are structural
/// invalidations, not appends: the serving tier routes them through the
/// full-rebuild sealing path (docs/ingestion.md), never the incremental
/// one, and the acknowledgment says so.
struct DeleteStatement {
  Name mo_name;
  std::uint64_t key = 0;
};

/// SHOW DIMENSIONS FROM <mo> — lists the dimension types.
/// SHOW HIERARCHY <dimension> FROM <mo> — renders one lattice.
/// SHOW PATHS <dimension> FROM <mo> — lists the aggregation paths
/// (requirement 3's multiple hierarchies) from the bottom category to TOP.
struct ShowStatement {
  enum class What { kDimensions, kHierarchy, kPaths };
  What what = What::kDimensions;
  Name dimension;  // kHierarchy only
  Name mo_name;
};

/// A parsed statement: exactly one of select/show/insert/del is set.
/// With `explain` the session does not execute the statement; it renders
/// the compiler's logical plan before/after rewrites and the chosen
/// physical operators instead (docs/mdql_compiler.md).
struct Statement {
  std::optional<SelectStatement> select;
  std::optional<ShowStatement> show;
  std::optional<InsertStatement> insert;
  std::optional<DeleteStatement> del;
  bool explain = false;
};

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_AST_H_
