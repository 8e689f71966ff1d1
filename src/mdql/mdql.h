#ifndef MDDC_MDQL_MDQL_H_
#define MDDC_MDQL_MDQL_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/md_object.h"
#include "mdql/ast.h"
#include "mdql/rewrite.h"

namespace mddc {

struct ExecContext;        // engine/executor.h
class PreAggregateCache;  // engine/preagg_cache.h

namespace mdql {

/// MDQL is a small textual query language over multidimensional objects,
/// planned onto the paper's algebra. It exists for two reasons: it makes
/// the examples and benches expressive, and it realizes the paper's
/// future-work idea of putting the schema lattices at the user's
/// fingertips (SHOW DIMENSIONS / SHOW HIERARCHY navigate them).
///
///   SELECT COUNT FROM patients
///     BY Diagnosis."Diagnosis Group" AS Code
///     WHERE Residence.Region = 'Capital Region'
///     ASOF '01/06/1999'
///
///   SELECT SUM(Amount), AVG(Price) FROM sales BY Product.Category
///
///   SELECT COUNT FROM patients
///     WHERE PROB(Diagnosis."Diagnosis Family" = 'E10') >= 0.8
///
///   SHOW DIMENSIONS FROM patients
///   SHOW HIERARCHY Diagnosis FROM patients
///
/// Semantics: WHERE atoms select facts by characterization (names resolve
/// through the representations of the referenced category); ASOF applies
/// a valid-timeslice before everything else; BY groups via aggregate
/// formation; multiple aggregates run over the same grouping and merge
/// into one row set.

/// A rendered query result: column headers plus string rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  /// Aligned ASCII table.
  std::string ToString() const;
};

/// True when executing the statement mutates the target MO (INSERT and
/// DELETE, unless EXPLAINed — EXPLAIN only renders the plan). The
/// serving tier (src/serve) routes mutating statements through the
/// store's serialized writer — INSERTs through the batched-append fast
/// path, DELETEs through the full-rebuild path — and everything else
/// through a pinned immutable snapshot.
bool IsMutating(const Statement& statement);

/// The name of the MO the statement targets (a view of the interned
/// identifier; valid for the life of the process).
std::string_view StatementMoName(const Statement& statement);

/// Applies an INSERT to an MO in place: interns the atomic fact for each
/// FACT group's key in the MO's registry, adds it to the fact set,
/// relates it to each named value (resolved through the category's
/// representations) with the given probability, and covers untouched
/// dimensions with top. The whole batch resolves before any mutation, so
/// one bad name leaves the MO untouched. Returns one acknowledgment row
/// per fact. Exposed as a free function so the serving tier's writer can
/// reuse it on drafts.
Result<QueryResult> ApplyInsert(MdObject& mo, const InsertStatement& insert);

/// Applies a DELETE to an MO in place: removes the fact with the
/// statement's key from the fact set and every relation. Deletes are
/// never maintained incrementally — the acknowledgment's "path" column
/// says "full-rebuild" and the serving tier seals the draft from
/// scratch (docs/ingestion.md). NotFound when no such fact exists.
Result<QueryResult> ApplyDelete(MdObject& mo, const DeleteStatement& del);

/// Executes a statement that IsMutating() rejects — a SELECT, a SHOW or
/// any EXPLAIN — on `mo`, which it never mutates: compiled SELECTs
/// stream without interning, and the tree walk interns its derived
/// facts into a private fork of `mo`'s registry (ExecuteSelectTreeWalk).
/// Any number of threads may therefore read one shared MO at once, as
/// the serving tier does with each pinned sealed epoch. `options` picks
/// compiled or interpreted SELECTs; `exec` (optional) is threaded
/// through the plan and its query arenas are rewound before returning.
/// `preagg` (optional) is the warm pre-aggregate cache published with
/// `mo`: a SELECT it answers exactly renders from it without a scan
/// (ExecuteSelect in physical.h), and EXPLAIN says so. The serving tier
/// passes the pinned epoch's cache; Session passes none.
/// InvalidArgument for a mutating statement.
Result<QueryResult> ExecuteRead(const MdObject& mo, const Statement& statement,
                                const CompileOptions& options,
                                ExecContext* exec = nullptr,
                                const PreAggregateCache* preagg = nullptr);

/// A catalog of named MOs plus the query entry point.
class Session {
 public:
  /// Registers an MO under a (unique) name.
  Status Register(std::string name, MdObject mo);

  /// Names of registered MOs.
  std::vector<std::string> names() const;

  /// Looks up a registered MO (e.g. for saving it to disk).
  /// Allocation-free: the transparent catalog comparator probes by view.
  Result<const MdObject*> Get(std::string_view name) const;

  /// Parses, plans and executes one MDQL statement. `exec` (optional) is
  /// threaded through the plan — the ASOF valid-timeslice and the BY
  /// aggregate formation — so query-language users reach the parallel
  /// engine; the rendered result is identical with or without it.
  Result<QueryResult> Execute(const std::string& query,
                              ExecContext* exec = nullptr);

  /// Executes an already-parsed statement: reads through ExecuteRead()
  /// with this session's compile options, INSERT and DELETE in place on
  /// the registered MO. The serving tier does not come here; it runs
  /// reads through ExecuteRead() on the pinned sealed MO and writes
  /// through the store's writer.
  Result<QueryResult> Execute(const Statement& statement,
                              ExecContext* exec = nullptr);

  /// Compiler configuration for this session's SELECTs (rewrite.h). The
  /// default compiles and fuses everything; the stress oracle's replay
  /// session turns the compiler off to serve as the interpreted side of
  /// a compiled-vs-interpreted differential.
  void set_compile_options(const CompileOptions& options) {
    compile_options_ = options;
  }
  const CompileOptions& compile_options() const { return compile_options_; }

 private:
  // Transparent comparator: name lookups probe with a string_view without
  // materializing a key string.
  std::map<std::string, MdObject, std::less<>> catalog_;
  CompileOptions compile_options_;
};

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_MDQL_H_
