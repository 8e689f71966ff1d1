#ifndef MDDC_ALGEBRA_OPERATORS_H_
#define MDDC_ALGEBRA_OPERATORS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algebra/agg_function.h"
#include "algebra/predicate.h"
#include "common/result.h"
#include "core/md_object.h"
#include "core/properties.h"

namespace mddc {

struct ExecContext;  // engine/executor.h

/// The fundamental operators of the algebra (paper Section 4.1). Every
/// operator consumes and produces MdObjects — the algebra is closed
/// (Theorem 1); each implementation ends by validating the result's
/// closure conditions.
///
/// Temporal semantics follow Section 4.2: selection/projection/rename do
/// not change attached times; union unions the chronon sets of common
/// data; difference cuts times; join inherits times from the relevant
/// argument; aggregate formation intersects the characterization times of
/// grouped facts.

/// sigma[p](M): restricts the fact set to facts whose characterizing
/// values satisfy `predicate`; fact-dimension relations are restricted
/// accordingly; dimensions and schema are unchanged.
Result<MdObject> Select(const MdObject& mo, const Predicate& predicate);

/// pi[D_i1..D_ik](M): retains only the given dimensions (by index, in the
/// given order). The fact set stays the same — "duplicate values" are not
/// removed.
Result<MdObject> Project(const MdObject& mo,
                         const std::vector<std::size_t>& dims);

/// rho[S'](M): returns M under a new, structurally isomorphic schema.
/// Empty strings keep the old name. Used to disambiguate dimensions
/// before a self-join.
struct RenameSpec {
  std::string fact_type;                    // empty = keep
  std::vector<std::string> dimension_names; // empty entries = keep
};
Result<MdObject> Rename(const MdObject& mo, const RenameSpec& spec);

/// M1 u M2: requires equivalent schemas and a shared fact registry. Facts
/// and fact-dimension relations are united (times of common pairs union),
/// dimensions are united with the U_D operator.
Result<MdObject> Union(const MdObject& m1, const MdObject& m2);

/// M1 \ M2: requires equivalent schemas and a shared fact registry. For
/// snapshot MOs the fact sets are set-differenced; for temporal MOs the
/// Section 4.2 rule applies — the time of each pair of M1 is cut by the
/// time of the corresponding pair in M2 and only facts retaining
/// non-empty time in every dimension survive. The dimensions of M1 are
/// kept unchanged.
Result<MdObject> Difference(const MdObject& m1, const MdObject& m2);

/// The join predicate p(f1, f2) of the identity-based join: equality
/// gives an equi-join, inequality a non-equi-join, true the Cartesian
/// product.
enum class JoinPredicate { kEqual, kNotEqual, kTrue };

/// M1 |x|[p] M2: facts are pairs (f1, f2) satisfying p; the dimension
/// list is the concatenation of both MOs' dimensions (names must be
/// disjoint — use Rename first, as the paper prescribes); pair facts
/// inherit fact-dimension pairs (and their times) from the member facts.
///
/// With an ExecContext whose num_threads > 1 and an m1 fact set of at
/// least min_parallel_facts, the operator runs the parallel engine: the
/// facts of m1 are hash-partitioned by fact id, each worker scans its
/// partition against m2 (an id probe for the equi-join, a full scan
/// otherwise) into disjoint per-fact match slots, and the merge walks m1
/// in fact order — interning pair facts in exactly the sequential scan
/// order — so io::WriteMo of the parallel join is byte-identical to the
/// sequential one at any thread count. Pair-fact relations are then
/// populated one output dimension per task (disjoint writes, per-slot
/// Status, errors selected in dimension order). A context asking for
/// parallelism on an m1 below min_parallel_facts counts a
/// sequential_fallback. Unlike aggregate formation there is no
/// summarizability gate: the join touches no aggregate values. A null
/// `exec` means a fresh one-thread context.
Result<MdObject> Join(const MdObject& m1, const MdObject& m2,
                      JoinPredicate predicate, ExecContext* exec = nullptr);

/// How aggregate formation materializes the result dimension D_{n+1}.
class ResultDimensionSpec {
 public:
  /// Builds a fresh one-category dimension named `name`; each distinct
  /// aggregate result becomes a value whose "Value" representation is the
  /// number itself.
  static ResultDimensionSpec Auto(std::string name = "Result");

  /// Uses a caller-built dimension (e.g. Figure 3's Count < Range
  /// lattice); `mapper` maps each aggregate result to the bottom-category
  /// value it should be recorded as.
  static ResultDimensionSpec Explicit(
      Dimension prototype, std::function<Result<ValueId>(double)> mapper);

  bool is_auto() const { return !prototype_.has_value(); }
  const std::string& auto_name() const { return auto_name_; }
  const Dimension& prototype() const { return *prototype_; }
  Result<ValueId> Map(double result) const { return mapper_(result); }

 private:
  ResultDimensionSpec() = default;

  std::string auto_name_ = "Result";
  std::optional<Dimension> prototype_;
  std::function<Result<ValueId>(double)> mapper_;
};

/// Raw per-group state captured by one AggregateFormation run (via
/// AggregateSpec::capture), enough for FoldAggregateAppend to resume the
/// run over facts appended later — the delta-maintenance state behind
/// incrementally refreshed pre-aggregates (docs/ingestion.md). Everything
/// here is the *pre-presentation* state of the group-by scan: raw
/// accumulators rather than settled values, lifespans before the
/// assembly's Empty -> Always replacement. Seeding a fold with it is a
/// copy, and resuming replays the identical floating-point and
/// temporal-element operation sequence a full re-run over old-then-new
/// facts would perform — for every function kind, AVG and expected
/// counts included.
struct AggregateFoldState {
  struct Group {
    /// Canonical grouping key (one ValueId per argument dimension).
    std::vector<ValueId> key;
    /// The interned set-fact of the group's canonically sorted members.
    /// A fold never reads the list back: it checks member_count against
    /// the registry's O(1) count and extends the fact by the group's delta
    /// members (every registry copy keeps old ids resolvable).
    FactId group_fact;
    std::size_t member_count = 0;
    /// Raw left-fold of member coordinate lifespans per dimension, in
    /// member (= ascending fact) order.
    std::vector<Lifespan> life_per_dim;
    std::vector<double> prob_per_dim;
    /// Raw Section 4.2 result lifespan (pre Empty -> Always).
    Lifespan result_life;
    /// The function's raw accumulator (unused by SetCount).
    AggFunction::Accumulator accumulator;
    /// Sum over members of their membership probability: the expected
    /// group size an expected-count SetCount reports.
    double expected = 0.0;
  };
  /// Groups in canonical lexicographic key order.
  std::vector<Group> groups;
  /// The atemporal report the run was typed under; strict-path entries
  /// factorize over fact partitions, so a fold re-checks only the delta.
  SummarizabilityReport summarizability;
  /// Per argument dimension: total and structural versions at capture.
  /// A structural drift invalidates the state outright; a total drift
  /// with equal structural version means value/edge appends only, and the
  /// fold recomputes just the (dimension-local) partitioning bit.
  std::vector<std::uint64_t> dim_versions;
  std::vector<std::uint64_t> dim_structural_versions;
  bool valid = false;
};

/// Parameters of the aggregate-formation operator
/// alpha[D_{n+1}, g, C_1..C_n](M).
struct AggregateSpec {
  AggFunction function;
  /// One grouping category per dimension of the argument MO. Use the
  /// dimension type's top() index for dimensions that should not group
  /// (the paper's "> categories from the other dimensions").
  std::vector<CategoryTypeIndex> grouping;
  ResultDimensionSpec result = ResultDimensionSpec::Auto();
  /// Chronon at which containment probabilities are evaluated.
  Chronon prob_at = kNowChronon;
  /// When true (default), applying a function below the aggregation type
  /// of its argument data is an IllegalAggregation error — the paper's
  /// guard against meaningless aggregates.
  bool enforce_aggregation_types = true;
  /// Uncertainty semantics for set-count (Section 3.3 / TR-37): when
  /// true, the result of SetCount is the *expected* group size — the sum
  /// over members of their membership probability (fact-dimension
  /// probability times containment probability, multiplied across the
  /// grouping dimensions) — instead of the crisp cardinality. Only
  /// affects SetCount.
  bool expected_counts = false;
  /// When non-null, the formation records its raw per-group accumulator
  /// state here (canonical group order) so FoldAggregateAppend can later
  /// resume the run over appended facts. Auto result dimensions only;
  /// captures under an explicit result spec are marked invalid.
  AggregateFoldState* capture = nullptr;
};

/// alpha[D_{n+1}, g, C_1..C_n](M): groups facts by their characterizing
/// values in the grouping categories, makes each non-empty group a
/// set-fact, restricts the argument dimensions to the categories at or
/// above the grouping categories, and appends the result dimension
/// holding g(group) for each group. Facts characterized by several
/// values of a grouping category (non-strict hierarchies, many-to-many
/// relations) appear in several groups but are counted only once per
/// group. The result dimension's aggregation type follows the
/// summarizability rule of Section 4.1 (min of argument types when
/// distributive + strict + partitioning, else c).
///
/// All three aggregation entry points (this one, FoldAggregateAppend and
/// AggregateStream) run one group-by scan (docs/groupby_kernel.md):
/// dense row-major slots over the compiled rollup index when every
/// grouped dimension is covered and the slot cross-product fits
/// exec->max_dense_groupby_slots, an open-addressing flat-hash table
/// otherwise. A null `exec` means a fresh one-thread context; no result
/// depends on whether one was passed. With num_threads > 1 and a fact set
/// of at least min_parallel_facts the scan fans out: each worker scans
/// all facts and owns a disjoint slice of the group space (contiguous
/// slot ranges, or keys by hash), so every group is built whole by one
/// worker and the result — down to its serialized bytes — is identical
/// at any thread count. The parallel path is taken only when the Section
/// 3.4 summarizability preconditions hold (the same gate PreAggregateCache
/// applies); otherwise the scan runs sequentially and counts a
/// sequential_fallback on the context. The executable specification this
/// is tested against — an ordered map over the memoized characterization
/// walk — lives in tests/reference/.
Result<MdObject> AggregateFormation(const MdObject& mo,
                                    const AggregateSpec& spec,
                                    ExecContext* exec = nullptr);

/// Resumes a captured formation over `delta_facts` — the facts appended
/// to the MO since `state` was recorded — and returns a result MO
/// byte-identical to re-running AggregateFormation(mo, spec) from
/// scratch: the group-by scan visits only the delta facts, seeded with
/// the captured groups, and the result is assembled exactly as the
/// formation assembles it. The delta facts must be exactly mo.facts()
/// minus the facts of the captured run, in ascending id order with every
/// id above the captured members' (the natural shape of registry
/// appends); violations, structural dimension drift, explicit result
/// specs, or an invalid state return an error so the caller can fall
/// back to a full re-run.
///
/// A fold costs O(delta + groups), not O(members): seeds carry each
/// group's set fact and member count, the scan collects only the delta's
/// members, an untouched group keeps its fact and a touched one is
/// interned as FactRegistry::SetExtending(old fact, delta members) — the
/// same id a from-scratch formation's Set of the whole list gets.
///
/// Every function kind folds, AVG and expected-count SetCount included:
/// the state holds raw accumulators and expected sums. Strict-path
/// checks factorize over the fact partition (only the delta is
/// re-scanned) and partitioning — a dimension-local property appends can
/// break — is recomputed when the dimension's version moved. When
/// spec.capture is set, the fold records the merged state so the next
/// append folds again.
Result<MdObject> FoldAggregateAppend(const MdObject& mo,
                                     const AggregateSpec& spec,
                                     const AggregateFoldState& state,
                                     const std::vector<FactId>& delta_facts,
                                     ExecContext* exec = nullptr);

/// Parameters of the streaming multi-aggregate group-by — the fused
/// physical operator behind compiled MDQL plans (docs/mdql_compiler.md).
/// Where AggregateFormation materializes a full result MO per function,
/// the stream folds every function's accumulator in one scan and returns
/// only what a renderer needs: the grouping key and one settled value per
/// function. No intermediate MO and no result dimension.
struct StreamSpec {
  /// The functions folded in one scan; all share `grouping`. Evaluation
  /// errors surface in function-major order (function 0's groups in
  /// canonical order first), exactly as running the functions one
  /// formation at a time would.
  std::vector<AggFunction> functions;
  /// One grouping category per dimension; top() means "do not group" and
  /// the dimension is pruned from the scan entirely (dead-dimension
  /// pruning: a top-grouped dimension contributes one fixed coordinate
  /// with probability 1, so skipping it cannot change any group).
  std::vector<CategoryTypeIndex> grouping;
  /// Chronon at which containment probabilities are evaluated.
  Chronon prob_at = kNowChronon;
  /// When true (default), CheckApplicable gates each function exactly as
  /// AggregateFormation's enforce_aggregation_types does.
  bool enforce_aggregation_types = true;
  /// Optional fact filter, aligned with mo.facts(): false entries are
  /// skipped by the scan — selection pushdown without materializing the
  /// filtered MO. Null means every fact participates.
  const std::vector<bool>* keep = nullptr;
  /// When true every StreamGroup carries its full member fact list
  /// (ascending fact order). The scan builds the lists only then, or when
  /// a fact joined two groups and the collapse below needs them.
  bool collect_members = false;
};

/// One output group of AggregateStream, in canonical order (ascending
/// lexicographic ValueId key — the order AggregateFormation emits its
/// groups in). AggregateFormation interns each group as a set fact, so
/// groups with identical member sets are ONE result fact; the stream
/// keeps only the first group of each member set, as that fact renders.
struct StreamGroup {
  /// The grouping values of the live (non-top) dimensions, in ascending
  /// dimension-index order.
  std::vector<ValueId> key;
  /// The distinct member facts, ascending; filled only under
  /// StreamSpec::collect_members (empty otherwise).
  std::vector<FactId> member_facts;
  /// One settled result per StreamSpec function, in spec order.
  std::vector<double> values;
};

/// What the stream's engine selection would decide, without scanning any
/// facts — the cost-model probe behind MDQL EXPLAIN.
struct StreamProbe {
  /// Live (non-top-grouped) dimension indexes, ascending.
  std::vector<std::size_t> live;
  /// True when every live dimension is covered by a flat rollup table.
  bool all_indexed = false;
  /// True when the dense-slot engine would run (all_indexed and the slot
  /// cross-product fits the context's threshold).
  bool dense = false;
  /// Cross-product of live grouping-category cardinalities; 0 when it
  /// overflowed or a live dimension is not indexed.
  std::uint64_t slot_product = 0;
  /// Live dimensions with a flat table, and argument dimensions, whose
  /// relation has a dense-id column under the current numbering
  /// (docs/groupby_kernel.md). Facts are gathered only when every live and
  /// argument dimension is listed.
  std::vector<std::size_t> live_columns;
  std::vector<std::size_t> arg_columns;
};

/// Probes the scan over `grouping` with accumulators on `arg_dims`. Never
/// touches stats; may build a relation's dense column, as the scan's first
/// use would.
StreamProbe AggregateStreamProbe(const MdObject& mo,
                                 const std::vector<CategoryTypeIndex>& grouping,
                                 const std::vector<std::size_t>& arg_dims,
                                 ExecContext* exec = nullptr);

/// Runs the group-by scan AggregateFormation runs, returning only what a
/// renderer needs. Groups come back in canonical key order with members
/// accumulated in ascending fact order, and functions sharing an
/// argument dimension share one accumulator class, so every value (and
/// every error, in function-major order) is bit-identical to running the
/// functions through AggregateFormation one at a time, and groups sharing
/// a member set collapse as the formation's result facts do. The parallel path
/// is gated on every function passing the Section 3.4 summarizability
/// check. Counts dense_groupby_runs / flat_hash_runs /
/// dense_slot_fallbacks / index_hits / index_fallbacks / parallel_runs on
/// the context; a null `exec` means a fresh one-thread context.
Result<std::vector<StreamGroup>> AggregateStream(const MdObject& mo,
                                                 const StreamSpec& spec,
                                                 ExecContext* exec = nullptr);

}  // namespace mddc

#endif  // MDDC_ALGEBRA_OPERATORS_H_
