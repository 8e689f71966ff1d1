#ifndef MDDC_CORE_DIMENSION_H_
#define MDDC_CORE_DIMENSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/id.h"
#include "common/result.h"
#include "core/dimension_type.h"
#include "core/representation.h"
#include "temporal/lifespan.h"

namespace mddc {

/// A dimension D = (C, <=) of some dimension type T (paper Section 3.1):
/// a set of categories, each a set of dimension values with (temporal)
/// membership, plus a partial order on the union of all values. The
/// partial order is stored as immediate-containment edges, each carrying
///
///  * a Lifespan — the maximal valid/transaction time during which the
///    containment holds (e1 <=_Tv e2, Section 3.2), and
///  * a probability — the paper's e1 <=_p e2 (Section 3.3).
///
/// `e1 <= e2` then holds (at time t, with probability p) when e2 is
/// reachable from e1 through edges alive at t; chronon sets intersect
/// along a path and union across paths, giving exactly the property
/// e1 <=_{T1} e2 and e2 <=_{T2} e3 implies e1 <=_{T1 n T2} e3.
///
/// Every dimension owns a distinguished top value (the ALL-like value of
/// Gray et al.) that implicitly contains every value at all times.
///
/// Value metadata is stored SoA (docs/memory_layout.md): parallel
/// id/info arrays indexed by a dense slot, an open-addressing id->slot
/// table, slot-indexed edge adjacency, and slot-indexed closure memos —
/// no tree nodes anywhere on the reachability hot path.
class Dimension {
 public:
  /// One resolved containment: `value` contains the query value during
  /// `life` with probability `prob`.
  struct Containment {
    ValueId value;
    Lifespan life;
    double prob = 1.0;
  };

  /// An immediate-containment edge child <= parent.
  struct Edge {
    ValueId child;
    ValueId parent;
    Lifespan life;
    double prob = 1.0;
  };

  /// Creates an empty dimension of the given type; the top value is
  /// allocated automatically.
  explicit Dimension(std::shared_ptr<const DimensionType> type);

  /// Copies deep-copy the closure memos: a copy of a warmed (frozen)
  /// dimension is equally warm, so the publication promise travels.
  Dimension(const Dimension& other);
  Dimension(Dimension&& other) noexcept = default;
  Dimension& operator=(const Dimension& other);
  Dimension& operator=(Dimension&& other) noexcept = default;

  const DimensionType& type() const { return *type_; }
  const std::shared_ptr<const DimensionType>& type_ptr() const {
    return type_;
  }
  const std::string& name() const { return type_->name(); }

  /// The distinguished top value; every value is contained in it.
  ValueId top_value() const { return top_value_; }

  // ---- Population -------------------------------------------------------

  /// Adds a value with an explicit (globally unique) surrogate id to the
  /// category with index `category`, member during `membership`.
  Status AddValue(CategoryTypeIndex category, ValueId id,
                  const Lifespan& membership = Lifespan::AlwaysSpan());

  /// Adds a value with an automatically allocated id; returns the id.
  Result<ValueId> AddValueAuto(
      CategoryTypeIndex category,
      const Lifespan& membership = Lifespan::AlwaysSpan());

  /// Declares child <= parent during `life` with probability `prob`. The
  /// parent's category must be strictly above the child's in the type
  /// lattice. Repeated declarations for the same pair are coalesced by
  /// lifespan union (probabilities must agree).
  Status AddOrder(ValueId child, ValueId parent,
                  const Lifespan& life = Lifespan::AlwaysSpan(),
                  double prob = 1.0);

  /// Returns (creating on first use) the representation `rep_name` of the
  /// category `category`, for writing. A representation change can change
  /// what NumericValueOf answers, which compiled snapshots (their numeric
  /// column) and warm aggregates may already have read, so handing out
  /// the handle counts as a structural mutation: it bumps version() and
  /// structural_version(), and the append gate takes the full seal. The
  /// bump happens here, not in Representation::Set, so a handle held
  /// across a snapshot compile or a publication and written after it is
  /// outside this rule; take a fresh handle after either.
  Representation& RepresentationFor(CategoryTypeIndex category,
                                    std::string_view rep_name);

  /// Finds an existing representation. NotFound if never created.
  /// Allocation-free: the name probes the transparent key comparator
  /// without materializing a key string.
  Result<const Representation*> FindRepresentation(
      CategoryTypeIndex category, std::string_view rep_name) const;

  /// All representations as (category, name, representation) tuples, for
  /// timeslicing and printing.
  std::vector<std::tuple<CategoryTypeIndex, std::string, const Representation*>>
  AllRepresentations() const;

  /// The numeric interpretation of a value at chronon `at`, used by
  /// SUM/AVG/MIN/MAX (symmetric treatment of dimensions and measures,
  /// requirement 2): the representation named "Value" of the value's
  /// category is consulted first, then any representation whose text
  /// parses as a number.
  Result<double> NumericValueOf(ValueId id, Chronon at = kNowChronon) const;

  /// True when NumericValueOf(id, at) answers the same at every chronon
  /// `at` of the time domain: every representation entry of `id` in its
  /// category is valid at all times (Representation::TimelessFor). The
  /// rollup snapshot's numeric column (engine/rollup_index.h) decides such
  /// a value once and leaves every other one to NumericValueOf.
  bool NumericValueIsTimeless(ValueId id) const;

  // ---- Value queries ----------------------------------------------------

  bool HasValue(ValueId id) const;
  Result<CategoryTypeIndex> CategoryOf(ValueId id) const;
  Result<Lifespan> MembershipOf(ValueId id) const;

  /// All values of a category, in insertion order (top category contains
  /// exactly the top value).
  std::vector<ValueId> ValuesIn(CategoryTypeIndex category) const;

  /// All values of the dimension, including top, ascending by id.
  std::vector<ValueId> AllValues() const;

  std::size_t value_count() const { return value_ids_.size(); }

  // ---- Partial order queries --------------------------------------------

  /// The maximal lifespan during which e1 <= e2 (empty when incomparable).
  /// Reflexive: ContainmentSpan(e, e) is the membership lifespan of e.
  /// Containment in the top value always holds.
  Lifespan ContainmentSpan(ValueId e1, ValueId e2) const;

  /// True iff e1 <= e2 at valid chronon `at` (current transaction time).
  bool LessEqAt(ValueId e1, ValueId e2, Chronon at = kNowChronon) const;

  /// Probability that e1 <= e2 at valid chronon `at`, assuming edge
  /// independence (probabilities multiply along a path and combine
  /// noisy-or across alternative immediate parents; exact for trees, the
  /// standard approximation for DAGs). Returns 0 when incomparable.
  double ContainmentProbAt(ValueId e1, ValueId e2,
                           Chronon at = kNowChronon) const;

  /// Every value that contains `e` (transitively, excluding `e` itself but
  /// including the top value), with the containment lifespan and
  /// probability (probability evaluated at `prob_at`).
  std::vector<Containment> Ancestors(ValueId e,
                                     Chronon prob_at = kNowChronon) const;

  /// Read-only view of Ancestors(e): identical contents, but memo-backed
  /// so repeated queries on the closure hot path (characterization,
  /// aggregate formation, property checks) pay no per-call vector copy.
  /// The reference is invalidated by any mutation of this dimension and —
  /// when memoization is disabled — by the next AncestorsView call.
  const std::vector<Containment>& AncestorsView(
      ValueId e, Chronon prob_at = kNowChronon) const;

  /// Ancestors restricted to one category.
  std::vector<Containment> AncestorsIn(ValueId e, CategoryTypeIndex category,
                                       Chronon prob_at = kNowChronon) const;

  /// Every value contained in `e` (transitively, excluding `e`).
  std::vector<Containment> Descendants(ValueId e,
                                       Chronon prob_at = kNowChronon) const;

  /// Descendants restricted to one category.
  std::vector<Containment> DescendantsIn(ValueId e, CategoryTypeIndex category,
                                         Chronon prob_at = kNowChronon) const;

  /// All immediate-containment edges (for property checks and printing).
  const std::vector<Edge>& edges() const { return edges_; }

  /// Indices into edges() of edges whose child / parent is `id`.
  std::vector<const Edge*> EdgesFromChild(ValueId id) const;
  std::vector<const Edge*> EdgesToParent(ValueId id) const;

  /// No-copy variants of the above for read-only hot loops: indices into
  /// edges() (empty when the value has none).
  const std::vector<std::size_t>& EdgeIndexesFromChild(ValueId id) const;
  const std::vector<std::size_t>& EdgeIndexesToParent(ValueId id) const;

  /// No-copy variant of ValuesIn for read-only hot loops. The reference
  /// is invalidated by AddValue into the same category.
  const std::vector<ValueId>& ValuesInView(CategoryTypeIndex category) const;

  // ---- Compiled snapshots -------------------------------------------------

  /// Monotonically increasing total version: bumped by every mutation
  /// that can change the value set, a membership, the partial order or a
  /// representation (AddValue, AddOrder — including lifespan coalescing
  /// of a repeated edge — the membership unions of dimension union, and
  /// RepresentationFor). Compiled rollup snapshots (engine/rollup_index.h)
  /// record the version they were built at and are rejected once it
  /// moves.
  std::uint64_t version() const { return version_; }

  /// Monotonically increasing *structural* version (docs/ingestion.md):
  /// bumped only by mutations that can change existing values' closures
  /// or break the ascending-id append order — edge coalescing, edges
  /// whose child predates the last structural change, out-of-order value
  /// ids, membership unions — or change a representation (every
  /// RepresentationFor handle). Pure appends (AddValueAuto, a new edge
  /// from a freshly appended child) bump only version(). An artifact
  /// built at (version v, structural s) seeing (v' > v, s) knows every
  /// change since v was an append and may *patch* instead of rebuild; a
  /// moved structural version demands the full rebuild.
  std::uint64_t structural_version() const { return structural_version_; }

  /// First dense slot appended since the last structural change; slots at
  /// or past the watermark are "fresh". Fresh values carry ids greater
  /// than every older non-top id (ascending with their slots), and no
  /// edge points from an older child to a fresh parent — the invariants
  /// the append patch paths rely on.
  std::uint32_t append_watermark() const { return append_watermark_; }

  /// Ends the append run without a version bump: every present value
  /// stops being fresh, so a later edge from one of them is structural.
  /// Publication calls it (MdObject::WarmAndFreezeForPublish) — a value a
  /// published epoch already holds, in its rollup snapshots and warm
  /// aggregates, must not take a parent edge as an append.
  void ResetAppendWatermark() {
    append_watermark_ = static_cast<std::uint32_t>(value_ids_.size());
  }

  /// Opaque slot holding this dimension's compiled rollup snapshot. The
  /// core layer stores the pointer without knowing its concrete type (the
  /// engine layer owns the format); copies of the dimension share the
  /// snapshot, which is sound because a copy has identical contents and
  /// version, and any later mutation bumps only the mutated object's
  /// version. Access is reserved to RollupIndex::For, which serializes
  /// slot readers and writers process-wide; do not touch it directly.
  const std::shared_ptr<const void>& compiled_snapshot_slot() const {
    return compiled_snapshot_;
  }
  void set_compiled_snapshot_slot(std::shared_ptr<const void> snapshot) const {
    compiled_snapshot_ = std::move(snapshot);
  }

  /// Publication freeze (the MVCC serving tier, src/serve). A frozen
  /// dimension promises: no structural mutation will ever happen again,
  /// its closure memo is fully warmed, and its compiled-snapshot slot is
  /// filled and final. Under that promise RollupIndex::For serves the
  /// slot without taking the process-wide slot mutex — the lock-free read
  /// path of published epochs. A copied MdObject shares a frozen
  /// dimension instead of copying it, and MdObject::dimension_mutable
  /// hands out a private clone with the flag cleared, so a writer draft
  /// of a published epoch unfreezes exactly the dimensions it touches.
  /// A Dimension copied directly keeps the flag (identical, equally-final
  /// contents), and every structural mutation clears it.
  ///
  /// Setters are const (the flag is publication metadata, like the
  /// snapshot slot): callers mark dimensions frozen only from the single
  /// writer thread, before the owning MO is made visible to readers.
  bool publish_frozen() const { return publish_frozen_; }
  void set_publish_frozen(bool frozen) const { publish_frozen_ = frozen; }

  // ---- Algebra support ----------------------------------------------------

  /// The union operator on dimensions (paper Section 4.1): categories are
  /// united per type, the partial orders are united (lifespans of common
  /// edges union per the Section 4.2 temporal rules). The two dimensions
  /// must have equivalent types.
  static Result<Dimension> UnionWith(const Dimension& a, const Dimension& b);

  /// The subdimension obtained by restricting to the given categories
  /// (paper Example 5). `keep` must contain the top category (use type()
  /// indices). Values of dropped categories and edges touching them are
  /// removed; the new order is the restriction of the old.
  Result<Dimension> Subdimension(
      const std::vector<CategoryTypeIndex>& keep) const;

  /// The restriction used by aggregate formation: keep the categories at
  /// or above `new_bottom` but *connect* the new bottom values directly,
  /// i.e., the retained order is the transitive containment between
  /// retained values.
  Result<Dimension> RestrictAbove(CategoryTypeIndex new_bottom) const;

  /// A copy of this dimension under a renamed type (same lattice and
  /// contents); used by the rename operator to disambiguate dimensions
  /// before a self-join.
  Dimension RenamedAs(std::string new_name) const;

  /// Structural validation: edges connect existing values of strictly
  /// increasing categories, probabilities lie in (0, 1], memberships are
  /// non-empty.
  Status Validate() const;

  /// Enables/disables memoization of the reachability closure (the
  /// "special-purpose data structures" of the paper's future-work list).
  /// Enabled by default: repeated Ancestors/Descendants/containment
  /// queries — the hot path of characterization and aggregate formation —
  /// are answered from a per-value cache that mutation invalidates.
  /// Disable to measure the unindexed algorithm (see bench_closure_memo).
  void set_memoization_enabled(bool enabled) const {
    memo_enabled_ = enabled;
    if (!enabled) {
      up_memo_.clear();
      down_memo_.clear();
      anc_memo_.clear();
      // Unwarmed scratch-buffer reads are not concurrency-safe, so the
      // publication promise (see publish_frozen) no longer holds.
      publish_frozen_ = false;
    }
  }
  bool memoization_enabled() const { return memo_enabled_; }

  /// Fully populates the reachability memo (upward and downward closure
  /// of every value). The memo is lazily written by const queries and is
  /// therefore not thread-safe to warm concurrently; the parallel
  /// executor calls this before fanning out workers, after which
  /// concurrent Ancestors/Descendants/containment queries are pure reads.
  void WarmClosureMemo() const;

  /// Multi-line dump of categories, values and order edges.
  std::string ToString() const;

 private:
  struct ValueInfo {
    CategoryTypeIndex category = 0;
    Lifespan membership;
  };

  /// Transparent comparator for (category, name) representation keys:
  /// lookups probe with a string_view, no key string materialized.
  struct RepKeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.first != b.first) return a.first < b.first;
      return std::string_view(a.second) < std::string_view(b.second);
    }
  };

  /// Dense per-slot scratch for ComputeReach, retained across calls and
  /// reset via the touched list, so one reachability query costs O(sub-DAG)
  /// — not O(value count) and with no tree-node churn.
  struct ReachScratch {
    std::vector<std::size_t> pending;
    std::vector<std::uint8_t> marked;
    std::vector<std::uint8_t> seen;
    std::vector<std::uint8_t> has_span;
    std::vector<std::uint8_t> has_prob;
    std::vector<Lifespan> span;
    std::vector<double> prob;
    std::vector<double> not_prob;
    std::vector<std::uint32_t> touched;
    std::vector<std::uint32_t> queue;
    std::vector<std::uint32_t> ready;
  };

  using MemoTable = std::vector<std::unique_ptr<std::vector<Containment>>>;

  /// Dense slot of `id`, or FlatHashIndex::kNone when unknown.
  std::uint32_t SlotOf(ValueId id) const;

  /// Slots in ascending-ValueId order (the canonical iteration order of
  /// value enumeration), cached and lazily re-sorted after inserts.
  const std::vector<std::uint32_t>& SortedSlots() const;

  /// Upward (or downward) reachability with lifespan union across paths
  /// and probability DP, shared by Ancestors/Descendants. The raw
  /// algorithm; no memo involvement. Results ascend by ValueId.
  std::vector<Containment> ComputeReach(ValueId start, bool upward) const;

  /// Ancestors with the unconditional top fix-up applied; the raw form
  /// backing both Ancestors (by value) and AncestorsView (memo-backed).
  std::vector<Containment> ComputeAncestors(ValueId e, Chronon prob_at) const;

  /// Drops every memoized closure and bumps both versions; called by
  /// structural mutations of the partial order. Also resets the append
  /// watermark: after a structural change nothing is "fresh".
  void InvalidateClosures();

  /// Targeted invalidation for an appended edge (fresh child): older
  /// values' upward closures are provably unchanged, so only the fresh
  /// slots' up/ancestor memos and the (now stale) downward memos drop.
  void InvalidateForAppendedEdge();

  /// Memo-backed reference form of ComputeReach: a memo hit (or fill)
  /// returns a reference into the memo instead of copying the closure
  /// vector on every containment query. With memoization disabled the
  /// result lives in a scratch buffer overwritten by the next call.
  const std::vector<Containment>& Reach(ValueId start, bool upward,
                                        Chronon prob_at) const;

  void CopyMemos(const Dimension& other);

  std::shared_ptr<const DimensionType> type_;
  ValueId top_value_;

  // SoA value storage: parallel id/info arrays indexed by dense slot, an
  // open-addressing id -> slot table, and a lazily sorted slot order for
  // ValueId-ascending iteration.
  std::vector<ValueId> value_ids_;
  std::vector<ValueInfo> value_infos_;
  FlatHashIndex value_index_;
  mutable std::vector<std::uint32_t> sorted_slots_;
  mutable bool sorted_valid_ = false;

  std::vector<std::vector<ValueId>> members_by_category_;
  std::vector<Edge> edges_;
  // Slot-indexed edge adjacency (grown on demand; a slot past the end has
  // no edges).
  std::vector<std::vector<std::size_t>> edges_by_child_;
  std::vector<std::vector<std::size_t>> edges_by_parent_;
  std::map<std::pair<CategoryTypeIndex, std::string>, Representation,
           RepKeyLess>
      representations_;
  std::uint64_t next_auto_id_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t structural_version_ = 0;
  // Dense slot of the first value appended since the last structural
  // change (see append_watermark()).
  std::uint32_t append_watermark_ = 0;

  // Reachability memo (see set_memoization_enabled). Mutable: queries are
  // logically const. Not thread-safe; external synchronization required
  // for concurrent readers that might warm the cache. Slot-indexed, one
  // heap vector per warmed value behind a unique_ptr so references stay
  // valid as the tables grow. anc_memo_ holds the post-fixup Ancestors
  // results backing AncestorsView; the scratch buffers back the
  // reference-returning accessors when memoization is off (benchmark
  // mode; not safe for concurrent readers).
  mutable bool memo_enabled_ = true;
  mutable MemoTable up_memo_;
  mutable MemoTable down_memo_;
  mutable MemoTable anc_memo_;
  mutable std::vector<Containment> reach_scratch_;
  mutable std::vector<Containment> anc_scratch_;
  mutable ReachScratch reach_work_;

  // Compiled rollup snapshot (see compiled_snapshot_slot).
  mutable std::shared_ptr<const void> compiled_snapshot_;

  // Publication freeze (see publish_frozen). Plain bool, not atomic: it is
  // written only by the single writer thread before the owning MO is
  // published, and MoStore's swap under pin_mu_ orders that write before
  // every reader's Pin(). It is never written afterwards: a frozen
  // dimension may be shared by several epochs' MOs, so the seals skip it
  // and dimension_mutable clears the flag only on a private clone.
  mutable bool publish_frozen_ = false;
};

}  // namespace mddc

#endif  // MDDC_CORE_DIMENSION_H_
