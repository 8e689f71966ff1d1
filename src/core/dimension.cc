#include "core/dimension.h"

#include <algorithm>

#include "common/strings.h"

namespace mddc {
namespace {

/// All dimensions share one raw id for their top value; top values never
/// mix across dimensions, and a shared id makes dimension union trivially
/// correct.
constexpr std::uint64_t kTopValueRawId = std::uint64_t{1} << 63;

// Shared empty results for the reference-returning accessors, so lookups
// of unknown values need no per-call allocation.
const std::vector<std::size_t> kNoEdgeIndexes;
const std::vector<ValueId> kNoValues;
const std::vector<Dimension::Containment> kNoContainments;

}  // namespace

Dimension::Dimension(std::shared_ptr<const DimensionType> type)
    : type_(std::move(type)), top_value_(ValueId(kTopValueRawId)) {
  members_by_category_.resize(type_->category_count());
  bool inserted = false;
  value_index_.FindOrInsert(
      Fnv1a64Word(top_value_.raw()), 0,
      [](std::uint32_t) { return false; }, &inserted);
  value_ids_.push_back(top_value_);
  value_infos_.push_back(ValueInfo{type_->top(), Lifespan::AlwaysSpan()});
  members_by_category_[type_->top()].push_back(top_value_);
  // The implicit top value is never "fresh": it predates every append.
  append_watermark_ = 1;
}

void Dimension::CopyMemos(const Dimension& other) {
  auto deep = [](const MemoTable& source) {
    MemoTable copy(source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      if (source[i] != nullptr) {
        copy[i] = std::make_unique<std::vector<Containment>>(*source[i]);
      }
    }
    return copy;
  };
  up_memo_ = deep(other.up_memo_);
  down_memo_ = deep(other.down_memo_);
  anc_memo_ = deep(other.anc_memo_);
}

Dimension::Dimension(const Dimension& other)
    : type_(other.type_),
      top_value_(other.top_value_),
      value_ids_(other.value_ids_),
      value_infos_(other.value_infos_),
      value_index_(other.value_index_),
      sorted_slots_(other.sorted_slots_),
      sorted_valid_(other.sorted_valid_),
      members_by_category_(other.members_by_category_),
      edges_(other.edges_),
      edges_by_child_(other.edges_by_child_),
      edges_by_parent_(other.edges_by_parent_),
      representations_(other.representations_),
      next_auto_id_(other.next_auto_id_),
      version_(other.version_),
      structural_version_(other.structural_version_),
      append_watermark_(other.append_watermark_),
      memo_enabled_(other.memo_enabled_),
      compiled_snapshot_(other.compiled_snapshot_),
      publish_frozen_(other.publish_frozen_) {
  // Deep-copy the memos (a copy of a warmed dimension stays warm; the
  // publication promise travels with the frozen flag).
  CopyMemos(other);
}

Dimension& Dimension::operator=(const Dimension& other) {
  if (this != &other) {
    Dimension copy(other);
    *this = std::move(copy);
  }
  return *this;
}

std::uint32_t Dimension::SlotOf(ValueId id) const {
  return value_index_.Find(Fnv1a64Word(id.raw()), [&](std::uint32_t slot) {
    return value_ids_[slot] == id;
  });
}

const std::vector<std::uint32_t>& Dimension::SortedSlots() const {
  if (!sorted_valid_) {
    sorted_slots_.resize(value_ids_.size());
    for (std::uint32_t i = 0; i < sorted_slots_.size(); ++i) {
      sorted_slots_[i] = i;
    }
    std::sort(sorted_slots_.begin(), sorted_slots_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return value_ids_[a] < value_ids_[b];
              });
    sorted_valid_ = true;
  }
  return sorted_slots_;
}

Status Dimension::AddValue(CategoryTypeIndex category, ValueId id,
                           const Lifespan& membership) {
  if (category >= type_->category_count()) {
    return Status::InvalidArgument(
        StrCat("category index ", category, " out of range in dimension '",
               name(), "'"));
  }
  if (category == type_->top()) {
    return Status::InvalidArgument(
        StrCat("the TOP category of dimension '", name(),
               "' holds only the implicit top value"));
  }
  if (!id.valid()) {
    return Status::InvalidArgument("cannot add a value with an invalid id");
  }
  if (SlotOf(id) != FlatHashIndex::kNone) {
    return Status::InvariantViolation(
        StrCat("value ", id, " already exists in dimension '", name(), "'"));
  }
  if (membership.Empty()) {
    return Status::InvalidArgument(
        StrCat("value ", id, " has an empty membership lifespan"));
  }
  // A value whose id extends the ascending order (every AddValueAuto id
  // does) is a pure append: snapshots may patch their dense remap instead
  // of rebuilding. An explicit id below the high-water mark (or past the
  // shared top id) would land *inside* the ascending dense order, so it
  // counts as structural.
  const bool is_append =
      id.raw() >= next_auto_id_ && id.raw() < kTopValueRawId;
  bool inserted = false;
  value_index_.FindOrInsert(
      Fnv1a64Word(id.raw()), static_cast<std::uint32_t>(value_ids_.size()),
      [&](std::uint32_t slot) { return value_ids_[slot] == id; }, &inserted);
  value_ids_.push_back(id);
  value_infos_.push_back(ValueInfo{category, membership});
  sorted_valid_ = false;
  members_by_category_[category].push_back(id);
  next_auto_id_ = std::max(next_auto_id_, id.raw() + 1);
  // A fresh value has no edges, so memoized closures of other values stay
  // valid — but compiled snapshots cover the value set and must at least
  // extend (append) or rebuild (structural).
  ++version_;
  if (!is_append) {
    ++structural_version_;
    append_watermark_ = static_cast<std::uint32_t>(value_ids_.size());
  }
  publish_frozen_ = false;
  return Status::OK();
}

Result<ValueId> Dimension::AddValueAuto(CategoryTypeIndex category,
                                        const Lifespan& membership) {
  ValueId id(next_auto_id_);
  MDDC_RETURN_NOT_OK(AddValue(category, id, membership));
  return id;
}

Status Dimension::AddOrder(ValueId child, ValueId parent,
                           const Lifespan& life, double prob) {
  const std::uint32_t child_slot = SlotOf(child);
  if (child_slot == FlatHashIndex::kNone) {
    return Status::NotFound(
        StrCat("order child ", child, " not in dimension '", name(), "'"));
  }
  const std::uint32_t parent_slot = SlotOf(parent);
  if (parent_slot == FlatHashIndex::kNone) {
    return Status::NotFound(
        StrCat("order parent ", parent, " not in dimension '", name(), "'"));
  }
  CategoryTypeIndex child_cat = value_infos_[child_slot].category;
  CategoryTypeIndex parent_cat = value_infos_[parent_slot].category;
  if (child_cat == parent_cat || !type_->LessEq(child_cat, parent_cat)) {
    return Status::InvariantViolation(StrCat(
        "order edge in dimension '", name(), "' must go from category '",
        type_->category(child_cat).name, "' to a strictly larger category; '",
        type_->category(parent_cat).name, "' is not"));
  }
  if (prob <= 0.0 || prob > 1.0) {
    return Status::InvalidArgument(
        StrCat("containment probability ", prob, " outside (0,1]"));
  }
  if (life.Empty()) {
    return Status::InvalidArgument("order edge with empty lifespan");
  }
  if (edges_by_child_.size() < value_ids_.size()) {
    edges_by_child_.resize(value_ids_.size());
    edges_by_parent_.resize(value_ids_.size());
  }
  // Coalesce with an existing edge for the same pair: the attached time is
  // the *maximal* chronon set, so repeated assertions union.
  for (std::size_t index : edges_by_child_[child_slot]) {
    Edge& edge = edges_[index];
    if (edge.parent == parent) {
      if (edge.prob != prob) {
        return Status::InvariantViolation(
            StrCat("conflicting probabilities for ", child, " <= ", parent,
                   " in dimension '", name(), "': ", edge.prob, " vs ",
                   prob));
      }
      edge.life = edge.life.Union(life);
      InvalidateClosures();
      return Status::OK();
    }
  }
  edges_by_child_[child_slot].push_back(edges_.size());
  edges_by_parent_[parent_slot].push_back(edges_.size());
  edges_.push_back(Edge{child, parent, life, prob});
  if (child_slot >= append_watermark_) {
    // A brand-new edge under a freshly appended child. No older value can
    // reach the child upward (that would need an edge from an older child
    // to a fresh parent, which AddOrder classifies as structural), so
    // every older value's upward closure is unchanged: drop only the
    // fresh slots' up/ancestor memos and the downward memos.
    InvalidateForAppendedEdge();
  } else {
    // Reachability of pre-existing values changed: drop everything.
    InvalidateClosures();
  }
  return Status::OK();
}

void Dimension::InvalidateClosures() {
  up_memo_.clear();
  down_memo_.clear();
  anc_memo_.clear();
  ++version_;
  ++structural_version_;
  append_watermark_ = static_cast<std::uint32_t>(value_ids_.size());
  publish_frozen_ = false;
}

void Dimension::InvalidateForAppendedEdge() {
  // Downward closures of the new ancestors gained a descendant; which
  // older slots those are is not tracked, so the downward memo drops
  // wholesale (it is rebuilt lazily, and the append paths never read it).
  down_memo_.clear();
  // Fresh values may have memoized their (previously edge-less) closures
  // between appends.
  for (std::size_t slot = append_watermark_; slot < up_memo_.size(); ++slot) {
    up_memo_[slot] = nullptr;
  }
  for (std::size_t slot = append_watermark_; slot < anc_memo_.size();
       ++slot) {
    anc_memo_[slot] = nullptr;
  }
  ++version_;
  publish_frozen_ = false;
}

Representation& Dimension::RepresentationFor(CategoryTypeIndex category,
                                             std::string_view rep_name) {
  // Closures do not read representations, so the memos stay; compiled
  // snapshots (their numeric column) and warm aggregates do.
  ++version_;
  ++structural_version_;
  append_watermark_ = static_cast<std::uint32_t>(value_ids_.size());
  publish_frozen_ = false;
  auto it = representations_.find(std::make_pair(category, rep_name));
  if (it == representations_.end()) {
    it = representations_
             .emplace(std::make_pair(category, std::string(rep_name)),
                      Representation(std::string(rep_name)))
             .first;
  }
  return it->second;
}

Result<const Representation*> Dimension::FindRepresentation(
    CategoryTypeIndex category, std::string_view rep_name) const {
  auto it = representations_.find(std::make_pair(category, rep_name));
  if (it == representations_.end()) {
    return Status::NotFound(StrCat("no representation '", rep_name,
                                   "' for category '",
                                   type_->category(category).name,
                                   "' of dimension '", name(), "'"));
  }
  return &it->second;
}

std::vector<std::tuple<CategoryTypeIndex, std::string, const Representation*>>
Dimension::AllRepresentations() const {
  std::vector<std::tuple<CategoryTypeIndex, std::string, const Representation*>>
      result;
  result.reserve(representations_.size());
  for (const auto& [key, rep] : representations_) {
    result.emplace_back(key.first, key.second, &rep);
  }
  return result;
}

Result<double> Dimension::NumericValueOf(ValueId id, Chronon at) const {
  MDDC_ASSIGN_OR_RETURN(CategoryTypeIndex category, CategoryOf(id));
  // Preferred: an explicitly numeric representation named "Value".
  if (auto named = FindRepresentation(category, "Value"); named.ok()) {
    auto numeric = (*named)->GetNumeric(id, at);
    if (numeric.ok()) return numeric;
  }
  for (const auto& [key, rep] : representations_) {
    if (key.first != category || key.second == "Value") continue;
    auto numeric = rep.GetNumeric(id, at);
    if (numeric.ok()) return numeric;
  }
  return Status::NotFound(
      StrCat("value ", id, " of dimension '", name(),
             "' has no numeric representation at the requested time"));
}

bool Dimension::NumericValueIsTimeless(ValueId id) const {
  auto category = CategoryOf(id);
  if (!category.ok()) return true;  // NumericValueOf fails at every chronon
  for (const auto& [key, rep] : representations_) {
    if (key.first == *category && !rep.TimelessFor(id)) return false;
  }
  return true;
}

bool Dimension::HasValue(ValueId id) const {
  return SlotOf(id) != FlatHashIndex::kNone;
}

Result<CategoryTypeIndex> Dimension::CategoryOf(ValueId id) const {
  const std::uint32_t slot = SlotOf(id);
  if (slot == FlatHashIndex::kNone) {
    return Status::NotFound(
        StrCat("value ", id, " not in dimension '", name(), "'"));
  }
  return value_infos_[slot].category;
}

Result<Lifespan> Dimension::MembershipOf(ValueId id) const {
  const std::uint32_t slot = SlotOf(id);
  if (slot == FlatHashIndex::kNone) {
    return Status::NotFound(
        StrCat("value ", id, " not in dimension '", name(), "'"));
  }
  return value_infos_[slot].membership;
}

std::vector<ValueId> Dimension::ValuesIn(CategoryTypeIndex category) const {
  if (category >= members_by_category_.size()) return {};
  return members_by_category_[category];
}

std::vector<ValueId> Dimension::AllValues() const {
  std::vector<ValueId> result;
  result.reserve(value_ids_.size());
  for (std::uint32_t slot : SortedSlots()) result.push_back(value_ids_[slot]);
  return result;
}

Lifespan Dimension::ContainmentSpan(ValueId e1, ValueId e2) const {
  const std::uint32_t slot1 = SlotOf(e1);
  if (slot1 == FlatHashIndex::kNone || !HasValue(e2)) {
    return Lifespan{TemporalElement::Never(), TemporalElement::Never()};
  }
  if (e1 == e2) return value_infos_[slot1].membership;
  if (e2 == top_value_) return Lifespan::AlwaysSpan();
  for (const Containment& c : Reach(e1, /*upward=*/true, kNowChronon)) {
    if (c.value == e2) return c.life;
  }
  return Lifespan{TemporalElement::Never(), TemporalElement::Never()};
}

bool Dimension::LessEqAt(ValueId e1, ValueId e2, Chronon at) const {
  return ContainmentSpan(e1, e2).valid.Contains(at);
}

double Dimension::ContainmentProbAt(ValueId e1, ValueId e2,
                                    Chronon at) const {
  const std::uint32_t slot1 = SlotOf(e1);
  if (slot1 == FlatHashIndex::kNone || !HasValue(e2)) return 0.0;
  if (e1 == e2) {
    return value_infos_[slot1].membership.valid.Contains(at) ? 1.0 : 0.0;
  }
  if (e2 == top_value_) return 1.0;
  for (const Containment& c : Reach(e1, /*upward=*/true, at)) {
    if (c.value == e2) return c.life.valid.Contains(at) ? c.prob : 0.0;
  }
  return 0.0;
}

std::vector<Dimension::Containment> Dimension::ComputeAncestors(
    ValueId e, Chronon prob_at) const {
  std::vector<Containment> result = Reach(e, /*upward=*/true, prob_at);
  // Top containment is unconditional; ensure it is present with full span.
  bool has_top = false;
  for (Containment& c : result) {
    if (c.value == top_value_) {
      c.life = Lifespan::AlwaysSpan();
      c.prob = 1.0;
      has_top = true;
    }
  }
  if (!has_top && e != top_value_ && HasValue(e)) {
    result.push_back(Containment{top_value_, Lifespan::AlwaysSpan(), 1.0});
  }
  return result;
}

std::vector<Dimension::Containment> Dimension::Ancestors(
    ValueId e, Chronon prob_at) const {
  return AncestorsView(e, prob_at);
}

const std::vector<Dimension::Containment>& Dimension::AncestorsView(
    ValueId e, Chronon prob_at) const {
  const std::uint32_t slot = SlotOf(e);
  if (slot == FlatHashIndex::kNone) return kNoContainments;
  if (memo_enabled_) {
    if (anc_memo_.size() < value_ids_.size()) {
      anc_memo_.resize(value_ids_.size());
    }
    std::unique_ptr<std::vector<Containment>>& entry = anc_memo_[slot];
    if (entry == nullptr) {
      entry = std::make_unique<std::vector<Containment>>(
          ComputeAncestors(e, prob_at));
    }
    return *entry;
  }
  anc_scratch_ = ComputeAncestors(e, prob_at);
  return anc_scratch_;
}

std::vector<Dimension::Containment> Dimension::AncestorsIn(
    ValueId e, CategoryTypeIndex category, Chronon prob_at) const {
  std::vector<Containment> result;
  for (const Containment& c : AncestorsView(e, prob_at)) {
    auto cat = CategoryOf(c.value);
    if (cat.ok() && *cat == category) result.push_back(c);
  }
  return result;
}

std::vector<Dimension::Containment> Dimension::Descendants(
    ValueId e, Chronon prob_at) const {
  if (e == top_value_) {
    // Top contains everything unconditionally.
    std::vector<Containment> result;
    result.reserve(value_ids_.size() - 1);
    for (std::uint32_t slot : SortedSlots()) {
      if (value_ids_[slot] == top_value_) continue;
      result.push_back(Containment{value_ids_[slot],
                                   value_infos_[slot].membership, 1.0});
    }
    return result;
  }
  return Reach(e, /*upward=*/false, prob_at);
}

std::vector<Dimension::Containment> Dimension::DescendantsIn(
    ValueId e, CategoryTypeIndex category, Chronon prob_at) const {
  std::vector<Containment> result;
  for (Containment& c : Descendants(e, prob_at)) {
    auto cat = CategoryOf(c.value);
    if (cat.ok() && *cat == category) result.push_back(std::move(c));
  }
  return result;
}

std::vector<const Dimension::Edge*> Dimension::EdgesFromChild(
    ValueId id) const {
  std::vector<const Edge*> result;
  for (std::size_t index : EdgeIndexesFromChild(id)) {
    result.push_back(&edges_[index]);
  }
  return result;
}

std::vector<const Dimension::Edge*> Dimension::EdgesToParent(
    ValueId id) const {
  std::vector<const Edge*> result;
  for (std::size_t index : EdgeIndexesToParent(id)) {
    result.push_back(&edges_[index]);
  }
  return result;
}

const std::vector<std::size_t>& Dimension::EdgeIndexesFromChild(
    ValueId id) const {
  const std::uint32_t slot = SlotOf(id);
  if (slot == FlatHashIndex::kNone || slot >= edges_by_child_.size()) {
    return kNoEdgeIndexes;
  }
  return edges_by_child_[slot];
}

const std::vector<std::size_t>& Dimension::EdgeIndexesToParent(
    ValueId id) const {
  const std::uint32_t slot = SlotOf(id);
  if (slot == FlatHashIndex::kNone || slot >= edges_by_parent_.size()) {
    return kNoEdgeIndexes;
  }
  return edges_by_parent_[slot];
}

const std::vector<ValueId>& Dimension::ValuesInView(
    CategoryTypeIndex category) const {
  if (category >= members_by_category_.size()) return kNoValues;
  return members_by_category_[category];
}

const std::vector<Dimension::Containment>& Dimension::Reach(
    ValueId start, bool upward, Chronon prob_at) const {
  (void)prob_at;  // probabilities are atemporal; kept for API stability
  const std::uint32_t slot = SlotOf(start);
  if (slot == FlatHashIndex::kNone) return kNoContainments;
  if (memo_enabled_) {
    MemoTable& memo = upward ? up_memo_ : down_memo_;
    if (memo.size() < value_ids_.size()) memo.resize(value_ids_.size());
    std::unique_ptr<std::vector<Containment>>& entry = memo[slot];
    if (entry == nullptr) {
      entry = std::make_unique<std::vector<Containment>>(
          ComputeReach(start, upward));
    }
    return *entry;
  }
  reach_scratch_ = ComputeReach(start, upward);
  return reach_scratch_;
}

std::vector<Dimension::Containment> Dimension::ComputeReach(
    ValueId start, bool upward) const {
  std::vector<Containment> result;
  const std::uint32_t start_slot = SlotOf(start);
  if (start_slot == FlatHashIndex::kNone) return result;

  const std::vector<std::vector<std::size_t>>& forward =
      upward ? edges_by_child_ : edges_by_parent_;

  // Per-slot dense scratch with touched-list reset: one query touches only
  // the reachable sub-DAG, and steady-state queries allocate nothing.
  ReachScratch& w = reach_work_;
  const std::size_t n = value_ids_.size();
  if (w.pending.size() < n) {
    w.pending.resize(n, 0);
    w.marked.resize(n, 0);
    w.seen.resize(n, 0);
    w.has_span.resize(n, 0);
    w.has_prob.resize(n, 0);
    w.span.resize(n);
    w.prob.resize(n, 0.0);
    w.not_prob.resize(n, 0.0);
  }
  w.touched.clear();
  w.queue.clear();
  w.ready.clear();

  auto touch = [&](std::uint32_t s) {
    if (w.marked[s] == 0) {
      w.marked[s] = 1;
      w.touched.push_back(s);
    }
  };

  // 1. Collect the reachable sub-DAG, counting per-target in-edges.
  touch(start_slot);
  w.seen[start_slot] = 1;
  w.queue.push_back(start_slot);
  for (std::size_t head = 0; head < w.queue.size(); ++head) {
    const std::uint32_t current = w.queue[head];
    if (current >= forward.size()) continue;
    for (std::size_t index : forward[current]) {
      const Edge& edge = edges_[index];
      const std::uint32_t target = SlotOf(upward ? edge.parent : edge.child);
      touch(target);
      ++w.pending[target];
      if (w.seen[target] == 0) {
        w.seen[target] = 1;
        w.queue.push_back(target);
      }
    }
  }

  // 2. Relax in topological order. span accumulates the union over paths
  //    of the intersection of edge lifespans along each path; not_prob
  //    accumulates the product of (1 - p_path) factor-wise across
  //    immediate predecessors (noisy-or).
  // The start's span is Always: the time of a containment e1 <= e2 is
  // carried entirely by the order edges (paper Section 3.2), not by the
  // category membership of e1.
  w.span[start_slot] = Lifespan::AlwaysSpan();
  w.has_span[start_slot] = 1;
  w.prob[start_slot] = 1.0;
  w.has_prob[start_slot] = 1;
  w.ready.push_back(start_slot);
  for (std::size_t head = 0; head < w.ready.size(); ++head) {
    const std::uint32_t current = w.ready[head];
    if (current >= forward.size()) continue;
    for (std::size_t index : forward[current]) {
      const Edge& edge = edges_[index];
      const std::uint32_t target = SlotOf(upward ? edge.parent : edge.child);
      const Lifespan via = w.span[current].Intersect(edge.life);
      if (w.has_span[target] == 0) {
        w.span[target] = via;
        w.has_span[target] = 1;
        w.not_prob[target] = 1.0;
      } else {
        w.span[target] = w.span[target].Union(via);
      }
      // Probabilities are atemporal attachments (paper Section 3.3): the
      // temporal dimension of a containment is carried by the lifespan,
      // so the DP multiplies path probabilities regardless of prob_at.
      w.not_prob[target] *= 1.0 - w.prob[current] * edge.prob;
      if (--w.pending[target] == 0) {
        w.prob[target] = 1.0 - w.not_prob[target];
        w.has_prob[target] = 1;
        w.ready.push_back(target);
      }
    }
  }

  // 3. Collect (ascending by ValueId, the canonical closure order) and
  //    reset the touched slots for the next query.
  for (std::uint32_t s : w.touched) {
    if (s != start_slot && w.has_span[s] != 0 && !w.span[s].Empty()) {
      // A value reachable only through lifespan-incompatible edges (empty
      // intersection along every path) is not contained at any time.
      result.push_back(Containment{value_ids_[s], w.span[s],
                                   w.has_prob[s] != 0 ? w.prob[s] : 0.0});
    }
    w.pending[s] = 0;
    w.marked[s] = 0;
    w.seen[s] = 0;
    w.has_span[s] = 0;
    w.has_prob[s] = 0;
    w.span[s] = Lifespan{};
    w.prob[s] = 0.0;
    w.not_prob[s] = 0.0;
  }
  std::sort(result.begin(), result.end(),
            [](const Containment& a, const Containment& b) {
              return a.value < b.value;
            });
  return result;
}

void Dimension::WarmClosureMemo() const {
  if (!memo_enabled_) return;
  // Warm the sorted-slot cache too: enumeration after the warm-up must be
  // a pure read for concurrent callers.
  (void)SortedSlots();
  for (ValueId id : value_ids_) {
    (void)Reach(id, /*upward=*/true, kNowChronon);
    (void)Reach(id, /*upward=*/false, kNowChronon);
    // The ancestor view keeps its own memo (post-fixup form); warm it too
    // so concurrent readers after the warm-up stay pure reads.
    (void)AncestorsView(id, kNowChronon);
  }
}

Result<Dimension> Dimension::UnionWith(const Dimension& a,
                                       const Dimension& b) {
  if (!a.type().EquivalentTo(b.type())) {
    return Status::SchemaMismatch(
        StrCat("dimension union requires equivalent types; got '", a.name(),
               "' and '", b.name(), "' with differing structure"));
  }
  Dimension result = a;
  for (std::uint32_t slot : b.SortedSlots()) {
    const ValueId id = b.value_ids_[slot];
    if (id == b.top_value_) continue;
    const ValueInfo& info = b.value_infos_[slot];
    const std::uint32_t mine = result.SlotOf(id);
    if (mine == FlatHashIndex::kNone) {
      MDDC_RETURN_NOT_OK(result.AddValue(info.category, id, info.membership));
    } else {
      ValueInfo& existing = result.value_infos_[mine];
      if (existing.category != info.category) {
        return Status::InvariantViolation(
            StrCat("value ", id, " is in category '",
                   a.type().category(existing.category).name, "' in one ",
                   "dimension and '", b.type().category(info.category).name,
                   "' in the other"));
      }
      existing.membership = existing.membership.Union(info.membership);
      // Direct membership mutation: compiled snapshots of `result` (shared
      // with `a` by the copy above) must not survive it — structurally,
      // since the mutated value already exists.
      ++result.version_;
      ++result.structural_version_;
      result.append_watermark_ =
          static_cast<std::uint32_t>(result.value_ids_.size());
      result.publish_frozen_ = false;
    }
  }
  for (const Edge& edge : b.edges_) {
    MDDC_RETURN_NOT_OK(
        result.AddOrder(edge.child, edge.parent, edge.life, edge.prob));
  }
  for (const auto& [key, rep] : b.representations_) {
    Representation& target =
        result.RepresentationFor(key.first, key.second);
    for (std::uint32_t slot : b.SortedSlots()) {
      for (const auto& [text, life] : rep.GetAll(b.value_ids_[slot])) {
        MDDC_RETURN_NOT_OK(target.Set(b.value_ids_[slot], text, life));
      }
    }
  }
  return result;
}

Result<Dimension> Dimension::Subdimension(
    const std::vector<CategoryTypeIndex>& keep) const {
  MDDC_ASSIGN_OR_RETURN(std::shared_ptr<const DimensionType> new_type,
                        type_->Restrict(keep));
  Dimension result(new_type);

  // Map old category index -> new index by name.
  std::map<CategoryTypeIndex, CategoryTypeIndex> old_to_new;
  for (CategoryTypeIndex i : keep) {
    MDDC_ASSIGN_OR_RETURN(CategoryTypeIndex new_index,
                          new_type->Find(type_->category(i).name));
    old_to_new[i] = new_index;
  }

  // Values of kept (non-top) categories.
  for (const auto& [old_cat, new_cat] : old_to_new) {
    if (new_cat == new_type->top()) continue;
    for (ValueId id : ValuesIn(old_cat)) {
      MDDC_RETURN_NOT_OK(
          result.AddValue(new_cat, id, value_infos_[SlotOf(id)].membership));
    }
    // Carry representations.
    for (const auto& [key, rep] : representations_) {
      if (key.first != old_cat) continue;
      Representation& target = result.RepresentationFor(new_cat, key.second);
      for (ValueId id : ValuesIn(old_cat)) {
        for (const auto& [text, life] : rep.GetAll(id)) {
          MDDC_RETURN_NOT_OK(target.Set(id, text, life));
        }
      }
    }
  }

  // The restricted order: for each kept value, link to its nearest kept
  // ancestors (transitive containment, so dropping an intermediate
  // category keeps lower values connected to higher ones).
  for (const auto& [old_cat, new_cat] : old_to_new) {
    if (new_cat == new_type->top()) continue;
    for (ValueId id : ValuesIn(old_cat)) {
      for (const Containment& c : Ancestors(id)) {
        if (c.value == top_value_) continue;
        auto ancestor_cat = CategoryOf(c.value);
        if (!ancestor_cat.ok()) continue;
        auto mapped = old_to_new.find(*ancestor_cat);
        if (mapped == old_to_new.end()) continue;
        // Only link to immediate kept parents in the new type to avoid a
        // quadratic blowup of redundant edges.
        bool immediate = false;
        for (CategoryTypeIndex parent : new_type->Pred(new_cat)) {
          if (parent == mapped->second) {
            immediate = true;
            break;
          }
        }
        if (!immediate) continue;
        double prob = c.prob > 0.0 ? c.prob : 1.0;
        MDDC_RETURN_NOT_OK(result.AddOrder(id, c.value, c.life, prob));
      }
    }
  }
  return result;
}

Result<Dimension> Dimension::RestrictAbove(CategoryTypeIndex new_bottom) const {
  return Subdimension(type_->AtOrAbove(new_bottom));
}

Dimension Dimension::RenamedAs(std::string new_name) const {
  Dimension result = *this;
  result.type_ = type_->WithName(std::move(new_name));
  return result;
}

Status Dimension::Validate() const {
  for (const Edge& edge : edges_) {
    const std::uint32_t child = SlotOf(edge.child);
    const std::uint32_t parent = SlotOf(edge.parent);
    if (child == FlatHashIndex::kNone || parent == FlatHashIndex::kNone) {
      return Status::InvariantViolation(
          StrCat("dangling order edge ", edge.child, " <= ", edge.parent,
                 " in dimension '", name(), "'"));
    }
    if (!type_->LessEq(value_infos_[child].category,
                       value_infos_[parent].category) ||
        value_infos_[child].category == value_infos_[parent].category) {
      return Status::InvariantViolation(
          StrCat("order edge ", edge.child, " <= ", edge.parent,
                 " violates the category lattice of dimension '", name(),
                 "'"));
    }
    if (edge.prob <= 0.0 || edge.prob > 1.0) {
      return Status::InvariantViolation(
          StrCat("edge probability ", edge.prob, " outside (0,1]"));
    }
  }
  for (std::uint32_t slot : SortedSlots()) {
    const ValueInfo& info = value_infos_[slot];
    if (info.membership.Empty()) {
      return Status::InvariantViolation(
          StrCat("value ", value_ids_[slot], " has empty membership"));
    }
    if (info.category >= type_->category_count()) {
      return Status::InvariantViolation(
          StrCat("value ", value_ids_[slot], " has out-of-range category"));
    }
  }
  return Status::OK();
}

std::string Dimension::ToString() const {
  std::string out = StrCat("Dimension ", name(), " (", value_ids_.size(),
                           " values, ", edges_.size(), " order edges)\n");
  for (CategoryTypeIndex i : type_->AtOrAbove(type_->bottom())) {
    out += StrCat("  ", type_->category(i).name, ": {");
    std::vector<std::string> names;
    for (ValueId id : ValuesIn(i)) {
      names.push_back(id == top_value_ ? "T" : std::to_string(id.raw()));
    }
    out += Join(names, ",");
    out += "}\n";
  }
  for (const Edge& edge : edges_) {
    out += StrCat("  ", edge.child, " <= ", edge.parent);
    if (!(edge.life == Lifespan::AlwaysSpan())) {
      out += StrCat(" during ", edge.life.ToString());
    }
    if (edge.prob != 1.0) out += StrCat(" p=", edge.prob);
    out += "\n";
  }
  return out;
}

}  // namespace mddc
