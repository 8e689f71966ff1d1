#include "algebra/predicate.h"

#include <cstdint>

#include "common/strings.h"
#include "engine/rollup_index.h"

namespace mddc {

struct Predicate::Node {
  enum class Kind {
    kTrue,
    kAnd,
    kOr,
    kNot,
    kCharacterizedBy,
    kCharacterizedThroughout,
    kHasValueInCategory,
    kNumericCompare,
    kMinProbability,
    kSameRepresentedValue,
  };

  Kind kind = Kind::kTrue;
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;

  std::size_t dim = 0;
  std::size_t dim_b = 0;
  ValueId value;
  CategoryTypeIndex category = 0;
  TemporalElement element;
  bool any_time = true;          // kCharacterizedBy: no time restriction
  Comparison comparison = Comparison::kEq;
  double bound = 0.0;
  double threshold = 0.0;
  Chronon at = kNowChronon;
  // RepresentationEquals leaves carry the name lookup, resolved against
  // the MO at evaluation time.
  bool needs_rep_resolution = false;
  std::string rep_name;
  std::string rep_text;
};

namespace {

using Node = Predicate::Node;

Result<bool> EvaluateNode(const Node& node, const MdObject& mo, FactId fact);

Result<bool> EvaluateCharacterizedBy(const Node& node, const MdObject& mo,
                                     FactId fact) {
  if (node.dim >= mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("predicate references dimension ", node.dim, " of a ",
               mo.dimension_count(), "-dimensional MO"));
  }
  ValueId target = node.value;
  if (node.needs_rep_resolution) {
    auto rep =
        mo.dimension(node.dim).FindRepresentation(node.category, node.rep_name);
    if (!rep.ok()) return false;  // no such representation: nothing matches
    auto resolved = (*rep)->Lookup(node.rep_text, node.at);
    if (!resolved.ok()) return false;  // name denotes no value at that time
    target = *resolved;
  }
  for (const MdObject::Characterization& c :
       mo.CharacterizedBy(fact, node.dim)) {
    if (c.value != target) continue;
    if (node.any_time) return true;
    if (c.life.valid.Covers(node.element)) return true;
  }
  return false;
}

Result<bool> EvaluateHasValueInCategory(const Node& node, const MdObject& mo,
                                        FactId fact) {
  if (node.dim >= mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("predicate references dimension ", node.dim, " of a ",
               mo.dimension_count(), "-dimensional MO"));
  }
  const Dimension& dimension = mo.dimension(node.dim);
  for (const MdObject::Characterization& c :
       mo.CharacterizedBy(fact, node.dim)) {
    if (c.value == dimension.top_value()) continue;
    auto category = dimension.CategoryOf(c.value);
    if (category.ok() && *category == node.category) return true;
  }
  return false;
}

/// Whether a number satisfies the leaf's numeric comparison.
bool Compares(const Node& node, double numeric) {
  switch (node.comparison) {
    case Predicate::Comparison::kLess:
      return numeric < node.bound;
    case Predicate::Comparison::kLessEq:
      return numeric <= node.bound;
    case Predicate::Comparison::kEq:
      return numeric == node.bound;
    case Predicate::Comparison::kGreaterEq:
      return numeric >= node.bound;
    case Predicate::Comparison::kGreater:
      return numeric > node.bound;
  }
  return false;
}

/// Whether one directly related value satisfies a numeric comparison:
/// top and non-numeric values never match.
bool NumericMatches(const Node& node, const Dimension& dimension,
                    ValueId value) {
  if (value == dimension.top_value()) return false;
  auto numeric = dimension.NumericValueOf(value, node.at);
  return numeric.ok() && Compares(node, *numeric);
}

Result<bool> EvaluateNumericCompare(const Node& node, const MdObject& mo,
                                    FactId fact) {
  if (node.dim >= mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("predicate references dimension ", node.dim, " of a ",
               mo.dimension_count(), "-dimensional MO"));
  }
  for (const FactDimRelation::Entry* entry :
       mo.relation(node.dim).ForFact(fact)) {
    if (NumericMatches(node, mo.dimension(node.dim), entry->value)) {
      return true;
    }
  }
  return false;
}

Result<bool> EvaluateMinProbability(const Node& node, const MdObject& mo,
                                    FactId fact) {
  for (const MdObject::Characterization& c :
       mo.CharacterizedBy(fact, node.dim, node.at)) {
    if (c.value == node.value && c.prob >= node.threshold &&
        c.life.valid.Contains(node.at)) {
      return true;
    }
  }
  return false;
}

Result<bool> EvaluateSameRepresentedValue(const Node& node,
                                          const MdObject& mo, FactId fact) {
  if (node.dim >= mo.dimension_count() ||
      node.dim_b >= mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("predicate references dimension ", node.dim, " or ",
               node.dim_b, " of a ", mo.dimension_count(),
               "-dimensional MO"));
  }
  auto texts_of = [&](std::size_t dim) {
    std::vector<std::string> texts;
    const Dimension& dimension = mo.dimension(dim);
    for (const FactDimRelation::Entry* entry :
         mo.relation(dim).ForFact(fact)) {
      if (entry->value == dimension.top_value()) continue;
      auto category = dimension.CategoryOf(entry->value);
      if (!category.ok()) continue;
      auto rep = dimension.FindRepresentation(*category, node.rep_name);
      if (!rep.ok()) continue;
      auto text = (*rep)->Get(entry->value, node.at);
      if (text.ok()) texts.push_back(*text);
    }
    return texts;
  };
  std::vector<std::string> left = texts_of(node.dim);
  std::vector<std::string> right = texts_of(node.dim_b);
  for (const std::string& a : left) {
    for (const std::string& b : right) {
      if (a == b) return true;
    }
  }
  return false;
}

Result<bool> EvaluateNode(const Node& node, const MdObject& mo, FactId fact) {
  switch (node.kind) {
    case Node::Kind::kTrue:
      return true;
    case Node::Kind::kAnd: {
      MDDC_ASSIGN_OR_RETURN(bool left, EvaluateNode(*node.left, mo, fact));
      if (!left) return false;
      return EvaluateNode(*node.right, mo, fact);
    }
    case Node::Kind::kOr: {
      MDDC_ASSIGN_OR_RETURN(bool left, EvaluateNode(*node.left, mo, fact));
      if (left) return true;
      return EvaluateNode(*node.right, mo, fact);
    }
    case Node::Kind::kNot: {
      MDDC_ASSIGN_OR_RETURN(bool inner, EvaluateNode(*node.left, mo, fact));
      return !inner;
    }
    case Node::Kind::kCharacterizedBy:
    case Node::Kind::kCharacterizedThroughout:
      return EvaluateCharacterizedBy(node, mo, fact);
    case Node::Kind::kHasValueInCategory:
      return EvaluateHasValueInCategory(node, mo, fact);
    case Node::Kind::kNumericCompare:
      return EvaluateNumericCompare(node, mo, fact);
    case Node::Kind::kMinProbability:
      return EvaluateMinProbability(node, mo, fact);
    case Node::Kind::kSameRepresentedValue:
      return EvaluateSameRepresentedValue(node, mo, fact);
  }
  return Status::InvalidArgument("unknown predicate node kind");
}

std::string NodeToString(const Node& node) {
  switch (node.kind) {
    case Node::Kind::kTrue:
      return "true";
    case Node::Kind::kAnd:
      return StrCat("(", NodeToString(*node.left), " AND ",
                    NodeToString(*node.right), ")");
    case Node::Kind::kOr:
      return StrCat("(", NodeToString(*node.left), " OR ",
                    NodeToString(*node.right), ")");
    case Node::Kind::kNot:
      return StrCat("NOT ", NodeToString(*node.left));
    case Node::Kind::kCharacterizedBy:
      if (node.any_time) return StrCat("char(", node.dim, ",", node.value, ")");
      return StrCat("char(", node.dim, ",", node.value, "@",
                    node.element.ToString(), ")");
    case Node::Kind::kCharacterizedThroughout:
      return StrCat("char(", node.dim, ",", node.value, " throughout ",
                    node.element.ToString(), ")");
    case Node::Kind::kHasValueInCategory:
      return StrCat("incat(", node.dim, ",", node.category, ")");
    case Node::Kind::kNumericCompare: {
      const char* op = "=";
      switch (node.comparison) {
        case Predicate::Comparison::kLess:
          op = "<";
          break;
        case Predicate::Comparison::kLessEq:
          op = "<=";
          break;
        case Predicate::Comparison::kEq:
          op = "=";
          break;
        case Predicate::Comparison::kGreaterEq:
          op = ">=";
          break;
        case Predicate::Comparison::kGreater:
          op = ">";
          break;
      }
      return StrCat("num(", node.dim, " ", op, " ", node.bound, ")");
    }
    case Node::Kind::kMinProbability:
      return StrCat("prob(", node.dim, ",", node.value, " >= ",
                    node.threshold, ")");
    case Node::Kind::kSameRepresentedValue:
      return StrCat("same(", node.dim, ",", node.dim_b, ",", node.rep_name,
                    ")");
  }
  return "?";
}

// ---- Keep masks ------------------------------------------------------------

/// True when evaluating `node` on some fact could return an error (a
/// dimension index out of range); such a predicate keeps the per-fact
/// loop, whose And/Or short-circuits decide which error surfaces first.
bool MayFail(const Node& node, const MdObject& mo) {
  const std::size_t n = mo.dimension_count();
  switch (node.kind) {
    case Node::Kind::kTrue:
    case Node::Kind::kMinProbability:
      return false;
    case Node::Kind::kAnd:
    case Node::Kind::kOr:
      return MayFail(*node.left, mo) || MayFail(*node.right, mo);
    case Node::Kind::kNot:
      return MayFail(*node.left, mo);
    case Node::Kind::kCharacterizedBy:
    case Node::Kind::kCharacterizedThroughout:
    case Node::Kind::kHasValueInCategory:
    case Node::Kind::kNumericCompare:
      return node.dim >= n;
    case Node::Kind::kSameRepresentedValue:
      return node.dim >= n || node.dim_b >= n;
  }
  return true;
}

/// The snapshot a leaf is decided per value under, or null when the leaf
/// runs per fact: any-time characterizations and category tests need the
/// flat rollup table (their closure is then one array read), numeric
/// comparisons only the numbering and the numeric column.
std::shared_ptr<const RollupIndex> ValueLevelIndex(const Node& node,
                                                   const MdObject& mo) {
  const bool per_value =
      (node.kind == Node::Kind::kCharacterizedBy && node.any_time &&
       !node.needs_rep_resolution) ||
      node.kind == Node::Kind::kHasValueInCategory ||
      node.kind == Node::Kind::kNumericCompare;
  if (!per_value || node.dim >= mo.dimension_count()) return nullptr;
  std::shared_ptr<const RollupIndex> index =
      RollupIndex::For(mo.dimension(node.dim));
  if (node.kind != Node::Kind::kNumericCompare && !index->has_flat_table()) {
    return nullptr;
  }
  return index;
}

/// One sweep of dimension `dim`'s CSR rows, chunk by chunk, in lockstep
/// with mo.facts(): a fact is kept when some pair's value passes
/// `hit(dense, value)` (dense is kNone for a value outside the snapshot).
/// A column hit is one array read; any other fact resolves each pair
/// through DenseOf.
template <typename Hit>
std::vector<bool> SweepValues(const MdObject& mo, std::size_t dim,
                              const RollupIndex& index, Hit&& hit) {
  const std::vector<FactId>& facts = mo.facts();
  const FactDimRelation& relation = mo.relation(dim);
  const ChunkedVector<FactDimRelation::FactSpan>& spans =
      relation.FactSpans();
  const ChunkedVector<std::uint32_t>* column =
      relation.DenseColumn(index.numbering());
  std::vector<bool> mask(facts.size(), false);
  std::size_t f = 0;
  for (std::size_t k = 0; k < spans.chunk_count() && f < facts.size(); ++k) {
    // The column chunks at the same rows as the spans.
    const std::span<const FactDimRelation::FactSpan> rows = spans.Chunk(k);
    const std::uint32_t* slots =
        column != nullptr ? column->Chunk(k).data() : nullptr;
    for (std::size_t r = 0; r < rows.size() && f < facts.size(); ++r) {
      while (f < facts.size() && facts[f] < rows[r].fact) ++f;
      if (f == facts.size() || facts[f] != rows[r].fact) continue;
      if (slots != nullptr && slots[r] != FactDimRelation::kNoDense) {
        mask[f] = hit(slots[r], index.ValueOf(slots[r]));
        continue;
      }
      for (std::size_t e : relation.SpanEntries(rows[r])) {
        const ValueId value = relation.entries()[e].value;
        if (hit(index.DenseOf(value), value)) {
          mask[f] = true;
          break;
        }
      }
    }
  }
  return mask;
}

/// A value-level leaf's mask (see ValueLevelIndex). `stats` (nullable)
/// counts a numeric leaf's NumericValueOf calls.
std::vector<bool> ValueMask(const Node& node, const MdObject& mo,
                            const RollupIndex& index, ExecStats* stats) {
  const Dimension& dimension = mo.dimension(node.dim);
  const ValueId top = dimension.top_value();
  const std::uint32_t top_dense = index.top_dense();
  switch (node.kind) {
    case Node::Kind::kCharacterizedBy: {
      // Every pair characterizes its fact by top.
      if (node.value == top) {
        return SweepValues(mo, node.dim, index,
                           [](std::uint32_t, ValueId) { return true; });
      }
      // f ~> target iff some pair's value rolls up to it: under the flat
      // table's gate every closure is Always, so a pair's (nonempty)
      // lifespan carries over, and probabilities do not matter.
      const std::uint32_t target = index.DenseOf(node.value);
      std::vector<bool> below(index.value_count(), false);
      if (target != RollupIndex::kNone) {
        const CategoryTypeIndex category = index.CategoryOfDense(target);
        for (std::uint32_t d = 0; d < index.value_count(); ++d) {
          below[d] = index.AncestorAt(d, category) == target;
        }
      }
      return SweepValues(mo, node.dim, index,
                         [&](std::uint32_t d, ValueId value) {
                           return d != RollupIndex::kNone ? below[d]
                                                          : value == node.value;
                         });
    }
    case Node::Kind::kHasValueInCategory: {
      std::vector<bool> in_category(index.value_count(), false);
      for (std::uint32_t d = 0; d < index.value_count(); ++d) {
        const std::uint32_t ancestor = index.AncestorAt(d, node.category);
        in_category[d] =
            ancestor != RollupIndex::kNone && ancestor != top_dense;
      }
      return SweepValues(mo, node.dim, index,
                         [&](std::uint32_t d, ValueId) {
                           return d != RollupIndex::kNone && in_category[d];
                         });
    }
    default: {  // kNumericCompare: a compare off the numeric column
      // A value the column decides for every chronon compares its number
      // or never matches; a timed value asks NumericValueOf at node.at
      // once, and a value outside the snapshot on every pair.
      const RollupIndex::NumericColumn& column = index.Numeric(dimension);
      enum : std::uint8_t { kUnknown, kMatch, kNoMatch };
      std::vector<std::uint8_t> timed;  // sized on the first timed value
      std::size_t lookups = 0;
      std::vector<bool> mask = SweepValues(
          mo, node.dim, index, [&](std::uint32_t d, ValueId value) {
            if (d == RollupIndex::kNone) {
              ++lookups;
              return NumericMatches(node, dimension, value);
            }
            if (d == top_dense) return false;
            switch (column.state[d]) {
              case RollupIndex::NumericState::kNumber:
                return Compares(node, column.value[d]);
              case RollupIndex::NumericState::kFails:
                return false;
              case RollupIndex::NumericState::kTimed:
                break;
            }
            if (timed.empty()) timed.assign(index.value_count(), kUnknown);
            if (timed[d] == kUnknown) {
              ++lookups;
              timed[d] =
                  NumericMatches(node, dimension, value) ? kMatch : kNoMatch;
            }
            return timed[d] == kMatch;
          });
      if (stats != nullptr) stats->numeric_lookups += lookups;
      return mask;
    }
  }
}

Result<std::vector<bool>> MaskOf(const Node& node, const MdObject& mo,
                                 ExecStats* stats) {
  const std::vector<FactId>& facts = mo.facts();
  switch (node.kind) {
    case Node::Kind::kTrue:
      return std::vector<bool>(facts.size(), true);
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      MDDC_ASSIGN_OR_RETURN(std::vector<bool> left,
                            MaskOf(*node.left, mo, stats));
      MDDC_ASSIGN_OR_RETURN(std::vector<bool> right,
                            MaskOf(*node.right, mo, stats));
      for (std::size_t f = 0; f < facts.size(); ++f) {
        left[f] = node.kind == Node::Kind::kAnd ? left[f] && right[f]
                                                : left[f] || right[f];
      }
      return left;
    }
    case Node::Kind::kNot: {
      MDDC_ASSIGN_OR_RETURN(std::vector<bool> inner,
                            MaskOf(*node.left, mo, stats));
      inner.flip();
      return inner;
    }
    default:
      break;
  }
  if (std::shared_ptr<const RollupIndex> index = ValueLevelIndex(node, mo)) {
    return ValueMask(node, mo, *index, stats);
  }
  std::vector<bool> mask(facts.size());
  for (std::size_t f = 0; f < facts.size(); ++f) {
    MDDC_ASSIGN_OR_RETURN(bool match, EvaluateNode(node, mo, facts[f]));
    mask[f] = match;
  }
  return mask;
}

void CollectLeaves(const Node& node, const MdObject& mo,
                   std::vector<std::string>& value_level,
                   std::vector<std::string>& per_fact) {
  switch (node.kind) {
    case Node::Kind::kTrue:
      return;
    case Node::Kind::kAnd:
    case Node::Kind::kOr:
      CollectLeaves(*node.left, mo, value_level, per_fact);
      CollectLeaves(*node.right, mo, value_level, per_fact);
      return;
    case Node::Kind::kNot:
      CollectLeaves(*node.left, mo, value_level, per_fact);
      return;
    default:
      (ValueLevelIndex(node, mo) != nullptr ? value_level : per_fact)
          .push_back(NodeToString(node));
  }
}

}  // namespace

Predicate Predicate::True() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kTrue;
  return Predicate(node);
}

Predicate Predicate::CharacterizedBy(std::size_t dim, ValueId value) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedBy;
  node->dim = dim;
  node->value = value;
  node->any_time = true;
  return Predicate(node);
}

Predicate Predicate::CharacterizedByAt(std::size_t dim, ValueId value,
                                       Chronon at) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedBy;
  node->dim = dim;
  node->value = value;
  node->any_time = false;
  node->element = TemporalElement::At(at);
  return Predicate(node);
}

Predicate Predicate::CharacterizedThroughout(std::size_t dim, ValueId value,
                                             TemporalElement element) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedThroughout;
  node->dim = dim;
  node->value = value;
  node->any_time = false;
  node->element = std::move(element);
  return Predicate(node);
}

Predicate Predicate::HasValueInCategory(std::size_t dim,
                                        CategoryTypeIndex category) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kHasValueInCategory;
  node->dim = dim;
  node->category = category;
  return Predicate(node);
}

Predicate Predicate::RepresentationEquals(std::size_t dim,
                                          CategoryTypeIndex category,
                                          std::string rep_name,
                                          std::string text, Chronon at) {
  // The name -> value resolution needs the MO's dimension, so the lookup
  // parameters are stored on the node and resolved at evaluation time.
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedBy;
  node->dim = dim;
  node->category = category;
  node->any_time = true;
  // Encode the unresolved name pair in element/value via a sentinel: the
  // value is resolved on first evaluation. Simpler and robust: resolve
  // eagerly is impossible without the MO, so we store the strings.
  node->rep_name = std::move(rep_name);
  node->rep_text = std::move(text);
  node->at = at;
  node->needs_rep_resolution = true;
  return Predicate(node);
}

Predicate Predicate::NumericCompare(std::size_t dim, Comparison comparison,
                                    double bound) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kNumericCompare;
  node->dim = dim;
  node->comparison = comparison;
  node->bound = bound;
  return Predicate(node);
}

Predicate Predicate::MinProbability(std::size_t dim, ValueId value,
                                    double threshold, Chronon at) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kMinProbability;
  node->dim = dim;
  node->value = value;
  node->threshold = threshold;
  node->at = at;
  return Predicate(node);
}

Predicate Predicate::SameRepresentedValue(std::size_t dim_a,
                                          std::size_t dim_b,
                                          std::string rep_name, Chronon at) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kSameRepresentedValue;
  node->dim = dim_a;
  node->dim_b = dim_b;
  node->rep_name = std::move(rep_name);
  node->at = at;
  return Predicate(node);
}

Predicate Predicate::And(Predicate other) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kAnd;
  node->left = root_;
  node->right = other.root_;
  return Predicate(node);
}

Predicate Predicate::Or(Predicate other) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kOr;
  node->left = root_;
  node->right = other.root_;
  return Predicate(node);
}

Predicate Predicate::Not() const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kNot;
  node->left = root_;
  return Predicate(node);
}

Result<bool> Predicate::Evaluate(const MdObject& mo, FactId fact) const {
  return EvaluateNode(*root_, mo, fact);
}

Result<std::vector<bool>> Predicate::EvaluateMask(const MdObject& mo,
                                                  ExecStats* stats) const {
  if (!MayFail(*root_, mo)) return MaskOf(*root_, mo, stats);
  std::vector<bool> mask;
  mask.reserve(mo.facts().size());
  for (FactId fact : mo.facts()) {
    MDDC_ASSIGN_OR_RETURN(bool match, EvaluateNode(*root_, mo, fact));
    mask.push_back(match);
  }
  return mask;
}

std::string Predicate::DescribeMask(const MdObject& mo) const {
  if (MayFail(*root_, mo)) return "per fact (an atom can fail)";
  std::vector<std::string> value_level;
  std::vector<std::string> per_fact;
  CollectLeaves(*root_, mo, value_level, per_fact);
  return StrCat("value masks [", Join(value_level, ", "), "], per fact [",
                Join(per_fact, ", "), "]");
}

std::string Predicate::ToString() const { return NodeToString(*root_); }

}  // namespace mddc
