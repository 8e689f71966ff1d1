#include "core/md_object.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/strings.h"

namespace mddc {
namespace {

std::vector<std::shared_ptr<const DimensionType>> TypesOf(
    const std::vector<Dimension>& dimensions) {
  std::vector<std::shared_ptr<const DimensionType>> types;
  types.reserve(dimensions.size());
  for (const Dimension& dimension : dimensions) {
    types.push_back(dimension.type_ptr());
  }
  return types;
}

std::vector<std::shared_ptr<Dimension>> Owned(
    std::vector<Dimension> dimensions) {
  std::vector<std::shared_ptr<Dimension>> owned;
  owned.reserve(dimensions.size());
  for (Dimension& dimension : dimensions) {
    owned.push_back(std::make_shared<Dimension>(std::move(dimension)));
  }
  return owned;
}

}  // namespace

std::string_view TemporalTypeName(TemporalType type) {
  switch (type) {
    case TemporalType::kSnapshot:
      return "snapshot";
    case TemporalType::kValidTime:
      return "valid-time";
    case TemporalType::kTransactionTime:
      return "transaction-time";
    case TemporalType::kBitemporal:
      return "bitemporal";
  }
  return "?";
}

MdObject::MdObject(std::string fact_type, std::vector<Dimension> dimensions,
                   std::shared_ptr<FactRegistry> registry,
                   TemporalType temporal_type)
    : schema_(std::move(fact_type), TypesOf(dimensions)),
      dimensions_(Owned(std::move(dimensions))),
      relations_(dimensions_.size()),
      registry_(std::move(registry)),
      temporal_type_(temporal_type) {}

MdObject::MdObject(const MdObject& other)
    : schema_(other.schema_),
      relations_(other.relations_),
      registry_(other.registry_),
      temporal_type_(other.temporal_type_) {
  // The copy is a writer's draft or a read's working copy, and a draft
  // appends a batch: with room for one, the batch's first AddFact does
  // not reallocate the whole list into twice its size.
  facts_.reserve(other.facts_.size() + kDraftFactHeadroom);
  facts_.assign(other.facts_.begin(), other.facts_.end());
  // A frozen dimension is never written again (dimension_mutable clones
  // it, Seal and WarmAndFreezeForPublish skip it), so sharing it is
  // sharing an immutable value. An unfrozen one may still warm memos
  // lazily, so each copy gets its own.
  dimensions_.reserve(other.dimensions_.size());
  for (const std::shared_ptr<Dimension>& dimension : other.dimensions_) {
    dimensions_.push_back(dimension->publish_frozen()
                              ? dimension
                              : std::make_shared<Dimension>(*dimension));
  }
}

MdObject& MdObject::operator=(const MdObject& other) {
  if (this != &other) {
    MdObject copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Dimension& MdObject::dimension_mutable(std::size_t index) {
  std::shared_ptr<Dimension>& dimension = dimensions_[index];
  // use_count() > 1 means another MO holds this very object, which the
  // copy constructor allows only for a frozen dimension; its readers must
  // never see a store, the freeze flag's included. The count cannot drop
  // to 1 under us while the other holder is alive (see ChunkedVector on
  // why a relaxed count suffices for a draft).
  if (dimension.use_count() > 1) {
    dimension = std::make_shared<Dimension>(*dimension);
  }
  // A private dimension handed out for writing is no longer final: the
  // next publication warms and freezes it again.
  dimension->set_publish_frozen(false);
  return *dimension;
}

bool MdObject::HasFact(FactId fact) const {
  return std::binary_search(facts_.begin(), facts_.end(), fact);
}

Status MdObject::AddFact(FactId fact) {
  if (!fact.valid()) {
    return Status::InvalidArgument("cannot add an invalid fact id");
  }
  auto it = std::lower_bound(facts_.begin(), facts_.end(), fact);
  if (it != facts_.end() && *it == fact) return Status::OK();
  facts_.insert(it, fact);
  return Status::OK();
}

Status MdObject::RemoveFact(FactId fact) {
  auto it = std::lower_bound(facts_.begin(), facts_.end(), fact);
  if (it == facts_.end() || *it != fact) {
    return Status::NotFound(
        StrCat("fact ", fact, " is not in the fact set of this MO"));
  }
  facts_.erase(it);
  // RestrictToFacts reindexes the relation wholesale, dropping any sealed
  // CSR layout — a removal is a structural change no append patch covers
  // (docs/ingestion.md), so the next seal re-sorts from scratch.
  for (FactDimRelation& relation : relations_) {
    relation.RestrictToFacts(facts_);
  }
  return Status::OK();
}

Status MdObject::Relate(std::size_t dim, FactId fact, ValueId value,
                        const Lifespan& life, double prob) {
  if (dim >= dimensions_.size()) {
    return Status::InvalidArgument(
        StrCat("dimension index ", dim, " out of range"));
  }
  if (!HasFact(fact)) {
    return Status::NotFound(
        StrCat("fact ", fact, " is not in the fact set of this MO"));
  }
  if (!dimensions_[dim]->HasValue(value)) {
    return Status::NotFound(StrCat("value ", value, " is not in dimension '",
                                   dimensions_[dim]->name(), "'"));
  }
  return relations_[dim].Add(fact, value, life, prob);
}

Status MdObject::CoverWithTop() {
  for (std::size_t i = 0; i < dimensions_.size(); ++i) {
    for (FactId fact : facts_) {
      if (!relations_[i].HasFact(fact)) {
        MDDC_RETURN_NOT_OK(
            relations_[i].Add(fact, dimensions_[i]->top_value()));
      }
    }
  }
  return Status::OK();
}

Status MdObject::CoverWithTop(const std::vector<FactId>& facts) {
  for (std::size_t i = 0; i < dimensions_.size(); ++i) {
    for (FactId fact : facts) {
      if (!relations_[i].HasFact(fact)) {
        MDDC_RETURN_NOT_OK(
            relations_[i].Add(fact, dimensions_[i]->top_value()));
      }
    }
  }
  return Status::OK();
}

MdObject MdObject::WithRegistry(
    std::shared_ptr<FactRegistry> registry) const& {
  return MdObject(*this).WithRegistry(std::move(registry));
}

MdObject MdObject::WithRegistry(std::shared_ptr<FactRegistry> registry) && {
  registry_ = std::move(registry);
  return std::move(*this);
}

void MdObject::WarmAndFreezeForPublish() const {
  for (const std::shared_ptr<Dimension>& dimension : dimensions_) {
    // A frozen dimension may be shared with a published epoch: even a
    // store of an equal value would race with its readers.
    if (dimension->publish_frozen()) continue;
    dimension->set_memoization_enabled(true);
    dimension->WarmClosureMemo();
    dimension->ResetAppendWatermark();
    dimension->set_publish_frozen(true);
  }
  // Seal the CSR span views too: published epochs must never build
  // indexes under concurrent readers (docs/memory_layout.md).
  for (const FactDimRelation& relation : relations_) {
    relation.SealIndexes();
  }
  // And the registry: a published epoch's facts are final, so any later
  // intern call into it is a read path writing shared state.
  registry_->Seal();
}

std::vector<MdObject::Characterization> MdObject::CharacterizedBy(
    FactId fact, std::size_t dim, Chronon prob_at) const {
  std::vector<Characterization> result;
  if (dim >= dimensions_.size()) return result;
  const Dimension& dimension = *dimensions_[dim];

  // Accumulate per characterizing value; multiple witnesses union
  // lifespans and noisy-or probabilities.
  std::map<ValueId, Characterization> accumulated;
  auto accumulate = [&](ValueId base, ValueId value, const Lifespan& life,
                        double prob) {
    if (life.Empty()) return;
    auto [it, inserted] = accumulated.try_emplace(
        value, Characterization{base, value, life, prob});
    if (!inserted) {
      it->second.life = it->second.life.Union(life);
      it->second.prob = 1.0 - (1.0 - it->second.prob) * (1.0 - prob);
    }
  };

  const FactDimRelation& relation = relations_[dim];
  for (std::size_t index : relation.EntryIndexesForFact(fact)) {
    const FactDimRelation::Entry& entry = relation.entries()[index];
    // The directly related value characterizes the fact...
    accumulate(entry.value, entry.value, entry.life, entry.prob);
    // ...and so does everything containing it.
    for (const Dimension::Containment& c :
         dimension.AncestorsView(entry.value, prob_at)) {
      if (c.value == dimension.top_value()) continue;
      accumulate(entry.value, c.value, entry.life.Intersect(c.life),
                 entry.prob * c.prob);
    }
  }
  // Characterization by the top value is unconditional: the fact is
  // certainly *somewhere* in the dimension (the paper's no-missing-values
  // rule guarantees a pair exists).
  if (!relation.EntryIndexesForFact(fact).empty()) {
    accumulated.erase(dimension.top_value());
    accumulate(dimension.top_value(), dimension.top_value(),
               Lifespan::AlwaysSpan(), 1.0);
  }

  result.reserve(accumulated.size());
  for (auto& [value, characterization] : accumulated) {
    result.push_back(std::move(characterization));
  }
  return result;
}

Lifespan MdObject::CharacterizationSpan(FactId fact, std::size_t dim,
                                        ValueId value) const {
  for (const Characterization& c : CharacterizedBy(fact, dim)) {
    if (c.value == value) return c.life;
  }
  return Lifespan{TemporalElement::Never(), TemporalElement::Never()};
}

std::vector<std::pair<FactId, MdObject::Characterization>> MdObject::FactsWith(
    std::size_t dim, ValueId value, Chronon prob_at) const {
  std::vector<std::pair<FactId, Characterization>> result;
  if (dim >= dimensions_.size()) return result;
  const Dimension& dimension = *dimensions_[dim];
  if (!dimension.HasValue(value)) return result;

  // Facts related to `value` directly (rank 0) or to its k-th descendant
  // (rank k + 1). The scan keeps each matching entry with its rank; a
  // sort by (rank, entry) then replays the witnesses value by value, each
  // value's entries in insertion order, so every fact's first witness and
  // its noisy-or order do not depend on how the entries interleave.
  const std::vector<Dimension::Containment> descendants =
      dimension.Descendants(value, prob_at);
  std::unordered_map<std::uint64_t, std::size_t> rank_of;
  rank_of.reserve(descendants.size() + 1);
  rank_of.emplace(value.raw(), 0);
  for (std::size_t k = 0; k < descendants.size(); ++k) {
    rank_of.emplace(descendants[k].value.raw(), k + 1);
  }
  const FactDimRelation& relation = relations_[dim];
  std::vector<std::pair<std::size_t, std::size_t>> witnesses;  // rank, entry
  for (std::size_t index = 0; index < relation.size(); ++index) {
    auto it = rank_of.find(relation.entries()[index].value.raw());
    if (it != rank_of.end()) witnesses.emplace_back(it->second, index);
  }
  std::sort(witnesses.begin(), witnesses.end());

  const Lifespan always = Lifespan::AlwaysSpan();
  std::map<FactId, Characterization> accumulated;
  for (const auto& [rank, index] : witnesses) {
    const FactDimRelation::Entry& entry = relation.entries()[index];
    const Lifespan life = entry.life.Intersect(
        rank == 0 ? always : descendants[rank - 1].life);
    if (life.Empty()) continue;
    const double prob =
        entry.prob * (rank == 0 ? 1.0 : descendants[rank - 1].prob);
    auto [it, inserted] = accumulated.try_emplace(
        entry.fact, Characterization{entry.value, value, life, prob});
    if (!inserted) {
      it->second.life = it->second.life.Union(life);
      it->second.prob = 1.0 - (1.0 - it->second.prob) * (1.0 - prob);
    }
  }

  result.reserve(accumulated.size());
  for (auto& [fact, characterization] : accumulated) {
    result.emplace_back(fact, std::move(characterization));
  }
  return result;
}

Status MdObject::Validate() const {
  for (std::size_t i = 0; i < dimensions_.size(); ++i) {
    MDDC_RETURN_NOT_OK(dimensions_[i]->Validate());
    for (const FactDimRelation::Entry& entry : relations_[i].entries()) {
      if (!HasFact(entry.fact)) {
        return Status::InvariantViolation(
            StrCat("relation ", i, " references fact ", entry.fact,
                   " outside the fact set"));
      }
      if (!dimensions_[i]->HasValue(entry.value)) {
        return Status::InvariantViolation(
            StrCat("relation ", i, " references value ", entry.value,
                   " outside dimension '", dimensions_[i]->name(), "'"));
      }
    }
    // No missing values: every fact characterized in every dimension.
    for (FactId fact : facts_) {
      if (!relations_[i].HasFact(fact)) {
        return Status::InvariantViolation(StrCat(
            "fact ", fact, " is not characterized in dimension '",
            dimensions_[i]->name(),
            "'; relate it to the top value if the characterization is "
            "unknown (CoverWithTop)"));
      }
    }
  }
  return Status::OK();
}

std::string MdObject::ToString() const {
  std::string out =
      StrCat("MdObject(", schema_.fact_type(), ", ", facts_.size(),
             " facts, ", dimensions_.size(), " dimensions, ",
             TemporalTypeName(temporal_type_), ")\n");
  std::vector<std::string> fact_names;
  for (FactId fact : facts_) fact_names.push_back(registry_->ToString(fact));
  out += StrCat("  F = {", Join(fact_names, ", "), "}\n");
  for (std::size_t i = 0; i < dimensions_.size(); ++i) {
    out += StrCat("  R[", dimensions_[i]->name(), "] = {");
    std::vector<std::string> pairs;
    for (const FactDimRelation::Entry& entry : relations_[i].entries()) {
      std::string pair =
          StrCat("(", registry_->ToString(entry.fact), ",",
                 entry.value == dimensions_[i]->top_value()
                     ? "T"
                     : std::to_string(entry.value.raw()),
                 ")");
      if (!(entry.life == Lifespan::AlwaysSpan())) {
        pair += StrCat(" during ", entry.life.ToString());
      }
      if (entry.prob != 1.0) pair += StrCat(" p=", entry.prob);
      pairs.push_back(std::move(pair));
    }
    out += Join(pairs, ", ");
    out += "}\n";
  }
  return out;
}

Status MoFamily::Add(std::string name, MdObject mo) {
  if (members_.count(name) != 0) {
    return Status::InvariantViolation(
        StrCat("MO family already contains '", name, "'"));
  }
  members_.emplace(std::move(name), std::move(mo));
  return Status::OK();
}

Result<const MdObject*> MoFamily::Get(const std::string& name) const {
  auto it = members_.find(name);
  if (it == members_.end()) {
    return Status::NotFound(StrCat("no MO named '", name, "' in family"));
  }
  return &it->second;
}

Result<MdObject*> MoFamily::GetMutable(const std::string& name) {
  auto it = members_.find(name);
  if (it == members_.end()) {
    return Status::NotFound(StrCat("no MO named '", name, "' in family"));
  }
  return &it->second;
}

std::vector<std::string> MoFamily::names() const {
  std::vector<std::string> result;
  result.reserve(members_.size());
  for (const auto& [name, mo] : members_) result.push_back(name);
  return result;
}

Result<bool> MoFamily::SharesSubdimension(const std::string& a,
                                          std::size_t dim_a,
                                          const std::string& b,
                                          std::size_t dim_b) const {
  MDDC_ASSIGN_OR_RETURN(const MdObject* mo_a, Get(a));
  MDDC_ASSIGN_OR_RETURN(const MdObject* mo_b, Get(b));
  if (dim_a >= mo_a->dimension_count() || dim_b >= mo_b->dimension_count()) {
    return Status::InvalidArgument("dimension index out of range");
  }
  const Dimension& da = mo_a->dimension(dim_a);
  const Dimension& db = mo_b->dimension(dim_b);
  if (!da.type().EquivalentTo(db.type())) return false;
  for (CategoryTypeIndex c = 0; c < da.type().category_count(); ++c) {
    std::vector<ValueId> va = da.ValuesIn(c);
    std::vector<ValueId> vb = db.ValuesIn(c);
    std::sort(va.begin(), va.end());
    std::sort(vb.begin(), vb.end());
    if (va != vb) return false;
  }
  auto edge_key = [](const Dimension::Edge& e) {
    return std::make_pair(e.child, e.parent);
  };
  std::vector<std::pair<ValueId, ValueId>> ea;
  std::vector<std::pair<ValueId, ValueId>> eb;
  for (const auto& e : da.edges()) ea.push_back(edge_key(e));
  for (const auto& e : db.edges()) eb.push_back(edge_key(e));
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  return ea == eb;
}

}  // namespace mddc
