#ifndef MDDC_CORE_MD_OBJECT_H_
#define MDDC_CORE_MD_OBJECT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/id.h"
#include "common/result.h"
#include "core/dimension.h"
#include "core/fact.h"
#include "core/fact_dim_relation.h"
#include "core/schema.h"

namespace mddc {

/// The temporal classification of an MO (paper Section 3.2): snapshot (no
/// time attached), valid-time, transaction-time, or bitemporal. The
/// timeslice operators move an MO down this classification.
enum class TemporalType {
  kSnapshot,
  kValidTime,
  kTransactionTime,
  kBitemporal,
};

std::string_view TemporalTypeName(TemporalType type);

/// A multidimensional object M = (S, F, D, R) (paper Section 3.1): a
/// schema, a set of facts, one dimension per dimension type, and one
/// fact-dimension relation per dimension. This is the unit the algebra's
/// operators consume and produce.
///
/// Facts are ids into a FactRegistry shared among an MO and everything
/// derived from it, so identity-based join and aggregate formation can
/// build pair- and set-structured facts with stable identity.
class MdObject {
 public:
  /// One resolved f ~> e characterization: the fact is characterized by
  /// `value` via the directly related `base` value, during `life`, with
  /// probability `prob`.
  struct Characterization {
    ValueId base;
    ValueId value;
    Lifespan life;
    double prob = 1.0;
  };

  /// Creates an MO with the given fact type name and dimensions (empty
  /// fact set). The schema is derived from the dimension types.
  MdObject(std::string fact_type, std::vector<Dimension> dimensions,
           std::shared_ptr<FactRegistry> registry,
           TemporalType temporal_type = TemporalType::kSnapshot);

  /// A copy shares every publish-frozen dimension (memos warm, rollup
  /// slot final: every read of it is pure) and deep-copies the others;
  /// the relations share their chunked storage and CSR views
  /// (FactDimRelation). A writer's draft of a published MO therefore
  /// costs the fact list (with room to append a batch) and O(chunks).
  MdObject(const MdObject& other);
  MdObject(MdObject&& other) noexcept = default;
  MdObject& operator=(const MdObject& other);
  MdObject& operator=(MdObject&& other) noexcept = default;

  const FactSchema& schema() const { return schema_; }
  TemporalType temporal_type() const { return temporal_type_; }
  void set_temporal_type(TemporalType type) { temporal_type_ = type; }

  const std::shared_ptr<FactRegistry>& registry() const { return registry_; }

  /// The fact set F, sorted by id.
  const std::vector<FactId>& facts() const { return facts_; }
  bool HasFact(FactId fact) const;
  std::size_t fact_count() const { return facts_.size(); }

  std::size_t dimension_count() const { return dimensions_.size(); }
  const Dimension& dimension(std::size_t index) const {
    return *dimensions_[index];
  }
  /// The one way to mutate a dimension. A dimension this MO shares with
  /// a copy (see the copy constructor) is cloned first, and the clone
  /// starts unfrozen, so no store ever lands in a dimension that readers
  /// of another MO hold.
  Dimension& dimension_mutable(std::size_t index);
  const FactDimRelation& relation(std::size_t index) const {
    return relations_[index];
  }
  FactDimRelation& relation_mutable(std::size_t index) {
    return relations_[index];
  }

  /// Finds a dimension index by name.
  Result<std::size_t> FindDimension(std::string_view name) const {
    return schema_.Find(name);
  }

  // ---- Population ---------------------------------------------------------

  /// Adds a fact to F (idempotent).
  Status AddFact(FactId fact);

  /// Removes `fact` from F and every pair referencing it from every R_i.
  /// NotFound when the fact is not in F. Removal is never an append: it
  /// rebuilds the relations' indexes, so incremental seal state is
  /// dropped and the next publication re-sorts.
  Status RemoveFact(FactId fact);

  /// Adds the pair (fact, value) to R_i for dimension `dim` during `life`
  /// with probability `prob`. The fact must be in F and the value in the
  /// dimension.
  Status Relate(std::size_t dim, FactId fact, ValueId value,
                const Lifespan& life = Lifespan::AlwaysSpan(),
                double prob = 1.0);

  /// Adds (f, top) in every dimension where f has no pair, implementing
  /// the paper's convention for unknown characterizations ("we add the
  /// pair (f, top) to R").
  Status CoverWithTop();

  /// CoverWithTop restricted to `facts` (each must be in F). Incremental
  /// writers cover only the facts they just added — O(batch) instead of
  /// the full-scan O(|F| * dims) — relying on the invariant that every
  /// previously published fact is already covered.
  Status CoverWithTop(const std::vector<FactId>& facts);

  // ---- Registry isolation (the MVCC serving tier, src/serve) ---------------

  /// A copy of this MO whose derived facts intern into `registry` instead
  /// of the shared one. Writers draft on a copy carrying a FactRegistry
  /// fork, and the MDQL tree walk works on one (ExecuteSelectTreeWalk),
  /// so neither the facts a draft adds nor the set facts a read derives
  /// ever touch a published MO's sealed registry. `registry` must
  /// resolve every id this MO references (a ForkOf the current registry
  /// does, id-stably). The rvalue form moves this MO instead of copying
  /// it.
  MdObject WithRegistry(std::shared_ptr<FactRegistry> registry) const&;
  MdObject WithRegistry(std::shared_ptr<FactRegistry> registry) &&;

  /// Prepares this MO for lock-free concurrent reads and marks every
  /// dimension publish-frozen: re-enables and fully warms each closure
  /// memo, ends its append run (Dimension::ResetAppendWatermark), then
  /// sets the freeze flag (see Dimension::publish_frozen).
  /// Dimensions already frozen — shared with the epoch this MO was
  /// drafted from — are skipped untouched.
  /// Seals the relations' CSR views and the fact registry too, so an
  /// intern call into the published registry aborts (FactRegistry::Seal).
  /// The caller (the publisher) must compile rollup snapshots — an engine
  /// concern — *before* freezing, and must not mutate the MO afterwards.
  /// Const because it only touches publication metadata and memos.
  void WarmAndFreezeForPublish() const;

  // ---- Characterization ---------------------------------------------------

  /// Every value e with fact ~> e in dimension `dim`: directly related
  /// values plus everything containing them. Lifespans follow the paper's
  /// rule f ~>_Tv e iff (f,e') in_Tv' R and e' <=_Tv'' e with
  /// Tv = Tv' n Tv''; probabilities multiply. Multiple witnesses for the
  /// same e union their lifespans (noisy-or their probabilities).
  std::vector<Characterization> CharacterizedBy(
      FactId fact, std::size_t dim, Chronon prob_at = kNowChronon) const;

  /// The maximal lifespan during which fact ~> value in dimension `dim`.
  Lifespan CharacterizationSpan(FactId fact, std::size_t dim,
                                ValueId value) const;

  /// All facts f with f ~> value in dimension `dim`, ascending by fact,
  /// each with its characterization lifespan and probability (the
  /// building block of the algebra's Group function). One scan of the
  /// relation's entries: a fact's witnesses combine directly related
  /// entries first, then those of each descendant in Descendants order,
  /// each group in entry order.
  std::vector<std::pair<FactId, Characterization>> FactsWith(
      std::size_t dim, ValueId value, Chronon prob_at = kNowChronon) const;

  // ---- Invariants -----------------------------------------------------------

  /// Checks the MO closure conditions of the definition: every pair in
  /// R_i references a fact in F and a value in D_i; every fact is
  /// characterized in every dimension (no missing values); dimensions
  /// validate individually.
  Status Validate() const;

  /// Multi-line dump: schema, facts, relations.
  std::string ToString() const;

 private:
  /// Facts a copy has room to append before its fact list reallocates.
  static constexpr std::size_t kDraftFactHeadroom = 1024;

  FactSchema schema_;
  // Shared between copies only while publish-frozen (see the copy
  // constructor); dimension_mutable un-shares.
  std::vector<std::shared_ptr<Dimension>> dimensions_;
  std::vector<FactDimRelation> relations_;
  std::vector<FactId> facts_;  // sorted
  std::shared_ptr<FactRegistry> registry_;
  TemporalType temporal_type_;
};

/// A collection of MOs, possibly with shared subdimensions, usable to
/// "join" data from separate MOs (paper Section 3.1, "multidimensional
/// object family").
class MoFamily {
 public:
  /// Adds an MO under a unique name.
  Status Add(std::string name, MdObject mo);

  Result<const MdObject*> Get(const std::string& name) const;
  Result<MdObject*> GetMutable(const std::string& name);

  std::vector<std::string> names() const;

  /// True when dimension `dim_a` of MO `a` and dimension `dim_b` of MO
  /// `b` share structure (equivalent types, identical value sets per
  /// category and identical order edges), i.e., they are the same
  /// conceptual subdimension and can be used to join the MOs.
  Result<bool> SharesSubdimension(const std::string& a, std::size_t dim_a,
                                  const std::string& b,
                                  std::size_t dim_b) const;

 private:
  std::map<std::string, MdObject> members_;
};

}  // namespace mddc

#endif  // MDDC_CORE_MD_OBJECT_H_
