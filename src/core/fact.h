#ifndef MDDC_CORE_FACT_H_
#define MDDC_CORE_FACT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/id.h"
#include "common/result.h"

namespace mddc {

/// The structure of a fact. In the paper, facts are "objects with a
/// separate identity" (Section 3.1); the identity-based join produces
/// facts that are *pairs* of argument facts, and aggregate formation
/// produces facts that are *sets* of argument facts ("the facts are of
/// type sets of the argument fact type"). FactTerm captures those three
/// shapes.
struct FactTerm {
  enum class Kind { kAtom, kPair, kSet };

  Kind kind = Kind::kAtom;
  /// kAtom: the external key of the fact (e.g., the patient's surrogate id
  /// in the case study).
  std::uint64_t atom = 0;
  /// kPair: the two components, in order.
  FactId first;
  FactId second;
  /// kSet: the member facts, sorted and deduplicated.
  std::vector<FactId> members;

  friend bool operator==(const FactTerm&, const FactTerm&) = default;
};

/// Interns fact terms and hands out dense FactIds so that fact equality is
/// id equality and fact *sets* have canonical identity (interning the
/// sorted member list means the same group of facts always maps to the
/// same FactId — the paper's "the facts of an MO are a set, so we do not
/// have duplicate facts"). A registry is shared (via shared_ptr) among an
/// MO and all MOs derived from it by algebra operators, so fact identity
/// is preserved across operator application.
///
/// A set term is stored either plainly (its whole member list) or as an
/// extension of an earlier set term (SetExtending: the base id plus the
/// members above the base's largest), so a group that grows by a batch
/// stores only the batch. The two storages are one identity: a set has
/// one id however it was first interned, and Get/ToString always return
/// the whole sorted member list.
class FactRegistry {
 public:
  FactRegistry() = default;
  FactRegistry(const FactRegistry&) = delete;
  FactRegistry& operator=(const FactRegistry&) = delete;

  /// An O(1) copy-on-write fork: the new registry resolves every id the
  /// base knows through the (immutable) base and interns new terms
  /// locally, with ids continuing where the base stops. Ids are therefore
  /// stable across the fork — a fact interned before the fork has the same
  /// id in every fork, and two forks that intern the same sequence of new
  /// terms assign the same new ids.
  ///
  /// The base MUST be frozen: no call may mutate it once a fork exists
  /// (the MVCC serving tier guarantees this by construction — published
  /// epochs are immutable and their registries sealed, and writers fork
  /// before mutating). Forks of the same frozen base are independent;
  /// concurrent use of different forks is safe because each fork only
  /// reads the base. A fork starts unsealed.
  static std::shared_ptr<FactRegistry> ForkOf(
      std::shared_ptr<const FactRegistry> base);

  /// A deep, flat copy preserving every id: collapses a fork chain into a
  /// fresh, unsealed root registry (fork_depth() == 0). Each stored term
  /// is copied as stored, with its stored hash — extensions stay
  /// extensions and no member list is rehashed — so a flatten costs
  /// O(terms + stored_member_ids()). The writer path flattens when chains
  /// grow so published lookups stay O(log n), not O(epochs).
  std::shared_ptr<FactRegistry> Flatten() const;

  /// Number of overlay links back to a root registry (0 for a root).
  std::size_t fork_depth() const { return fork_depth_; }

  /// Marks the registry read-only: from here on every intern call (Atom,
  /// Pair, Set, SetExtending) aborts with a diagnostic, even for a term
  /// that is already present. The serving tier seals a draft's registry
  /// at publication (MdObject::WarmAndFreezeForPublish), so a read path
  /// that interns into shared published state fails loudly instead of
  /// racing; readers that derive facts work on a fork.
  void Seal() { sealed_ = true; }
  bool sealed() const { return sealed_; }

  /// Interns an atomic fact with the given external key.
  FactId Atom(std::uint64_t external_key);

  /// Interns the ordered pair (a, b) (identity-based join results).
  FactId Pair(FactId a, FactId b);

  /// Interns the set of `members` (aggregate formation results). Members
  /// are sorted and deduplicated; the empty set is a valid term.
  FactId Set(std::vector<FactId> members);

  /// Interns the set base ∪ tail, where `base` is a set term of this
  /// registry (or its fork chain; anything else aborts as misuse). The
  /// tail is sorted and deduplicated; an empty tail returns `base`. When
  /// every tail member lies above the base's largest member the term is
  /// stored as an extension — the base id and the tail — and hashed by
  /// continuing the base's stored FNV-1a chain over the tail, which
  /// equals hashing the whole list; otherwise the union is interned as a
  /// plain Set. Either way the id is the one Set(base members + tail)
  /// returns, whichever of the two is interned first.
  FactId SetExtending(FactId base, std::vector<FactId> tail);

  /// Looks up the structure of a fact; a set term's members come back
  /// whole and sorted, however the term is stored.
  Result<FactTerm> Get(FactId id) const;

  /// The shape of set term `id` in O(1): its member count and its
  /// largest member (invalid for the empty set). nullopt when `id` is
  /// unknown or not a set.
  struct SetShape {
    std::size_t count = 0;
    FactId largest;
  };
  std::optional<SetShape> ShapeOfSet(FactId id) const;

  /// Number of interned terms, including everything visible through the
  /// base chain.
  std::size_t size() const { return base_size_ + terms_.size(); }

  /// Member ids held by the stored set terms, including everything
  /// visible through the base chain: a plain set counts all its members,
  /// an extension only its tail. Maintained at intern time, so O(1).
  std::size_t stored_member_ids() const {
    return base_stored_members_ + stored_members_;
  }

  /// Renders a fact: atoms print their key ("2"), pairs "(1,2)", sets
  /// "{1,2}".
  std::string ToString(FactId id) const;

 private:
  /// A term as stored. Sets keep their full member count, the set term
  /// they extend (invalid for a plain set) and their own members — all of
  /// them for a plain set, only the tail above the base for an extension.
  /// `hash` is the FNV-1a hash of the whole term (a set's: word by word
  /// over its sorted members), kept so extensions continue it and Flatten
  /// never recomputes it.
  struct Stored {
    FactTerm::Kind kind = FactTerm::Kind::kAtom;
    std::uint64_t atom = 0;
    FactId first;
    FactId second;
    FactId base;
    std::size_t count = 0;
    std::vector<FactId> members;
    std::uint64_t hash = 0;
  };

  /// Aborts with a diagnostic when the registry is sealed.
  void CheckUnsealed() const;

  /// Probes the fork chain for a term of `kind` with `hash` for which
  /// `eq(stored)` holds; invalid when there is none.
  template <typename Eq>
  FactId Find(FactTerm::Kind kind, std::uint64_t hash, const Eq& eq) const;

  /// True when set term `set` has exactly the members `full` (ascending,
  /// full.size() == set.count), walking its extension chain without
  /// materializing it.
  bool MembersEqual(const Stored& set, std::span<const FactId> full) const;

  /// The whole sorted member list of set term `set`.
  std::vector<FactId> MembersOf(const Stored& set) const;

  /// Appends `term` (absent from the whole chain) as the next local id.
  FactId Intern(Stored term);

  const FlatHashIndex& TableFor(FactTerm::Kind kind) const;
  FlatHashIndex& TableFor(FactTerm::Kind kind) {
    return const_cast<FlatHashIndex&>(
        static_cast<const FactRegistry*>(this)->TableFor(kind));
  }

  /// The stored term for `id`, resolving through the base chain; nullptr
  /// when unknown.
  const Stored* FindStored(FactId id) const;

  /// Frozen parent registry of a fork (null for a root); ids below
  /// base_size_ resolve through it.
  std::shared_ptr<const FactRegistry> base_;
  std::size_t base_size_ = 0;
  std::size_t base_stored_members_ = 0;
  std::size_t fork_depth_ = 0;
  bool sealed_ = false;

  std::vector<Stored> terms_;  // local terms; id = base_size_ + index
  std::size_t stored_members_ = 0;  // members held by local set terms

  // Open-addressing dedup tables, one per term kind; ordinals are local
  // term indexes, equality probes compare against terms_ directly (no
  // second key store, no tree nodes — docs/memory_layout.md).
  FlatHashIndex atom_index_;
  FlatHashIndex pair_index_;
  FlatHashIndex set_index_;
};

}  // namespace mddc

#endif  // MDDC_CORE_FACT_H_
