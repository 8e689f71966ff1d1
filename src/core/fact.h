#ifndef MDDC_CORE_FACT_H_
#define MDDC_CORE_FACT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/chunked_vector.h"
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
///
/// Storage is laid out like a FactDimRelation's (docs/memory_layout.md):
/// the terms are trivially copyable records in a ChunkedVector, indexed
/// by id; every set term's own member ids (a plain set's whole list, an
/// extension's tail) sit in one append-only ChunkedVector<FactId> pool;
/// and each of the three dedup tables is an immutable flat base, shared
/// by every copy, plus a flat delta that takes this registry's inserts.
/// A copy (ForkOf) shares every term and member chunk and every base and
/// duplicates only the deltas.
class FactRegistry {
 public:
  FactRegistry() = default;
  FactRegistry(const FactRegistry&) = delete;
  FactRegistry& operator=(const FactRegistry&) = delete;

  /// An unsealed copy of `base` (an empty registry for null) that shares
  /// every term and member chunk and the three tables' bases with it and
  /// copies their deltas (12 bytes a slot). Ids are stable across the
  /// copy — a fact interned before it has the same id in both, and two
  /// copies that intern the same sequence of new terms assign the same
  /// new ids — and interning into the copy lands in its deltas and the
  /// tail chunks it clones, so `base` never sees it.
  ///
  /// The copy only reads `base`: any number of threads may copy one
  /// registry at once while nothing interns into it (the MVCC serving
  /// tier copies published, sealed registries; ChunkedVector says why
  /// sharing chunks with such copies is sound).
  static std::shared_ptr<FactRegistry> ForkOf(
      std::shared_ptr<const FactRegistry> base);

  /// Marks the registry read-only: from here on every intern call (Atom,
  /// Pair, Set, SetExtending) aborts with a diagnostic, even for a term
  /// that is already present. The serving tier seals a draft's registry
  /// at publication (MdObject::WarmAndFreezeForPublish), so a read path
  /// that interns into shared published state fails loudly instead of
  /// racing; readers that derive facts work on a ForkOf it.
  ///
  /// Sealing also settles each table's layers: a delta that holds more
  /// than a quarter of its base's keys is merged with it into a fresh
  /// base (an empty base just takes the delta), so copies of the sealed
  /// registry copy at most a quarter of a table, and lookups probe at
  /// most two levels. Sealing a sealed registry does nothing.
  void Seal();
  bool sealed() const { return sealed_; }

  /// Interns an atomic fact with the given external key.
  FactId Atom(std::uint64_t external_key);

  /// Interns the ordered pair (a, b) (identity-based join results).
  FactId Pair(FactId a, FactId b);

  /// Interns the set of `members` (aggregate formation results). Members
  /// are sorted and deduplicated; the empty set is a valid term.
  FactId Set(std::vector<FactId> members);

  /// Interns the set base ∪ tail, where `base` is a set term of this
  /// registry (anything else aborts as misuse). The tail is sorted and
  /// deduplicated; an empty tail returns `base`. When every tail member
  /// lies above the base's largest member the term is stored as an
  /// extension — the base id and the tail — and hashed by continuing the
  /// base's stored FNV-1a chain over the tail, which equals hashing the
  /// whole list; otherwise the union is interned as a plain Set. Either
  /// way the id is the one Set(base members + tail) returns, whichever of
  /// the two is interned first.
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

  /// Number of interned terms.
  std::size_t size() const { return terms_.size(); }

  /// Member ids held by the stored set terms: a plain set counts all its
  /// members, an extension only its tail. The member pool's size, O(1).
  std::size_t stored_member_ids() const { return members_.size(); }

  /// Storage chunks of the term and member arrays, and how many of them
  /// are the very same chunks `other` holds at the same positions: what a
  /// copy shares and its interning since un-shared (tests and
  /// docs/memory_layout.md measure it).
  std::size_t chunk_count() const {
    return terms_.chunk_count() + members_.chunk_count();
  }
  std::size_t SharedChunksWith(const FactRegistry& other) const {
    return terms_.SharedChunksWith(other.terms_) +
           members_.SharedChunksWith(other.members_);
  }

  /// How many of the three dedup tables' bases this registry holds by
  /// the very same pointer as `other`, and the keys in its deltas: what
  /// a copy shares and what it duplicates (tests and
  /// docs/memory_layout.md measure them).
  std::size_t SharedTablesWith(const FactRegistry& other) const;
  std::size_t delta_keys() const;

  /// Renders a fact: atoms print their key ("2"), pairs "(1,2)", sets
  /// "{1,2}".
  std::string ToString(FactId id) const;

 private:
  /// A term as stored; trivially copyable, so a cloned chunk is one flat
  /// copy. A set keeps its whole member count, the set term it extends
  /// (invalid for a plain set) and where its own members sit in members_:
  /// all of a plain set's, only an extension's tail above its base. `hash`
  /// is the FNV-1a hash of a set's whole list (word by word over its
  /// sorted members), kept so an extension continues it.
  struct Stored {
    FactTerm::Kind kind = FactTerm::Kind::kAtom;
    std::uint32_t own = 0;    // kSet: member ids it holds in members_
    std::uint64_t atom = 0;   // kAtom
    FactId first;             // kPair
    FactId second;            // kPair
    FactId base;              // kSet
    std::uint64_t begin = 0;  // kSet: where its own members start
    std::uint64_t count = 0;  // kSet
    std::uint64_t hash = 0;   // kSet
  };

  /// Aborts with a diagnostic when the registry is sealed.
  void CheckUnsealed() const;

  /// Probes the table of `kind` for a term with `hash` for which
  /// `eq(stored)` holds; invalid when there is none.
  template <typename Eq>
  FactId Find(FactTerm::Kind kind, std::uint64_t hash, const Eq& eq) const;

  /// Calls `fn(offset, run)` on the pool runs covering members_[begin,
  /// begin + n), one chunk run at a time, `offset` counting from `begin`;
  /// stops at the first call that returns false. True when none did.
  template <typename Fn>
  bool ForEachMemberRun(std::size_t begin, std::size_t n, const Fn& fn) const;

  /// True when set term `set` has exactly the members `full` (ascending,
  /// full.size() == set.count), walking its extension chain without
  /// materializing it.
  bool MembersEqual(const Stored& set, std::span<const FactId> full) const;

  /// The whole sorted member list of set term `set`.
  std::vector<FactId> MembersOf(const Stored& set) const;

  /// The largest member of set term `set`: the last of its own members
  /// (an extension's tail is never empty); invalid for the empty set.
  FactId LargestOf(const Stored& set) const;

  /// Appends `term` (absent from the tables) as the next id under `hash`,
  /// with `own` (a set's own members) bulk-appended to the pool.
  FactId Intern(std::uint64_t hash, Stored term,
                std::span<const FactId> own = {});

  /// One dedup table in two layers: `base`, immutable and shared by
  /// every copy (null while empty), and `delta`, this registry's own,
  /// which takes every insert. A key lives in exactly one of them.
  struct LayeredTable {
    std::shared_ptr<const FlatHashIndex> base;
    FlatHashIndex delta;

    template <typename Eq>
    std::uint32_t Find(std::uint64_t hash, const Eq& eq) const {
      const std::uint32_t ordinal = delta.Find(hash, eq);
      if (ordinal != FlatHashIndex::kNone || base == nullptr) return ordinal;
      return base->Find(hash, eq);
    }
    /// Seal's step: merges a delta of more than a quarter of the base
    /// into a fresh base.
    void Settle();
  };

  const LayeredTable& TableFor(FactTerm::Kind kind) const;
  LayeredTable& TableFor(FactTerm::Kind kind) {
    return const_cast<LayeredTable&>(
        static_cast<const FactRegistry*>(this)->TableFor(kind));
  }

  /// The stored term for `id`; nullptr when unknown.
  const Stored* FindStored(FactId id) const {
    return id.valid() && id.raw() < terms_.size() ? &terms_[id.raw()]
                                                  : nullptr;
  }

  bool sealed_ = false;
  ChunkedVector<Stored> terms_;    // id = index
  ChunkedVector<FactId> members_;  // set terms' own members, intern order

  // Open-addressing dedup tables, one per term kind; ordinals are ids,
  // equality probes compare against terms_ and members_ directly (no
  // second key store, no tree nodes — docs/memory_layout.md). A table
  // filled in hash order does not chunk (a batch's inserts land all over
  // it), so a copy shares each base whole and duplicates the deltas.
  LayeredTable atom_index_;
  LayeredTable pair_index_;
  LayeredTable set_index_;
};

}  // namespace mddc

#endif  // MDDC_CORE_FACT_H_
