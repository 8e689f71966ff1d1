#include "core/fact.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/strings.h"

namespace mddc {
namespace {

/// Continues an FNV-1a chain word by word over `members`. A set's hash is
/// the chain over its sorted member list from the offset basis, so an
/// extension's hash — the chain continued from its base's hash over the
/// tail — equals the hash of its whole list. The empty set hashes to the
/// seed, which is as good a bucket as any.
std::uint64_t ChainHash(std::uint64_t hash, std::span<const FactId> members) {
  for (FactId member : members) hash = Fnv1a64Word(member.raw(), hash);
  return hash;
}

/// Sorts and deduplicates a member list in place.
void Canonicalize(std::vector<FactId>& members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
}

}  // namespace

std::shared_ptr<FactRegistry> FactRegistry::ForkOf(
    std::shared_ptr<const FactRegistry> base) {
  auto fork = std::make_shared<FactRegistry>();
  if (base != nullptr) {
    fork->base_size_ = base->size();
    fork->base_stored_members_ = base->stored_member_ids();
    fork->fork_depth_ = base->fork_depth_ + 1;
    fork->base_ = std::move(base);
  }
  return fork;
}

std::shared_ptr<FactRegistry> FactRegistry::Flatten() const {
  auto flat = std::make_shared<FactRegistry>();
  flat->terms_.reserve(size());
  // Ids are contiguous down the chain (a fork's first id is its base's
  // size), so copying each link's terms root first preserves every id.
  std::vector<const FactRegistry*> chain;
  for (const FactRegistry* r = this; r != nullptr; r = r->base_.get()) {
    chain.push_back(r);
  }
  for (auto link = chain.rbegin(); link != chain.rend(); ++link) {
    for (const Stored& term : (*link)->terms_) flat->Intern(term);
  }
  return flat;
}

void FactRegistry::CheckUnsealed() const {
  if (sealed_) [[unlikely]] {
    std::cerr << "FactRegistry: intern call on a sealed registry (a "
                 "published epoch's registry is read-only; intern into a "
                 "ForkOf it)\n";
    std::abort();
  }
}

const FlatHashIndex& FactRegistry::TableFor(FactTerm::Kind kind) const {
  switch (kind) {
    case FactTerm::Kind::kAtom:
      return atom_index_;
    case FactTerm::Kind::kPair:
      return pair_index_;
    case FactTerm::Kind::kSet:
      return set_index_;
  }
  return atom_index_;
}

template <typename Eq>
FactId FactRegistry::Find(FactTerm::Kind kind, std::uint64_t hash,
                          const Eq& eq) const {
  for (const FactRegistry* r = this; r != nullptr; r = r->base_.get()) {
    const std::uint32_t ordinal = r->TableFor(kind).Find(
        hash, [&](std::uint32_t o) { return eq(r->terms_[o]); });
    if (ordinal != FlatHashIndex::kNone) {
      return FactId(r->base_size_ + ordinal);
    }
  }
  return FactId();
}

FactId FactRegistry::Atom(std::uint64_t external_key) {
  CheckUnsealed();
  const std::uint64_t hash = Fnv1a64Word(external_key);
  const FactId found = Find(FactTerm::Kind::kAtom, hash, [&](const Stored& s) {
    return s.atom == external_key;
  });
  if (found.valid()) return found;
  Stored term;
  term.kind = FactTerm::Kind::kAtom;
  term.atom = external_key;
  term.hash = hash;
  return Intern(std::move(term));
}

FactId FactRegistry::Pair(FactId a, FactId b) {
  CheckUnsealed();
  const std::uint64_t hash = Fnv1a64Word(b.raw(), Fnv1a64Word(a.raw()));
  const FactId found = Find(FactTerm::Kind::kPair, hash, [&](const Stored& s) {
    return s.first == a && s.second == b;
  });
  if (found.valid()) return found;
  Stored term;
  term.kind = FactTerm::Kind::kPair;
  term.first = a;
  term.second = b;
  term.hash = hash;
  return Intern(std::move(term));
}

FactId FactRegistry::Set(std::vector<FactId> members) {
  CheckUnsealed();
  Canonicalize(members);
  const std::uint64_t hash = ChainHash(kFnv1a64Offset, members);
  const FactId found = Find(FactTerm::Kind::kSet, hash, [&](const Stored& s) {
    return s.count == members.size() && MembersEqual(s, members);
  });
  if (found.valid()) return found;
  Stored term;
  term.kind = FactTerm::Kind::kSet;
  term.count = members.size();
  term.members = std::move(members);
  term.hash = hash;
  return Intern(std::move(term));
}

FactId FactRegistry::SetExtending(FactId base, std::vector<FactId> tail) {
  CheckUnsealed();
  const Stored* stored_base = FindStored(base);
  if (stored_base == nullptr || stored_base->kind != FactTerm::Kind::kSet) {
    std::cerr << "FactRegistry::SetExtending: fact " << base
              << " is not a set term of this registry\n";
    std::abort();
  }
  Canonicalize(tail);
  if (tail.empty()) return base;
  if (!stored_base->members.empty() &&
      !(stored_base->members.back() < tail.front())) {
    // The tail interleaves the base: the union is an ordinary set.
    std::vector<FactId> all = MembersOf(*stored_base);
    all.insert(all.end(), tail.begin(), tail.end());
    return Set(std::move(all));
  }
  const std::size_t count = stored_base->count + tail.size();
  const std::uint64_t hash = ChainHash(stored_base->hash, tail);
  // A candidate extending the same base matches on its tail alone; any
  // other candidate (a plain set, or an extension of another base) is
  // compared against the whole list, materialized at most once.
  std::vector<FactId> whole;
  const FactId found = Find(FactTerm::Kind::kSet, hash, [&](const Stored& s) {
    if (s.count != count) return false;
    if (s.base == base) {
      return std::equal(s.members.begin(), s.members.end(), tail.begin());
    }
    if (whole.empty()) {
      whole = MembersOf(*stored_base);
      whole.insert(whole.end(), tail.begin(), tail.end());
    }
    return MembersEqual(s, whole);
  });
  if (found.valid()) return found;
  Stored term;
  term.kind = FactTerm::Kind::kSet;
  term.base = base;
  term.count = count;
  term.members = std::move(tail);
  term.hash = hash;
  return Intern(std::move(term));
}

bool FactRegistry::MembersEqual(const Stored& set,
                                std::span<const FactId> full) const {
  // Each link of an extension chain holds the members just above its
  // base's, so the links match the list's segments from the back.
  std::size_t end = full.size();
  for (const Stored* s = &set;; s = FindStored(s->base)) {
    const std::size_t n = s->members.size();
    if (n > end ||
        !std::equal(s->members.begin(), s->members.end(),
                    full.begin() + static_cast<std::ptrdiff_t>(end - n))) {
      return false;
    }
    end -= n;
    if (!s->base.valid()) return end == 0;
  }
}

std::vector<FactId> FactRegistry::MembersOf(const Stored& set) const {
  std::vector<FactId> members(set.count);
  std::size_t end = set.count;
  for (const Stored* s = &set;; s = FindStored(s->base)) {
    end -= s->members.size();
    std::copy(s->members.begin(), s->members.end(),
              members.begin() + static_cast<std::ptrdiff_t>(end));
    if (!s->base.valid()) break;
  }
  return members;
}

const FactRegistry::Stored* FactRegistry::FindStored(FactId id) const {
  if (!id.valid()) return nullptr;
  for (const FactRegistry* r = this; r != nullptr; r = r->base_.get()) {
    if (id.raw() >= r->base_size_) {
      const std::size_t local = id.raw() - r->base_size_;
      return local < r->terms_.size() ? &r->terms_[local] : nullptr;
    }
  }
  return nullptr;
}

Result<FactTerm> FactRegistry::Get(FactId id) const {
  const Stored* stored = FindStored(id);
  if (stored == nullptr) {
    return Status::NotFound(StrCat("fact id ", id, " not in registry"));
  }
  FactTerm term;
  term.kind = stored->kind;
  term.atom = stored->atom;
  term.first = stored->first;
  term.second = stored->second;
  if (stored->kind == FactTerm::Kind::kSet) term.members = MembersOf(*stored);
  return term;
}

std::optional<FactRegistry::SetShape> FactRegistry::ShapeOfSet(
    FactId id) const {
  const Stored* stored = FindStored(id);
  if (stored == nullptr || stored->kind != FactTerm::Kind::kSet) {
    return std::nullopt;
  }
  // An extension's tail is never empty and sits above its base.
  return SetShape{stored->count, stored->members.empty()
                                     ? FactId()
                                     : stored->members.back()};
}

std::string FactRegistry::ToString(FactId id) const {
  const Stored* stored = FindStored(id);
  if (stored == nullptr) return "<unknown>";
  switch (stored->kind) {
    case FactTerm::Kind::kAtom:
      return std::to_string(stored->atom);
    case FactTerm::Kind::kPair:
      return StrCat("(", ToString(stored->first), ",",
                    ToString(stored->second), ")");
    case FactTerm::Kind::kSet: {
      std::vector<std::string> parts;
      parts.reserve(stored->count);
      for (FactId member : MembersOf(*stored)) {
        parts.push_back(ToString(member));
      }
      return StrCat("{", Join(parts, ","), "}");
    }
  }
  return "<unknown>";
}

FactId FactRegistry::Intern(Stored term) {
  const auto ordinal = static_cast<std::uint32_t>(terms_.size());
  TableFor(term.kind).Insert(term.hash, ordinal);
  stored_members_ += term.members.size();
  terms_.push_back(std::move(term));
  return FactId(base_size_ + ordinal);
}

}  // namespace mddc
