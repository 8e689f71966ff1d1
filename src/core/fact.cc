#include "core/fact.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <type_traits>

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
  auto copy = std::make_shared<FactRegistry>();
  if (base != nullptr) {
    copy->terms_ = base->terms_;
    copy->members_ = base->members_;
    copy->atom_index_ = base->atom_index_;
    copy->pair_index_ = base->pair_index_;
    copy->set_index_ = base->set_index_;
  }
  return copy;
}

void FactRegistry::LayeredTable::Settle() {
  const std::size_t base_keys = base == nullptr ? 0 : base->size();
  if (4 * delta.size() <= base_keys) return;
  if (base_keys == 0) {
    base = std::make_shared<const FlatHashIndex>(std::move(delta));
  } else {
    auto merged = std::make_shared<FlatHashIndex>(*base);
    delta.ForEach([&merged](std::uint64_t hash, std::uint32_t ordinal) {
      merged->Insert(hash, ordinal);
    });
    base = std::move(merged);
  }
  delta = FlatHashIndex();
}

void FactRegistry::Seal() {
  if (sealed_) return;
  atom_index_.Settle();
  pair_index_.Settle();
  set_index_.Settle();
  sealed_ = true;
}

std::size_t FactRegistry::SharedTablesWith(const FactRegistry& other) const {
  std::size_t shared = 0;
  for (FactTerm::Kind kind : {FactTerm::Kind::kAtom, FactTerm::Kind::kPair,
                              FactTerm::Kind::kSet}) {
    const LayeredTable& mine = TableFor(kind);
    shared += mine.base != nullptr && mine.base == other.TableFor(kind).base
                  ? 1
                  : 0;
  }
  return shared;
}

std::size_t FactRegistry::delta_keys() const {
  return atom_index_.delta.size() + pair_index_.delta.size() +
         set_index_.delta.size();
}

void FactRegistry::CheckUnsealed() const {
  if (sealed_) [[unlikely]] {
    std::cerr << "FactRegistry: intern call on a sealed registry (a "
                 "published epoch's registry is read-only; intern into a "
                 "ForkOf it)\n";
    std::abort();
  }
}

const FactRegistry::LayeredTable& FactRegistry::TableFor(
    FactTerm::Kind kind) const {
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
  const std::uint32_t ordinal = TableFor(kind).Find(
      hash, [&](std::uint32_t o) { return eq(terms_[o]); });
  return ordinal == FlatHashIndex::kNone ? FactId() : FactId(ordinal);
}

template <typename Fn>
bool FactRegistry::ForEachMemberRun(std::size_t begin, std::size_t n,
                                    const Fn& fn) const {
  for (std::size_t done = 0; done < n;) {
    const std::span<const FactId> run = members_.RunFrom(begin + done);
    const std::size_t take = std::min(run.size(), n - done);
    if (!fn(done, run.first(take))) return false;
    done += take;
  }
  return true;
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
  return Intern(hash, term);
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
  return Intern(hash, term);
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
  term.hash = hash;
  return Intern(hash, term, members);
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
  const FactId largest = LargestOf(*stored_base);
  if (largest.valid() && !(largest < tail.front())) {
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
      return ForEachMemberRun(
          s.begin, s.own,
          [&](std::size_t offset, std::span<const FactId> run) {
            return std::equal(run.begin(), run.end(),
                              tail.begin() +
                                  static_cast<std::ptrdiff_t>(offset));
          });
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
  term.hash = hash;
  return Intern(hash, term, tail);
}

bool FactRegistry::MembersEqual(const Stored& set,
                                std::span<const FactId> full) const {
  // Each link of an extension chain holds the members just above its
  // base's, so the links match the list's segments from the back.
  std::size_t end = full.size();
  for (const Stored* s = &set;; s = FindStored(s->base)) {
    const std::size_t n = s->own;
    if (n > end) return false;
    const std::span<const FactId> segment = full.subspan(end - n, n);
    if (!ForEachMemberRun(
            s->begin, n, [&](std::size_t offset, std::span<const FactId> run) {
              return std::equal(run.begin(), run.end(),
                                segment.begin() +
                                    static_cast<std::ptrdiff_t>(offset));
            })) {
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
    end -= s->own;
    ForEachMemberRun(s->begin, s->own,
                     [&](std::size_t offset, std::span<const FactId> run) {
                       std::copy(run.begin(), run.end(),
                                 members.begin() +
                                     static_cast<std::ptrdiff_t>(end + offset));
                       return true;
                     });
    if (!s->base.valid()) break;
  }
  return members;
}

FactId FactRegistry::LargestOf(const Stored& set) const {
  return set.own == 0 ? FactId() : members_[set.begin + set.own - 1];
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
  return SetShape{stored->count, LargestOf(*stored)};
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

FactId FactRegistry::Intern(std::uint64_t hash, Stored term,
                            std::span<const FactId> own) {
  static_assert(std::is_trivially_copyable_v<Stored>);
  if (own.size() > std::numeric_limits<std::uint32_t>::max()) {
    std::cerr << "FactRegistry: a set term of " << own.size()
              << " own members exceeds the 32-bit member count\n";
    std::abort();
  }
  const auto ordinal = static_cast<std::uint32_t>(terms_.size());
  TableFor(term.kind).delta.Insert(hash, ordinal);
  term.own = static_cast<std::uint32_t>(own.size());
  term.begin = members_.size();
  members_.Append(own);
  terms_.push_back(term);
  return FactId(ordinal);
}

}  // namespace mddc
