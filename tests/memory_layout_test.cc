#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/chunked_vector.h"
#include "core/fact.h"
#include "core/fact_dim_relation.h"

namespace mddc {
namespace {

// ---- CSR by-fact span view ------------------------------------------------

std::vector<std::size_t> ToVector(FactDimRelation::EntrySpan span) {
  return std::vector<std::size_t>(span.begin(), span.end());
}

std::vector<std::size_t> SpanToVector(const FactDimRelation& relation,
                                      FactId fact) {
  for (const FactDimRelation::FactSpan& span : relation.FactSpans()) {
    if (span.fact == fact) return ToVector(relation.SpanEntries(span));
  }
  return {};
}

FactDimRelation SmallRelation() {
  FactDimRelation relation;
  EXPECT_TRUE(relation.Add(FactId(2), ValueId(10)).ok());
  EXPECT_TRUE(relation.Add(FactId(1), ValueId(11)).ok());
  EXPECT_TRUE(relation.Add(FactId(2), ValueId(12)).ok());
  EXPECT_TRUE(relation.Add(FactId(3), ValueId(10)).ok());
  return relation;
}

TEST(FactDimRelationCsrTest, SpansMatchPerFactIndexAndAreSorted) {
  FactDimRelation relation = SmallRelation();
  const ChunkedVector<FactDimRelation::FactSpan>& spans = relation.FactSpans();
  ASSERT_EQ(spans.size(), 3u);
  // Facts ascending, regardless of insertion order.
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(),
      [](const auto& a, const auto& b) { return a.fact < b.fact; }));
  for (const FactDimRelation::FactSpan& span : spans) {
    EXPECT_EQ(SpanToVector(relation, span.fact),
              ToVector(relation.EntryIndexesForFact(span.fact)))
        << "fact " << span.fact;
  }
}

TEST(FactDimRelationCsrTest, AddInvalidatesAndRebuilds) {
  FactDimRelation relation = SmallRelation();
  ASSERT_EQ(relation.FactSpans().size(), 3u);  // build the view
  ASSERT_TRUE(relation.Add(FactId(7), ValueId(10)).ok());
  const ChunkedVector<FactDimRelation::FactSpan>& spans = relation.FactSpans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.back().fact, FactId(7));
  EXPECT_EQ(SpanToVector(relation, FactId(7)),
            ToVector(relation.EntryIndexesForFact(FactId(7))));
  // Coalescing Add (same pair again) also invalidates, then rebuilds to
  // the same shape.
  ASSERT_TRUE(relation.Add(FactId(7), ValueId(10)).ok());
  EXPECT_EQ(relation.FactSpans().size(), 4u);
}

TEST(FactDimRelationCsrTest, RestrictToFactsInvalidatesAndRebuilds) {
  FactDimRelation relation = SmallRelation();
  ASSERT_EQ(relation.FactSpans().size(), 3u);  // build the view
  relation.RestrictToFacts({FactId(2)});
  const ChunkedVector<FactDimRelation::FactSpan>& spans = relation.FactSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].fact, FactId(2));
  EXPECT_EQ(spans[0].end - spans[0].begin, 2u);
  EXPECT_EQ(SpanToVector(relation, FactId(2)),
            ToVector(relation.EntryIndexesForFact(FactId(2))));
}

TEST(FactDimRelationCsrTest, CopyGetsItsOwnView) {
  FactDimRelation relation = SmallRelation();
  relation.SealIndexes();
  FactDimRelation copy(relation);
  ASSERT_TRUE(copy.Add(FactId(9), ValueId(10)).ok());
  EXPECT_EQ(copy.FactSpans().size(), 4u);
  EXPECT_EQ(relation.FactSpans().size(), 3u);  // original untouched
}

TEST(FactDimRelationCsrTest, EntrySpanOfWrapsAVector) {
  const std::vector<std::size_t> list = {4, 8, 15};
  FactDimRelation::EntrySpan span = FactDimRelation::EntrySpan::Of(list);
  EXPECT_EQ(span.size(), 3u);
  EXPECT_FALSE(span.empty());
  EXPECT_EQ(span.front(), 4u);
  EXPECT_EQ(std::vector<std::size_t>(span.begin(), span.end()), list);
  EXPECT_TRUE(FactDimRelation::EntrySpan{}.empty());
}

/// Every CSR row's run equals its fact's by-fact list, the rows ascend
/// and cover exactly the relation's facts.
void ExpectRunsMatchLists(const FactDimRelation& relation,
                          std::size_t facts) {
  const ChunkedVector<FactDimRelation::FactSpan>& spans = relation.FactSpans();
  ASSERT_EQ(spans.size(), facts);
  for (std::size_t row = 0; row < spans.size(); ++row) {
    if (row > 0) {
      ASSERT_LT(spans[row - 1].fact, spans[row].fact);
    }
    ASSERT_EQ(ToVector(relation.SpanEntries(spans[row])),
              ToVector(relation.EntryIndexesForFact(spans[row].fact)))
        << "fact " << spans[row].fact;
  }
}

// A fact's run never straddles a chunk of the entry-index array: runs of
// every length are laid out around chunk boundaries, a run longer than a
// chunk is served from its by-fact list, and a tail extension that grows
// the last run past a boundary re-lays it whole — in a copy, while the
// source keeps its own view.
TEST(FactDimRelationCsrTest, RunsStayWholeAcrossChunkBoundaries) {
  constexpr std::size_t C = ChunkedVector<std::size_t>::kChunkSize;
  FactDimRelation relation;
  std::uint64_t value = 1;
  std::uint64_t fact = 1;
  for (; fact <= 900; ++fact) {
    const std::size_t pairs = fact == 400 ? C + 300 : 1 + fact % 7;
    for (std::size_t k = 0; k < pairs; ++k) {
      ASSERT_TRUE(relation.Add(FactId(fact), ValueId(value++)).ok());
    }
  }
  ASSERT_GT(relation.size(), 4 * C);
  ExpectRunsMatchLists(relation, 900);

  FactDimRelation copy = relation;
  const FactId last(fact - 1);
  for (std::size_t grown = 0; grown < C + 10; ++grown) {
    ASSERT_TRUE(copy.Add(last, ValueId(value++)).ok());
    ASSERT_EQ(copy.SealIndexesReporting(),
              FactDimRelation::SealOutcome::kExtended);
    if (grown % 97 == 0 || grown + 1 == C + 10) {
      ExpectRunsMatchLists(copy, 900);
    }
  }
  ASSERT_TRUE(copy.Add(FactId(fact), ValueId(value++)).ok());
  ASSERT_EQ(copy.SealIndexesReporting(),
            FactDimRelation::SealOutcome::kExtended);
  ExpectRunsMatchLists(copy, 901);
  ExpectRunsMatchLists(relation, 900);
  EXPECT_EQ(relation.EntryIndexesForFact(last).size(), 1 + (fact - 1) % 7);
}

// ---- FactRegistry flat-hash differential ----------------------------------

/// A deliberately naive ordered-map registry mirroring FactRegistry's id
/// assignment contract (dense ids in interning order, canonical sets).
/// The flat-hash implementation must agree with it on every id.
class ReferenceRegistry {
 public:
  FactId Atom(std::uint64_t key) {
    auto [it, inserted] = atoms_.try_emplace(key, FactId(next_));
    if (inserted) ++next_;
    return it->second;
  }
  FactId Pair(FactId a, FactId b) {
    auto [it, inserted] = pairs_.try_emplace(std::make_pair(a, b),
                                             FactId(next_));
    if (inserted) ++next_;
    return it->second;
  }
  FactId Set(std::vector<FactId> members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    auto [it, inserted] = sets_.try_emplace(std::move(members),
                                            FactId(next_));
    if (inserted) ++next_;
    return it->second;
  }
  std::size_t size() const { return next_; }

 private:
  std::map<std::uint64_t, FactId> atoms_;
  std::map<std::pair<FactId, FactId>, FactId> pairs_;
  std::map<std::vector<FactId>, FactId> sets_;
  std::uint64_t next_ = 0;
};

/// Replays a deterministic mixed intern sequence against both
/// implementations, asserting id-for-id agreement. Extension ops grow a
/// known set by a tail above its members through SetExtending (now and
/// then a member below, which must intern the plain union) and check the
/// id against the reference's Set of the whole list, so extension and
/// plain storage are one identity in either interning order.
/// The ids a replay has produced; kept across replays so a fork's ops
/// pair, group and extend terms that live below it.
struct ReplayHistory {
  std::vector<FactId> known;
  std::map<FactId, std::vector<FactId>> sets;  // set id -> sorted members
};

void ReplayAndCompare(FactRegistry& registry, ReferenceRegistry& reference,
                      ReplayHistory& history, std::uint64_t seed,
                      int operations) {
  std::uint64_t state = seed;
  auto next_random = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<FactId>& known = history.known;
  std::map<FactId, std::vector<FactId>>& sets = history.sets;
  auto add_set = [&](FactId id, std::vector<FactId> members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    sets.emplace(id, std::move(members));
  };
  for (int op = 0; op < operations; ++op) {
    FactId got, want;
    switch (next_random() % 4) {
      case 0: {
        std::uint64_t key = next_random() % 64;  // dense: forces re-interns
        got = registry.Atom(key);
        want = reference.Atom(key);
        break;
      }
      case 1: {
        if (known.size() < 2) continue;
        FactId a = known[next_random() % known.size()];
        FactId b = known[next_random() % known.size()];
        got = registry.Pair(a, b);
        want = reference.Pair(a, b);
        break;
      }
      case 2: {
        std::vector<FactId> members;
        for (std::uint64_t i = 0, n = next_random() % 5; i < n; ++i) {
          if (!known.empty()) {
            members.push_back(known[next_random() % known.size()]);
          }
        }
        got = registry.Set(members);
        want = reference.Set(members);
        add_set(got, std::move(members));
        break;
      }
      default: {
        if (sets.empty()) continue;
        auto base = sets.begin();
        std::advance(base, next_random() % sets.size());
        const std::vector<FactId>& base_members = base->second;
        std::vector<FactId> tail;
        for (std::uint64_t i = 0, n = next_random() % 4; i < n; ++i) {
          const FactId member = known[next_random() % known.size()];
          if (base_members.empty() || base_members.back() < member ||
              next_random() % 8 == 0) {
            tail.push_back(member);
          }
        }
        std::vector<FactId> whole = base_members;
        whole.insert(whole.end(), tail.begin(), tail.end());
        got = registry.SetExtending(base->first, tail);
        want = reference.Set(whole);
        add_set(got, std::move(whole));
        break;
      }
    }
    ASSERT_EQ(got, want) << "op " << op;
    known.push_back(got);
  }
  EXPECT_EQ(registry.size(), reference.size());
  // Every set resolves to its whole sorted member list.
  for (const auto& [id, members] : sets) {
    auto term = registry.Get(id);
    ASSERT_TRUE(term.ok()) << "id " << id;
    EXPECT_EQ(term->members, members) << "id " << id;
  }
}

TEST(FactRegistryDifferentialTest, FlatHashMatchesOrderedMapReference) {
  FactRegistry registry;
  ReferenceRegistry reference;
  ReplayHistory history;
  ReplayAndCompare(registry, reference, history, /*seed=*/0xfeedu,
                   /*operations=*/2000);
}

TEST(FactRegistryDifferentialTest, ForkInternForkInternKeepsIdsStable) {
  auto root = std::make_shared<FactRegistry>();
  ReferenceRegistry reference;
  ReplayHistory history;
  ReplayAndCompare(*root, reference, history, /*seed=*/1u, /*operations=*/500);
  // A copy must resolve the source's terms to their original ids and
  // continue the id sequence for new terms — exactly what the single
  // reference registry does when simply replayed further — while the
  // source sees none of the copy's interning.
  const std::size_t root_size = root->size();
  std::shared_ptr<FactRegistry> fork = FactRegistry::ForkOf(root);
  EXPECT_EQ(fork->size(), reference.size());
  EXPECT_EQ(fork->stored_member_ids(), root->stored_member_ids());
  EXPECT_EQ(fork->SharedChunksWith(*root), root->chunk_count());
  ReplayAndCompare(*fork, reference, history, /*seed=*/2u, /*operations=*/500);
  EXPECT_EQ(root->size(), root_size);

  // A copy of the copy, interned into twice more: ids survive both.
  std::shared_ptr<FactRegistry> fork2 =
      FactRegistry::ForkOf(std::shared_ptr<const FactRegistry>(fork));
  EXPECT_EQ(fork2->size(), reference.size());
  EXPECT_EQ(fork2->stored_member_ids(), fork->stored_member_ids());
  // Every structure resolves identically in the copy and its source...
  for (std::uint64_t raw = 0; raw < fork->size(); ++raw) {
    auto before = fork->Get(FactId(raw));
    auto after = fork2->Get(FactId(raw));
    ASSERT_TRUE(before.ok() && after.ok()) << "id " << raw;
    EXPECT_TRUE(*before == *after) << "id " << raw;
  }
  // ...and further identical interning stays in agreement.
  const std::size_t fork_size = fork->size();
  ReplayAndCompare(*fork2, reference, history, /*seed=*/3u,
                   /*operations=*/500);
  std::shared_ptr<FactRegistry> fork3 =
      FactRegistry::ForkOf(std::shared_ptr<const FactRegistry>(fork2));
  ReplayAndCompare(*fork3, reference, history, /*seed=*/4u,
                   /*operations=*/500);
  EXPECT_EQ(fork->size(), fork_size);
  EXPECT_EQ(root->size(), root_size);
}

TEST(FactRegistryDifferentialTest, SiblingForksAssignTheSameNewIds) {
  auto root = std::make_shared<FactRegistry>();
  for (std::uint64_t key = 0; key < 100; ++key) (void)root->Atom(key);
  std::shared_ptr<const FactRegistry> frozen = root;
  std::shared_ptr<FactRegistry> left = FactRegistry::ForkOf(frozen);
  std::shared_ptr<FactRegistry> right = FactRegistry::ForkOf(frozen);
  // Shared history resolves to the same ids in both forks.
  EXPECT_EQ(left->Atom(42), right->Atom(42));
  // The same sequence of *new* terms assigns the same new ids.
  EXPECT_EQ(left->Atom(1000), right->Atom(1000));
  EXPECT_EQ(left->Pair(FactId(1), FactId(2)), right->Pair(FactId(1), FactId(2)));
  EXPECT_EQ(left->Set({FactId(3), FactId(4)}),
            right->Set({FactId(4), FactId(3), FactId(4)}));
}

// ---- FactRegistry member pool chunks and concurrent copies ----------------

constexpr std::size_t kPoolChunk = ChunkedVector<FactId>::kChunkSize;

/// How FactRegistry::ToString renders a set of atoms whose keys are their
/// ids: "{3,4,9}".
std::string RenderAtomSet(const std::vector<FactId>& members) {
  std::string text = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) text += ",";
    text += std::to_string(members[i].raw());
  }
  return text + "}";
}

/// Set term `id` of `registry` holds exactly `whole` (ascending), through
/// every read: Get, ShapeOfSet and ToString (for atoms keyed by their id).
void ExpectSetReads(const FactRegistry& registry, FactId id,
                    const std::vector<FactId>& whole) {
  auto term = registry.Get(id);
  ASSERT_TRUE(term.ok()) << "id " << id;
  EXPECT_EQ(term->kind, FactTerm::Kind::kSet) << "id " << id;
  EXPECT_EQ(term->members, whole) << "id " << id;
  const auto shape = registry.ShapeOfSet(id);
  ASSERT_TRUE(shape.has_value()) << "id " << id;
  EXPECT_EQ(shape->count, whole.size()) << "id " << id;
  EXPECT_EQ(shape->largest, whole.empty() ? FactId() : whole.back())
      << "id " << id;
  EXPECT_EQ(registry.ToString(id), RenderAtomSet(whole)) << "id " << id;
}

TEST(FactRegistryChunkTest, SetsStraddlingPoolChunksMatchTheReference) {
  auto registry = std::make_shared<FactRegistry>();
  ReferenceRegistry reference;
  // Atoms keyed by their ids, so a set renders as its member ids.
  std::vector<FactId> atoms;
  for (std::uint64_t key = 0; key < 4 * kPoolChunk; ++key) {
    atoms.push_back(registry->Atom(key));
    ASSERT_EQ(atoms.back(), reference.Atom(key));
  }
  auto range = [&](std::size_t from, std::size_t to) {
    return std::vector<FactId>(
        atoms.begin() + static_cast<std::ptrdiff_t>(from),
        atoms.begin() + static_cast<std::ptrdiff_t>(to));
  };
  auto concat = [](std::vector<FactId> a, const std::vector<FactId>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  // Every set interned so far, with its whole sorted member list.
  std::vector<std::pair<FactId, std::vector<FactId>>> sets;
  auto plain = [&](FactRegistry& r, std::vector<FactId> whole) {
    const FactId id = r.Set(whole);
    EXPECT_EQ(id, reference.Set(whole));
    sets.emplace_back(id, std::move(whole));
    return id;
  };
  auto extend = [&](FactRegistry& r, FactId base,
                    const std::vector<FactId>& base_whole,
                    const std::vector<FactId>& tail) {
    const FactId id = r.SetExtending(base, tail);
    std::vector<FactId> whole = concat(base_whole, tail);
    EXPECT_EQ(id, reference.Set(whole));
    sets.emplace_back(id, std::move(whole));
    return id;
  };

  // A plain set of more than a chunk: pool [0, 1500) straddles 1,024.
  const std::size_t big_size = kPoolChunk + kPoolChunk / 2 - 36;
  plain(*registry, range(0, big_size));
  EXPECT_EQ(registry->stored_member_ids(), big_size);
  // A plain set filling the pool to 5 below the next boundary, then an
  // extension whose 10-member tail crosses it.
  const std::size_t pad = 2 * kPoolChunk - 5 - big_size;
  const FactId padding = plain(*registry, range(big_size, big_size + pad));
  extend(*registry, padding, range(big_size, big_size + pad),
         range(big_size + pad, big_size + pad + 10));
  ASSERT_EQ(registry->stored_member_ids(), 2 * kPoolChunk + 5);

  // A chain of extensions, 97 members a link, with a small plain set
  // between links so the links scatter across the pool's chunks; one
  // link's tail is longer than a chunk.
  FactId link = plain(*registry, range(0, 1));
  std::vector<FactId> link_whole = range(0, 1);
  std::size_t next = 1;
  for (int i = 0; i < 30; ++i) {
    const std::size_t n = i == 12 ? kPoolChunk + 40 : 97;
    const std::vector<FactId> tail = range(next, next + n);
    link = extend(*registry, link, link_whole, tail);
    link_whole = concat(std::move(link_whole), tail);
    next += n;
    plain(*registry, range(next, next + 1 + i % 3));
  }
  ASSERT_GT(next, 3 * kPoolChunk);
  EXPECT_EQ(registry->size(), reference.size());

  // A copy shares the pool and extends the chain past another boundary:
  // its first append clones the shared tail chunk, then adds fresh ones.
  std::shared_ptr<FactRegistry> copy =
      FactRegistry::ForkOf(std::shared_ptr<const FactRegistry>(registry));
  const std::size_t original_size = registry->size();
  const std::size_t original_sets = sets.size();
  const std::size_t tail_from = next;
  const FactId in_copy = extend(*copy, link, link_whole,
                                range(tail_from, 4 * kPoolChunk));
  EXPECT_GE(copy->SharedChunksWith(*registry), registry->chunk_count() - 2);
  EXPECT_EQ(registry->size(), original_size);
  EXPECT_FALSE(registry->Get(in_copy).ok());

  // Every set reads whole and re-interns, plainly or as an extension, to
  // its id, in the registry that holds it; the copy holds them all.
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const auto& [id, whole] = sets[i];
    SCOPED_TRACE(testing::Message() << "set " << i << " id " << id);
    ExpectSetReads(*copy, id, whole);
    if (i < original_sets) ExpectSetReads(*registry, id, whole);
    EXPECT_EQ(copy->Set(whole), id);
    EXPECT_EQ(reference.Set(whole), id);
    if (!whole.empty()) {
      const std::vector<FactId> first(whole.begin(), whole.begin() + 1);
      const FactId head = copy->Set(first);
      EXPECT_EQ(head, reference.Set(first));
      EXPECT_EQ(copy->SetExtending(
                    head, std::vector<FactId>(whole.begin() + 1, whole.end())),
                id);
    }
  }
  EXPECT_EQ(copy->size(), reference.size());
}

// Readers copy the sealed published registry and intern into their
// copies while a writer drafts on its own copy, interns and publishes,
// epoch after epoch; the pools cross chunk boundaries as they grow. Every
// copy resolves every published id the way the registry it copied does,
// and no interning reaches a published registry.
TEST(FactRegistryConcurrencyTest,
     ReaderCopiesResolvePublishedIdsDuringPublishes) {
  constexpr int kEpochs = 40;
  constexpr int kReaders = 2;
  std::mutex mu;  // guards `published`, like MoStore's pin mutex
  std::shared_ptr<const FactRegistry> published;
  ReferenceRegistry reference;
  {
    auto root = std::make_shared<FactRegistry>();
    std::vector<FactId> members;
    for (std::uint64_t key = 0; key < kPoolChunk - 10; ++key) {
      members.push_back(root->Atom(key));
      (void)reference.Atom(key);
    }
    EXPECT_EQ(root->Set(members), reference.Set(members));
    root->Seal();
    published = std::move(root);
  }
  auto pin = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return published;
  };

  std::atomic<bool> done{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> rounds{0};
  auto reader = [&](std::uint64_t reader_id) {
    for (std::uint64_t round = 0; !done.load(std::memory_order_acquire) ||
                                  round < 2;
         ++round) {
      const std::shared_ptr<const FactRegistry> pinned = pin();
      const std::size_t size = pinned->size();
      const std::size_t stored = pinned->stored_member_ids();
      std::shared_ptr<FactRegistry> copy = FactRegistry::ForkOf(pinned);
      if (copy->SharedChunksWith(*pinned) != pinned->chunk_count()) {
        ++failures;
      }
      // The copy's own terms: atoms above every published id, a set of
      // them, and an extension of the newest published term (a set).
      std::vector<FactId> mine;
      for (std::uint64_t i = 0; i < 40; ++i) {
        mine.push_back(copy->Atom((reader_id + 1) * 1000000000ull +
                                  round * 64 + i));
      }
      const FactId own_set = copy->Set(mine);
      const FactId newest(size - 1);
      const FactId extended = copy->SetExtending(newest, mine);
      std::vector<FactId> whole = copy->Get(newest)->members;
      whole.insert(whole.end(), mine.begin(), mine.end());
      if (copy->Get(extended)->members != whole ||
          copy->Get(own_set)->members != mine ||
          copy->size() != size + mine.size() + 2) {
        ++failures;
      }
      // Every published id resolves in the copy as in the registry it
      // copied, and re-interns to itself.
      for (std::uint64_t raw = 0; raw < size; ++raw) {
        const auto want = pinned->Get(FactId(raw));
        const auto got = copy->Get(FactId(raw));
        if (!want.ok() || !got.ok() || !(*want == *got)) {
          ++failures;
          continue;
        }
        const FactId again = want->kind == FactTerm::Kind::kAtom
                                 ? copy->Atom(want->atom)
                                 : copy->Set(want->members);
        if (again != FactId(raw)) ++failures;
      }
      // Nothing the copy interned reached the published registry.
      if (pinned->size() != size || pinned->stored_member_ids() != stored ||
          pinned->Get(extended).ok()) {
        ++failures;
      }
      ++rounds;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(reader, static_cast<std::uint64_t>(r));
  }

  // The writer: each epoch a fresh draft of the published registry gets
  // 70 atoms, a plain set of 40 of them and an extension of the previous
  // epoch's newest set, then is sealed and published.
  FactId newest_set(published->size() - 1);
  std::vector<FactId> newest_whole = published->Get(newest_set)->members;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::shared_ptr<FactRegistry> draft = FactRegistry::ForkOf(pin());
    std::vector<FactId> batch;
    for (std::uint64_t i = 0; i < 70; ++i) {
      const std::uint64_t key =
          500000000ull + static_cast<std::uint64_t>(epoch) * 100 + i;
      batch.push_back(draft->Atom(key));
      EXPECT_EQ(batch.back(), reference.Atom(key));
    }
    const std::vector<FactId> plain(batch.begin(), batch.begin() + 40);
    EXPECT_EQ(draft->Set(plain), reference.Set(plain));
    const std::vector<FactId> tail(batch.begin() + 40, batch.end());
    newest_set = draft->SetExtending(newest_set, tail);
    newest_whole.insert(newest_whole.end(), tail.begin(), tail.end());
    EXPECT_EQ(newest_set, reference.Set(newest_whole));
    EXPECT_EQ(draft->size(), reference.size());
    draft->Seal();
    std::lock_guard<std::mutex> lock(mu);
    published = std::move(draft);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(rounds.load(), static_cast<std::size_t>(2 * kReaders));
  // The published pool crossed chunk boundaries on the way.
  EXPECT_GT(published->stored_member_ids(), 3 * kPoolChunk);
  EXPECT_EQ(published->Get(newest_set)->members, newest_whole);
  EXPECT_EQ(published->ShapeOfSet(newest_set)->count, newest_whole.size());
}

}  // namespace
}  // namespace mddc
