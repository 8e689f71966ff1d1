#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

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

TEST(FactRegistryDifferentialTest, ForkInternFlattenKeepsIdsStable) {
  auto root = std::make_shared<FactRegistry>();
  ReferenceRegistry reference;
  ReplayHistory history;
  ReplayAndCompare(*root, reference, history, /*seed=*/1u, /*operations=*/500);
  // Fork: the overlay must resolve base terms to their original ids and
  // continue the id sequence for new terms — exactly what the single
  // reference registry does when simply replayed further.
  std::shared_ptr<FactRegistry> fork = FactRegistry::ForkOf(root);
  EXPECT_EQ(fork->fork_depth(), 1u);
  EXPECT_EQ(fork->size(), reference.size());
  ReplayAndCompare(*fork, reference, history, /*seed=*/2u, /*operations=*/500);

  // A second-generation fork, then flatten: ids must survive both.
  std::shared_ptr<FactRegistry> fork2 =
      FactRegistry::ForkOf(std::shared_ptr<const FactRegistry>(fork));
  ReplayAndCompare(*fork2, reference, history, /*seed=*/3u,
                   /*operations=*/500);
  std::shared_ptr<FactRegistry> flat = fork2->Flatten();
  EXPECT_EQ(flat->fork_depth(), 0u);
  EXPECT_EQ(flat->size(), reference.size());
  EXPECT_EQ(flat->stored_member_ids(), fork2->stored_member_ids());
  // Every structure resolves identically pre- and post-flatten...
  for (std::uint64_t raw = 0; raw < flat->size(); ++raw) {
    auto before = fork2->Get(FactId(raw));
    auto after = flat->Get(FactId(raw));
    ASSERT_TRUE(before.ok() && after.ok()) << "id " << raw;
    EXPECT_TRUE(*before == *after) << "id " << raw;
  }
  // ...and further identical interning stays in agreement.
  ReplayAndCompare(*flat, reference, history, /*seed=*/4u, /*operations=*/500);
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

}  // namespace
}  // namespace mddc
