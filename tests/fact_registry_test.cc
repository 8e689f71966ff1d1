#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fact.h"

namespace mddc {
namespace {

TEST(FactRegistryTest, AtomsAreInterned) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(1);
  FactId c = registry.Atom(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(FactRegistryTest, PairsAreOrderSensitive) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(2);
  FactId ab = registry.Pair(a, b);
  FactId ba = registry.Pair(b, a);
  EXPECT_NE(ab, ba);
  EXPECT_EQ(registry.Pair(a, b), ab);
}

TEST(FactRegistryTest, SetsAreCanonical) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(2);
  // Order and duplicates do not matter: {a,b} == {b,a,b}.
  FactId s1 = registry.Set({a, b});
  FactId s2 = registry.Set({b, a, b});
  EXPECT_EQ(s1, s2);
  FactId s3 = registry.Set({a});
  EXPECT_NE(s1, s3);
}

TEST(FactRegistryTest, EmptySetIsValid) {
  FactRegistry registry;
  FactId empty = registry.Set({});
  EXPECT_TRUE(empty.valid());
  auto term = registry.Get(empty);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->kind, FactTerm::Kind::kSet);
  EXPECT_TRUE(term->members.empty());
}

TEST(FactRegistryTest, GetReturnsStructure) {
  FactRegistry registry;
  FactId a = registry.Atom(7);
  auto term = registry.Get(a);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->kind, FactTerm::Kind::kAtom);
  EXPECT_EQ(term->atom, 7u);
  EXPECT_FALSE(registry.Get(FactId(999)).ok());
  EXPECT_FALSE(registry.Get(FactId()).ok());
}

TEST(FactRegistryTest, ToStringRendersNestedStructure) {
  FactRegistry registry;
  FactId one = registry.Atom(1);
  FactId two = registry.Atom(2);
  EXPECT_EQ(registry.ToString(one), "1");
  EXPECT_EQ(registry.ToString(registry.Pair(one, two)), "(1,2)");
  EXPECT_EQ(registry.ToString(registry.Set({two, one})), "{1,2}");
  // Sets of sets (double aggregate formation).
  FactId inner = registry.Set({one, two});
  EXPECT_EQ(registry.ToString(registry.Set({inner})), "{{1,2}}");
}

TEST(FactRegistryTest, NestedTermsCompose) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(2);
  FactId pair = registry.Pair(a, b);
  FactId set_of_pair = registry.Set({pair});
  auto term = registry.Get(set_of_pair);
  ASSERT_TRUE(term.ok());
  ASSERT_EQ(term->members.size(), 1u);
  EXPECT_EQ(term->members[0], pair);
}

// ---- Extension set terms -------------------------------------------------

/// Atoms 1..n, returned in interning (= ascending id) order.
std::vector<FactId> Atoms(FactRegistry& registry, std::uint64_t n) {
  std::vector<FactId> atoms;
  for (std::uint64_t key = 1; key <= n; ++key) {
    atoms.push_back(registry.Atom(key));
  }
  return atoms;
}

TEST(FactRegistryExtensionTest, ExtensionAndPlainSetShareOneIdEitherOrder) {
  FactRegistry registry;
  const std::vector<FactId> f = Atoms(registry, 6);
  const FactId base = registry.Set({f[0], f[1]});

  // Extension first, then the plain set of the same members.
  const FactId extended = registry.SetExtending(base, {f[2], f[3]});
  const std::size_t size = registry.size();
  EXPECT_EQ(registry.Set({f[3], f[1], f[2], f[0]}), extended);
  EXPECT_EQ(registry.size(), size);

  // Plain set first, then an extension (unsorted, duplicated tail).
  const FactId plain = registry.Set({f[0], f[1], f[4], f[5]});
  EXPECT_EQ(registry.SetExtending(base, {f[5], f[4], f[5]}), plain);
  EXPECT_EQ(registry.size(), size + 1);

  // The same extension twice, and an extension of another base reaching
  // the same members.
  EXPECT_EQ(registry.SetExtending(base, {f[2], f[3]}), extended);
  const FactId smaller = registry.SetExtending(base, {f[2]});
  EXPECT_EQ(registry.SetExtending(smaller, {f[3]}), extended);
  EXPECT_NE(smaller, extended);
}

TEST(FactRegistryExtensionTest, GetAndToStringReturnTheWholeSortedList) {
  FactRegistry registry;
  const std::vector<FactId> f = Atoms(registry, 5);
  const FactId base = registry.Set({f[1], f[0]});
  const FactId once = registry.SetExtending(base, {f[3], f[2]});
  const FactId twice = registry.SetExtending(once, {f[4]});
  auto term = registry.Get(twice);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->kind, FactTerm::Kind::kSet);
  EXPECT_EQ(term->members, f);
  EXPECT_EQ(registry.ToString(twice), "{1,2,3,4,5}");
  EXPECT_EQ(registry.ToString(once), "{1,2,3,4}");
  const auto shape = registry.ShapeOfSet(twice);
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->count, 5u);
  EXPECT_EQ(shape->largest, f[4]);
  EXPECT_FALSE(registry.ShapeOfSet(f[0]).has_value());
  EXPECT_FALSE(registry.ShapeOfSet(FactId(999)).has_value());
  EXPECT_FALSE(registry.ShapeOfSet(registry.Set({})).value().largest.valid());
}

TEST(FactRegistryExtensionTest, EmptyTailReturnsTheBase) {
  FactRegistry registry;
  const std::vector<FactId> f = Atoms(registry, 2);
  const FactId base = registry.Set({f[0], f[1]});
  const std::size_t size = registry.size();
  EXPECT_EQ(registry.SetExtending(base, {}), base);
  EXPECT_EQ(registry.size(), size);
  const FactId empty = registry.Set({});
  EXPECT_EQ(registry.SetExtending(empty, {f[1], f[0]}), base);
}

TEST(FactRegistryExtensionTest, InterleavedTailInternsThePlainUnion) {
  FactRegistry registry;
  const std::vector<FactId> f = Atoms(registry, 4);
  const FactId base = registry.Set({f[0], f[2]});
  const std::size_t stored = registry.stored_member_ids();
  // f[1] lies below the base's largest member, so no extension exists.
  const FactId merged = registry.SetExtending(base, {f[1], f[3]});
  EXPECT_EQ(registry.stored_member_ids(), stored + 4);
  EXPECT_EQ(registry.Set({f[0], f[1], f[2], f[3]}), merged);
  EXPECT_EQ(registry.Get(merged)->members, f);
}

TEST(FactRegistryExtensionTest, StoredMemberIdsCountOnlyTails) {
  FactRegistry registry;
  const std::vector<FactId> f = Atoms(registry, 6);
  EXPECT_EQ(registry.stored_member_ids(), 0u);
  const FactId base = registry.Set({f[0], f[1], f[2]});
  EXPECT_EQ(registry.stored_member_ids(), 3u);
  const FactId grown = registry.SetExtending(base, {f[3]});
  EXPECT_EQ(registry.stored_member_ids(), 4u);
  (void)registry.SetExtending(grown, {f[4], f[5]});
  EXPECT_EQ(registry.stored_member_ids(), 6u);
  // Re-interning, either way, stores nothing.
  (void)registry.Set({f[0], f[1], f[2], f[3], f[4], f[5]});
  (void)registry.SetExtending(base, {f[3]});
  EXPECT_EQ(registry.stored_member_ids(), 6u);
}

TEST(FactRegistryExtensionTest, IdentityHoldsAcrossForksAndFlatten) {
  auto root = std::make_shared<FactRegistry>();
  const std::vector<FactId> f = Atoms(*root, 8);
  const FactId base = root->Set({f[0], f[1]});
  const FactId in_root = root->SetExtending(base, {f[2]});

  // The base lives below the fork: both interning orders, both ways of
  // reaching a term the root already holds.
  std::shared_ptr<FactRegistry> fork = FactRegistry::ForkOf(root);
  EXPECT_EQ(fork->Set({f[0], f[1], f[2]}), in_root);
  const FactId ext_first = fork->SetExtending(base, {f[3], f[4]});
  EXPECT_EQ(fork->Set({f[0], f[1], f[3], f[4]}), ext_first);
  const FactId plain_first = fork->Set({f[0], f[1], f[2], f[5]});
  EXPECT_EQ(fork->SetExtending(in_root, {f[5]}), plain_first);
  EXPECT_EQ(fork->stored_member_ids(), root->stored_member_ids() + 2 + 4);

  // A second-generation fork extends a term of the first.
  std::shared_ptr<FactRegistry> fork2 =
      FactRegistry::ForkOf(std::shared_ptr<const FactRegistry>(fork));
  const FactId deep = fork2->SetExtending(ext_first, {f[6], f[7]});
  EXPECT_EQ(fork2->Get(deep)->members,
            (std::vector<FactId>{f[0], f[1], f[3], f[4], f[6], f[7]}));

  // A copy of the second fork holds the terms as stored: same ids, same
  // stored members, same answers, and identity keeps holding both ways.
  std::shared_ptr<FactRegistry> copy =
      FactRegistry::ForkOf(std::shared_ptr<const FactRegistry>(fork2));
  EXPECT_EQ(copy->size(), fork2->size());
  EXPECT_EQ(copy->stored_member_ids(), fork2->stored_member_ids());
  for (std::uint64_t raw = 0; raw < copy->size(); ++raw) {
    EXPECT_TRUE(*copy->Get(FactId(raw)) == *fork2->Get(FactId(raw)))
        << "id " << raw;
    EXPECT_EQ(copy->ToString(FactId(raw)), fork2->ToString(FactId(raw)));
  }
  const std::size_t size = copy->size();
  EXPECT_EQ(copy->Set({f[0], f[1], f[3], f[4], f[6], f[7]}), deep);
  EXPECT_EQ(copy->SetExtending(ext_first, {f[7], f[6]}), deep);
  EXPECT_EQ(copy->SetExtending(base, {f[2], f[5]}), plain_first);
  EXPECT_EQ(copy->size(), size);
  // The forks below the copy saw none of its interning.
  const FactId only_in_copy = copy->SetExtending(deep, {copy->Atom(100)});
  EXPECT_EQ(copy->Get(only_in_copy)->members.size(), 7u);
  EXPECT_EQ(fork2->size(), size);
  EXPECT_FALSE(fork2->Get(only_in_copy).ok());
}

// ---- Sealing ----------------------------------------------------------------

TEST(FactRegistrySealTest, ForksAndFlattensOfASealedRegistryIntern) {
  auto root = std::make_shared<FactRegistry>();
  const FactId a = root->Atom(1);
  const FactId set = root->Set({a});
  root->Seal();
  EXPECT_TRUE(root->sealed());
  // Lookups stay available.
  EXPECT_EQ(root->ToString(set), "{1}");
  EXPECT_TRUE(root->Get(set).ok());

  std::shared_ptr<FactRegistry> fork = FactRegistry::ForkOf(root);
  EXPECT_FALSE(fork->sealed());
  EXPECT_EQ(fork->Atom(1), a);
  EXPECT_EQ(fork->SetExtending(set, {fork->Atom(2)}),
            fork->Set({a, fork->Atom(2)}));
  // A second copy of the sealed root starts from the root, not from the
  // first copy's interning.
  std::shared_ptr<FactRegistry> second = FactRegistry::ForkOf(root);
  EXPECT_FALSE(second->sealed());
  EXPECT_EQ(second->size(), root->size());
  EXPECT_EQ(second->Set({a}), set);
  EXPECT_EQ(root->size(), 2u);
}

TEST(FactRegistrySealDeathTest, InterningIntoASealedRegistryAborts) {
  FactRegistry registry;
  const FactId a = registry.Atom(1);
  const FactId set = registry.Set({a});
  registry.Seal();
  // Every intern call aborts, also for a term that is already present.
  EXPECT_DEATH((void)registry.Atom(1), "sealed registry");
  EXPECT_DEATH((void)registry.Atom(2), "sealed registry");
  EXPECT_DEATH((void)registry.Pair(a, a), "sealed registry");
  EXPECT_DEATH((void)registry.Set({a}), "sealed registry");
  EXPECT_DEATH((void)registry.SetExtending(set, {}), "sealed registry");
}

TEST(FactRegistrySealDeathTest, ExtendingANonSetAborts) {
  FactRegistry registry;
  const FactId a = registry.Atom(1);
  EXPECT_DEATH((void)registry.SetExtending(a, {}), "not a set term");
  EXPECT_DEATH((void)registry.SetExtending(FactId(99), {}), "not a set term");
}

}  // namespace
}  // namespace mddc
