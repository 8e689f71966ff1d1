#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/interner.h"
#include "common/strings.h"

namespace mddc {
namespace {

TEST(StringInternerTest, InternIsIdempotent) {
  StringInterner interner;
  StringId a = interner.Intern("alpha");
  StringId b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.Intern("beta"), b);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInternerTest, IdsAreDenseAndStable) {
  StringInterner interner;
  std::vector<StringId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(interner.Intern("value-" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ids[i], static_cast<StringId>(i));
    // Re-interning after later growth still returns the original id.
    EXPECT_EQ(interner.Intern("value-" + std::to_string(i)), ids[i]);
    EXPECT_EQ(interner.View(ids[i]), "value-" + std::to_string(i));
  }
}

TEST(StringInternerTest, FindDoesNotIntern) {
  StringInterner interner;
  EXPECT_EQ(interner.Find("missing"), kInvalidStringId);
  EXPECT_EQ(interner.size(), 0u);
  StringId id = interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), id);
  EXPECT_EQ(interner.Find("presen"), kInvalidStringId);
  EXPECT_EQ(interner.Find("presentx"), kInvalidStringId);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInternerTest, EmptyStringRoundTrips) {
  StringInterner interner;
  StringId empty = interner.Intern("");
  EXPECT_NE(empty, kInvalidStringId);
  EXPECT_EQ(interner.View(empty), "");
  EXPECT_EQ(interner.Find(""), empty);
  EXPECT_EQ(interner.Intern(""), empty);
  // The empty string is distinct from every non-empty string.
  StringId other = interner.Intern("x");
  EXPECT_NE(empty, other);
}

TEST(StringInternerTest, LongStringsRoundTrip) {
  StringInterner interner;
  std::string long_a(100000, 'a');
  std::string long_b(100000, 'a');
  long_b.back() = 'b';  // same length and hash prefix path, last byte differs
  StringId a = interner.Intern(long_a);
  StringId b = interner.Intern(long_b);
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.View(a), long_a);
  EXPECT_EQ(interner.View(b), long_b);
  EXPECT_EQ(interner.Find(long_a), a);
  EXPECT_EQ(interner.Find(long_b), b);
}

TEST(StringInternerTest, CStrIsNulTerminated) {
  StringInterner interner;
  StringId a = interner.Intern("3.25");
  StringId b = interner.Intern("not-a-number");
  EXPECT_EQ(std::strlen(interner.CStr(a)), 4u);
  EXPECT_STREQ(interner.CStr(a), "3.25");
  EXPECT_STREQ(interner.CStr(b), "not-a-number");
  // Embedded NUL truncates CStr but not View.
  std::string with_nul("ab");
  with_nul.push_back('\0');
  with_nul.push_back('c');
  StringId n = interner.Intern(with_nul);
  EXPECT_EQ(interner.View(n).size(), 4u);
  EXPECT_EQ(std::strlen(interner.CStr(n)), 2u);
}

TEST(StringInternerTest, HashOfMatchesFnv1a) {
  StringInterner interner;
  const std::string text = "Capital Region";
  StringId id = interner.Intern(text);
  EXPECT_EQ(interner.HashOf(id), Fnv1a64(text.data(), text.size()));
}

// Forces table-slot collisions: the index has power-of-two capacity, so
// two strings whose hashes agree in the low bits land in the same probe
// chain. Pigeonhole over a small mask guarantees collisions among few
// candidates; every colliding string must still resolve to its own id.
TEST(StringInternerTest, SlotCollisionsResolveCorrectly) {
  constexpr std::uint64_t kMask = 15;  // initial capacity is 16
  std::vector<std::string> colliding;
  std::uint64_t target_slot = 0;
  for (int i = 0; colliding.size() < 8 && i < 100000; ++i) {
    std::string candidate = "collide-" + std::to_string(i);
    std::uint64_t slot = Fnv1a64(candidate.data(), candidate.size()) & kMask;
    if (colliding.empty()) target_slot = slot;
    if (slot == target_slot) colliding.push_back(std::move(candidate));
  }
  ASSERT_EQ(colliding.size(), 8u);

  StringInterner interner;
  std::vector<StringId> ids;
  for (const std::string& s : colliding) ids.push_back(interner.Intern(s));
  for (std::size_t i = 0; i < colliding.size(); ++i) {
    EXPECT_EQ(interner.Find(colliding[i]), ids[i]) << colliding[i];
    EXPECT_EQ(interner.View(ids[i]), colliding[i]);
    for (std::size_t j = i + 1; j < colliding.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
}

// Grows through several rehashes and checks every string survives.
TEST(StringInternerTest, SurvivesRehashGrowth) {
  StringInterner interner;
  constexpr int kCount = 10000;
  std::vector<StringId> ids;
  for (int i = 0; i < kCount; ++i) {
    ids.push_back(interner.Intern(StrCat("k", i * 7919)));
  }
  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const std::string key = StrCat("k", i * 7919);
    EXPECT_EQ(interner.Find(key), ids[i]);
    EXPECT_EQ(interner.View(ids[i]), key);
  }
  EXPECT_GT(interner.pool_bytes(), static_cast<std::size_t>(kCount));
}

}  // namespace
}  // namespace mddc
