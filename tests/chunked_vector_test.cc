#include "common/chunked_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace mddc {
namespace {

template <typename T>
T ValueFor(std::uint64_t seed);

template <>
std::uint64_t ValueFor<std::uint64_t>(std::uint64_t seed) {
  return seed * 2654435761u;
}

template <>
std::string ValueFor<std::string>(std::uint64_t seed) {
  // Long enough to live on the heap: a shallow copy would alias it.
  return "value-" + std::to_string(seed) + std::string(24, 'x');
}

/// Every read path of `chunked` agrees with `expected`: indexing, the
/// iterators, back(), whole chunks and the runs from every 97th index.
template <typename T>
void ExpectSame(const ChunkedVector<T>& chunked, const std::vector<T>& expected) {
  constexpr std::size_t C = ChunkedVector<T>::kChunkSize;
  ASSERT_EQ(chunked.size(), expected.size());
  ASSERT_EQ(chunked.empty(), expected.empty());
  ASSERT_EQ(chunked.chunk_count(), (expected.size() + C - 1) / C);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(chunked[i], expected[i]) << "index " << i;
  }
  EXPECT_EQ(std::vector<T>(chunked.begin(), chunked.end()), expected);
  if (!expected.empty()) {
    EXPECT_EQ(chunked.back(), expected.back());
  }
  std::vector<T> swept;
  for (std::size_t k = 0; k < chunked.chunk_count(); ++k) {
    const std::span<const T> chunk = chunked.Chunk(k);
    EXPECT_EQ(chunk.size(), std::min(C, expected.size() - k * C));
    swept.insert(swept.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(swept, expected);
  for (std::size_t i = 0; i < expected.size(); i += 97) {
    const std::span<const T> run = chunked.RunFrom(i);
    ASSERT_EQ(run.size(), std::min(C - i % C, expected.size() - i));
    EXPECT_TRUE(std::equal(run.begin(), run.end(), expected.begin() + i));
  }
}

template <typename T>
class ChunkedVectorTest : public ::testing::Test {};

using ElementTypes = ::testing::Types<std::uint64_t, std::string>;
TYPED_TEST_SUITE(ChunkedVectorTest, ElementTypes);

TYPED_TEST(ChunkedVectorTest, BoundarySizesMatchAVector) {
  using T = TypeParam;
  constexpr std::size_t C = ChunkedVector<T>::kChunkSize;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, C - 1, C, C + 1}) {
    SCOPED_TRACE(n);
    ChunkedVector<T> chunked;
    std::vector<T> expected;
    for (std::size_t i = 0; i < n; ++i) {
      chunked.push_back(ValueFor<T>(i));
      expected.push_back(ValueFor<T>(i));
    }
    ExpectSame(chunked, expected);

    // A copy reads the same; appending to it leaves the source alone.
    ChunkedVector<T> copy = chunked;
    ExpectSame(copy, expected);
    copy.push_back(ValueFor<T>(n + 1000));
    std::vector<T> grown = expected;
    grown.push_back(ValueFor<T>(n + 1000));
    ExpectSame(copy, grown);
    ExpectSame(chunked, expected);

    // Growing and truncating through resize.
    ChunkedVector<T> resized = chunked;
    resized.resize(n + C / 2);
    std::vector<T> expected_resized = expected;
    expected_resized.resize(n + C / 2);
    ExpectSame(resized, expected_resized);
    resized.resize(n / 2);
    expected_resized.resize(n / 2);
    ExpectSame(resized, expected_resized);
    ExpectSame(chunked, expected);

    // Moving leaves the source empty.
    ChunkedVector<T> moved = std::move(copy);
    ExpectSame(moved, grown);
    ExpectSame(copy, std::vector<T>{});
  }
}

TYPED_TEST(ChunkedVectorTest, RandomizedDifferentialAgainstAVector) {
  using T = TypeParam;
  constexpr std::size_t C = ChunkedVector<T>::kChunkSize;
  std::mt19937_64 rng(20261018);
  // Versions: each a chunked vector and the std::vector it must equal.
  // Copies are taken and mutated on either side; every version must stay
  // exactly what its own operations made it.
  std::vector<ChunkedVector<T>> chunked(1);
  std::vector<std::vector<T>> expected(1);
  std::uint64_t next = 0;
  for (int step = 0; step < 6000; ++step) {
    const std::size_t v = rng() % chunked.size();
    switch (rng() % 8) {
      case 0:
      case 1: {  // push_back, in bursts that cross chunk boundaries
        const std::size_t burst = 1 + rng() % (C / 3);
        for (std::size_t i = 0; i < burst; ++i) {
          chunked[v].push_back(ValueFor<T>(next));
          expected[v].push_back(ValueFor<T>(next));
          ++next;
        }
        break;
      }
      case 2: {  // one bulk Append, up to two and a half chunks long
        std::vector<T> values(rng() % (2 * C + C / 2));
        for (T& value : values) value = ValueFor<T>(next++);
        chunked[v].Append(values);
        expected[v].insert(expected[v].end(), values.begin(), values.end());
        break;
      }
      case 3: {  // one mutable write
        if (expected[v].empty()) break;
        const std::size_t i = rng() % expected[v].size();
        chunked[v].Mut(i) = ValueFor<T>(next);
        expected[v][i] = ValueFor<T>(next);
        ++next;
        break;
      }
      case 4: {  // a writable run
        if (expected[v].empty()) break;
        const std::size_t i = rng() % expected[v].size();
        std::size_t at = i;
        for (T& slot : chunked[v].MutableRun(i)) {
          slot = ValueFor<T>(next);
          expected[v][at++] = ValueFor<T>(next);
          ++next;
        }
        break;
      }
      case 5: {  // copy; later steps mutate either side
        if (chunked.size() >= 6) break;
        chunked.push_back(chunked[v]);
        expected.push_back(expected[v]);
        break;
      }
      case 6: {  // pad for a run, then append it
        const std::size_t run = 1 + rng() % C;
        const std::size_t begin = chunked[v].AlignForRun(run);
        if (begin != expected[v].size()) {
          ASSERT_EQ(begin / C, expected[v].size() / C + 1);
          expected[v].resize(begin);
        }
        for (std::size_t i = 0; i < run; ++i) {
          chunked[v].push_back(ValueFor<T>(next));
          expected[v].push_back(ValueFor<T>(next));
          ++next;
        }
        const std::span<const T> stored = chunked[v].RunFrom(begin);
        ASSERT_GE(stored.size(), run) << "the run straddles a chunk";
        break;
      }
      case 7: {  // truncate or drop a version
        if (rng() % 4 == 0 && chunked.size() > 1) {
          chunked.erase(chunked.begin() + static_cast<std::ptrdiff_t>(v));
          expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(v));
        } else {
          const std::size_t n =
              expected[v].empty() ? 0 : rng() % expected[v].size();
          chunked[v].resize(n);
          expected[v].resize(n);
        }
        break;
      }
    }
    if (step % 250 == 0) {
      for (std::size_t w = 0; w < chunked.size(); ++w) {
        ExpectSame(chunked[w], expected[w]);
      }
    }
  }
  for (std::size_t w = 0; w < chunked.size(); ++w) {
    ExpectSame(chunked[w], expected[w]);
  }
}

TYPED_TEST(ChunkedVectorTest, ACopySharesEveryChunkAndAWriteUnsharesOne) {
  using T = TypeParam;
  constexpr std::size_t C = ChunkedVector<T>::kChunkSize;
  ChunkedVector<T> source;
  for (std::size_t i = 0; i < 3 * C + C / 2; ++i) {
    source.push_back(ValueFor<T>(i));
  }
  ASSERT_EQ(source.chunk_count(), 4u);

  ChunkedVector<T> copy = source;
  EXPECT_EQ(copy.SharedChunksWith(source), 4u);

  // One write into a full chunk clones exactly that chunk.
  copy.Mut(C + 5) = ValueFor<T>(99999);
  EXPECT_EQ(copy.SharedChunksWith(source), 3u);
  EXPECT_EQ(source[C + 5], ValueFor<T>(C + 5));
  EXPECT_EQ(copy[C + 5], ValueFor<T>(99999));
  // A second write into the now private chunk clones nothing more.
  copy.Mut(C + 6) = ValueFor<T>(99998);
  EXPECT_EQ(copy.SharedChunksWith(source), 3u);

  // push_back into the shared, half-full tail clones the tail only.
  ChunkedVector<T> appended = source;
  appended.push_back(ValueFor<T>(77777));
  EXPECT_EQ(appended.SharedChunksWith(source), 3u);
  EXPECT_EQ(source.size(), 3 * C + C / 2);
  EXPECT_EQ(source.Chunk(3).size(), C / 2);

  // A bulk Append clones the shared tail, fills it and adds fresh
  // chunks; the source keeps its elements.
  ChunkedVector<T> bulk = source;
  const std::vector<T> values(C + 3, ValueFor<T>(4242));
  bulk.Append(values);
  EXPECT_EQ(bulk.size(), 4 * C + C / 2 + 3);
  EXPECT_EQ(bulk.chunk_count(), 5u);
  EXPECT_EQ(bulk.SharedChunksWith(source), 3u);
  EXPECT_EQ(bulk[3 * C + C / 2], ValueFor<T>(4242));
  EXPECT_EQ(bulk.back(), ValueFor<T>(4242));
  EXPECT_EQ(source.size(), 3 * C + C / 2);
  EXPECT_EQ(source.back(), ValueFor<T>(3 * C + C / 2 - 1));

  // Filling a full tail adds a chunk and shares all the old ones.
  ChunkedVector<T> full;
  for (std::size_t i = 0; i < 2 * C; ++i) full.push_back(ValueFor<T>(i));
  ChunkedVector<T> extended = full;
  extended.push_back(ValueFor<T>(1));
  EXPECT_EQ(extended.chunk_count(), 3u);
  EXPECT_EQ(extended.SharedChunksWith(full), 2u);

  // The writer's side may be the source, too.
  ChunkedVector<T> reader = source;
  source.Mut(0) = ValueFor<T>(55555);
  EXPECT_EQ(reader[0], ValueFor<T>(0));
  EXPECT_EQ(source.SharedChunksWith(reader), 3u);
}

}  // namespace
}  // namespace mddc
