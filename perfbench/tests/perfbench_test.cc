// Tests of the benchmark's own machinery: percentiles, span self time
// and the seeded statement streams.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_stats.h"
#include "streams.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> samples;
  for (std::size_t i = n; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  return samples;
}

TEST(NearestRank, PicksTheSampleAtTheCeilingRank) {
  EXPECT_EQ(NearestRank(OneTo(20), 50).value, 10.0);
  EXPECT_EQ(NearestRank(OneTo(20), 95).value, 19.0);
  EXPECT_EQ(NearestRank(OneTo(20), 100).value, 20.0);
  EXPECT_EQ(NearestRank(OneTo(3), 50).value, 2.0);
  EXPECT_EQ(NearestRank({7.0}, 95).value, 7.0);
  EXPECT_EQ(Median(OneTo(4)), 2.0);
}

TEST(NearestRank, FlagsFewerThanTenSamplesBeyond) {
  const Percentile at200 = NearestRank(OneTo(200), 95);
  EXPECT_EQ(at200.value, 190.0);
  EXPECT_EQ(at200.beyond, 10u);
  EXPECT_FALSE(at200.flagged);

  const Percentile at199 = NearestRank(OneTo(199), 95);
  EXPECT_EQ(at199.value, 190.0);
  EXPECT_EQ(at199.beyond, 9u);
  EXPECT_TRUE(at199.flagged);

  EXPECT_FALSE(NearestRank(OneTo(20), 50).flagged);
  EXPECT_TRUE(NearestRank({}, 50).flagged);
  EXPECT_EQ(NearestRank({}, 50).samples, 0u);
}

Span MakeSpan(const char* name, std::int64_t start, std::int64_t end,
              int parent) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimes, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      MakeSpan("read", 0, 100, -1),
      MakeSpan("a", 10, 40, 0),
      MakeSpan("a.child", 15, 20, 1),
      MakeSpan("b", 50, 70, 0),
      MakeSpan("b.child", 50, 70, 3),
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);
  EXPECT_EQ(self[1], 30 - 5);  // a grandchild is not the root's business
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 0);  // fully covered by its child
  EXPECT_EQ(self[4], 20);
}

TEST(SelfTimes, CountsOverlappingChildrenOnceAndClipsToTheParent) {
  const std::vector<Span> spans = {
      MakeSpan("root", 100, 200, -1),
      MakeSpan("x", 90, 130, 0),   // starts before the parent
      MakeSpan("y", 120, 150, 0),  // overlaps x
      MakeSpan("z", 190, 260, 0),  // ends after the parent
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - (150 - 100) - (200 - 190));
}

TEST(SelfTimes, TracerNestsByScope) {
  Tracer tracer;
  tracer.SetRequest(7);
  {
    Tracer::Scope root(&tracer, "read");
    { Tracer::Scope a(&tracer, "mdql.parse"); }
    {
      Tracer::Scope b(&tracer, "algebra.stream");
      { Tracer::Scope c(&tracer, "inner"); }
    }
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  for (const Span& span : spans) {
    EXPECT_EQ(span.request, 7u);
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  for (std::int64_t self : SelfTimes(spans)) EXPECT_GE(self, 0);
}

mddc::stress::WorkloadProfile Profile() {
  mddc::stress::WorkloadProfile profile;
  profile.mo_name = "clinical";
  profile.groups = 5;
  profile.families = 60;
  profile.lows = 700;
  profile.regions = 2;
  profile.counties = 6;
  profile.areas = 24;
  return profile;
}

std::vector<std::string> OlapList(std::uint32_t seed, std::size_t rounds) {
  std::vector<std::string> list;
  for (std::vector<std::string>& round : OlapRounds(Profile(), seed, rounds)) {
    for (std::string& statement : round) list.push_back(std::move(statement));
  }
  return list;
}

TEST(Streams, OneSeedGivesIdenticalStatementLists) {
  EXPECT_EQ(OlapList(3, 25), OlapList(3, 25));
  EXPECT_NE(OlapList(3, 25), OlapList(4, 25));

  EXPECT_EQ(RetailRound("sales", 3, 0), RetailRound("sales", 3, 0));
  EXPECT_NE(RetailRound("sales", 3, 0), RetailRound("sales", 3, 1));
  EXPECT_NE(RetailRound("sales", 3, 0), RetailRound("sales", 4, 0));

  auto ingest = [](std::uint32_t seed) {
    std::vector<std::string> list;
    for (const IngestCycle& cycle : IngestSchedule(Profile(), seed, 20, 64)) {
      list.push_back(cycle.insert);
      list.push_back(cycle.read);
    }
    return list;
  };
  EXPECT_EQ(ingest(3), ingest(3));
  EXPECT_NE(ingest(3), ingest(4));
}

TEST(Streams, RoundsKeepTheClassWeightsExact) {
  // Eight operations make one deck: rollup x4 (3 statements each),
  // temporal x2 (2 each), prob x1 and star x1.
  OlapStream stream(Profile(), 11);
  ASSERT_EQ(stream.deck_size(), 8u);
  std::size_t statements = 0;
  for (int op = 0; op < 8; ++op) statements += stream.Next().size();
  EXPECT_EQ(statements, 4u * 3 + 2u * 2 + 1 + 1);

  // Each clinical round is one deck.
  const auto rounds = OlapRounds(Profile(), 11, 3);
  ASSERT_EQ(rounds.size(), 3u);
  for (const auto& round : rounds) EXPECT_EQ(round.size(), statements);

  // Every retail template appears once per round, plus two filters.
  const std::vector<std::string> round = RetailRound("sales", 11, 0);
  ASSERT_EQ(round.size(), 10u);
  std::size_t filtered = 0;
  for (const std::string& statement : round) {
    if (statement.find(" WHERE ") != std::string::npos) ++filtered;
  }
  EXPECT_EQ(filtered, 2u);
}

TEST(Streams, IngestBatchesHaveTheRequestedShape) {
  const std::vector<IngestCycle> schedule =
      IngestSchedule(Profile(), 5, 6, 64);
  ASSERT_EQ(schedule.size(), 6u);
  const std::vector<std::string> reads = IngestReads("clinical");
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    std::size_t facts = 0;
    for (std::size_t at = schedule[c].insert.find("FACT ");
         at != std::string::npos;
         at = schedule[c].insert.find("FACT ", at + 1)) {
      ++facts;
    }
    EXPECT_EQ(facts, 64u);
    EXPECT_EQ(schedule[c].read, reads[c % reads.size()]);
  }
}

}  // namespace
}  // namespace perfbench
