#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

// The statement streams of the three workloads. Every stream is a pure
// function of (seed, client index): the benchmark's --seed is the only
// source of randomness, so one seed yields identical statement lists on
// every run and every commit.
//
// The read workloads cycle through fixed rounds. A round is a short list
// of statements that holds each class or template exactly in proportion
// to its weight, and every pass over a round runs the same statements.
// The class mix of a timed phase, and with it a median over a mix of
// slow and fast statements, therefore does not drift from seed to seed,
// and the warm-up, one pass over every round, runs each statement the
// timed phase runs.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "stress/mix.h"

namespace perfbench {

/// clinical_olap: stress::StatementGenerator's four read classes at the
/// default weights of stress::MixSpec (rollup 4, temporal 2, prob 1,
/// star 1), one logical operation (1-3 statements) per Next(), dealt
/// from shuffled decks of one operation per unit of weight.
class OlapStream {
 public:
  OlapStream(const mddc::stress::WorkloadProfile& profile, std::uint32_t seed);

  std::vector<std::string> Next();

  /// Operations in one deck: the sum of the class weights.
  std::size_t deck_size() const { return deck_.size(); }

 private:
  mddc::stress::StatementGenerator generator_;
  std::mt19937 deck_rng_;
  std::vector<mddc::stress::QueryClass> deck_;
  std::size_t next_ = 0;
};

/// clinical_olap's rounds: `rounds` consecutive decks of OlapStream,
/// one round per deck, each flattened to its statements.
std::vector<std::vector<std::string>> OlapRounds(
    const mddc::stress::WorkloadProfile& profile, std::uint32_t seed,
    std::size_t rounds);

/// retail_wire: one connection's round over the retail MO, in a seeded
/// order: COUNT/SUM/AVG/MIN/MAX group-bys over Product, Store and Date
/// levels, one Store.Store = '...' filter and one Price >= n filter.
/// Each connection has its own round, seeded from (seed, connection).
std::vector<std::string> RetailRound(const std::string& mo_name,
                                     std::uint32_t seed,
                                     std::size_t connection);

/// One clinical_ingest cycle: the feed's bulk INSERT, then the
/// dashboard's read.
struct IngestCycle {
  std::string insert;
  std::string read;
};

/// The fixed clinical_ingest schedule: `cycles` bulk INSERTs of
/// `batch` new patients each, in the stress harness's kAppendBatch fact
/// shape (a low-level diagnosis, certain or PROB 0.8, plus a residence
/// area), each followed by COUNT BY Residence Region, County or Area in
/// rotation.
std::vector<IngestCycle> IngestSchedule(
    const mddc::stress::WorkloadProfile& profile, std::uint32_t seed,
    std::size_t cycles, std::size_t batch);

/// The dashboard's three reads, in rotation order.
std::vector<std::string> IngestReads(const std::string& mo_name);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
