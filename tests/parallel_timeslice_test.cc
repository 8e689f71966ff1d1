#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "algebra/timeslice.h"
#include "engine/executor.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "reference/timeslice_reference.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Differential, determinism, fallback and concurrency coverage for the
// parallel timeslice. Timeslice is embarrassingly parallel — per-fact and
// per-dimension work lands in disjoint slots and there is no merge — so
// the bit-identity contract must hold trivially; these tests prove it
// does against the sequential reference (tests/reference), at 1/2/8
// threads and across repeated runs.

namespace mddc {
namespace {

using testing_fixtures::Day;

ClinicalMo BuildClinical(std::uint32_t seed = 42,
                         std::size_t patients = 150) {
  ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = patients;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

void ExpectParallelSliceMatchesSequential(const MdObject& mo, Chronon at,
                                          bool valid_axis) {
  auto run = [&](ExecContext* exec) {
    return valid_axis ? ValidTimeslice(mo, at, exec)
                      : TransactionTimeslice(mo, at, exec);
  };
  auto sequential = valid_axis ? reference::ValidTimeslice(mo, at)
                               : reference::TransactionTimeslice(mo, at);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto sequential_bytes = io::WriteMo(*sequential);
  ASSERT_TRUE(sequential_bytes.ok()) << sequential_bytes.status();

  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    auto parallel = run(&ctx);
    ASSERT_TRUE(parallel.ok())
        << "threads=" << threads << ": " << parallel.status();
    auto parallel_bytes = io::WriteMo(*parallel);
    ASSERT_TRUE(parallel_bytes.ok()) << parallel_bytes.status();
    EXPECT_EQ(*parallel_bytes, *sequential_bytes)
        << "serialized timeslice differs at threads=" << threads;
    EXPECT_EQ(parallel->fact_count(), sequential->fact_count());
  }
}

TEST(ParallelTimesliceDifferentialTest, ValidSliceMatchesAcrossThreads) {
  ClinicalMo clinical = BuildClinical();
  // Mid-case-study date: straddles the 01/01/1980 reclassification epoch
  // lifespans, so the slice is a strict subset, not all-or-nothing.
  ExpectParallelSliceMatchesSequential(clinical.mo, Day("15/06/85"),
                                       /*valid_axis=*/true);
}

TEST(ParallelTimesliceDifferentialTest,
     ValidSliceMatchesAcrossThreadsAtEpochBoundary) {
  ClinicalMo clinical = BuildClinical();
  ExpectParallelSliceMatchesSequential(clinical.mo, Day("01/01/80"),
                                       /*valid_axis=*/true);
}

TEST(ParallelTimesliceDifferentialTest,
     TransactionSliceMatchesAcrossThreads) {
  // The clinical workload is valid-time; recast it as bitemporal so the
  // transaction axis is sliceable (default transaction lifespans apply).
  ClinicalMo clinical = BuildClinical();
  MdObject bitemporal = clinical.mo;
  bitemporal.set_temporal_type(TemporalType::kBitemporal);
  ExpectParallelSliceMatchesSequential(bitemporal, Day("15/06/85"),
                                       /*valid_axis=*/false);
}

TEST(ParallelTimesliceDeterminismTest, FiftyParallelRunsAreByteIdentical) {
  ClinicalMo clinical = BuildClinical();
  const Chronon at = Day("15/06/85");
  std::string reference;
  for (int run = 0; run < 50; ++run) {
    ExecContext ctx(8, /*min_facts=*/1);
    auto result = ValidTimeslice(clinical.mo, at, &ctx);
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status();
    ASSERT_EQ(ctx.stats.timeslice_parallel_runs, 1u) << "run " << run;
    auto bytes = io::WriteMo(*result);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    if (run == 0) {
      reference = *bytes;
    } else {
      ASSERT_EQ(*bytes, reference) << "run " << run << " diverged";
    }
  }
}

// ---- Fallback and error paths ---------------------------------------------

TEST(ParallelTimesliceFallbackTest, SmallInputCountsSequentialFallback) {
  ClinicalMo clinical = BuildClinical(42, /*patients=*/20);
  ExecContext ctx(8, /*min_facts=*/4096);
  auto result = ValidTimeslice(clinical.mo, Day("15/06/85"), &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(ctx.stats.timeslice_parallel_runs, 0u);
  EXPECT_EQ(ctx.stats.parallel_runs, 0u);
}

TEST(ParallelTimesliceFallbackTest,
     TemporalMismatchReturnsTheSequentialError) {
  // Retail is a snapshot MO: neither axis is sliceable. The parallel
  // context must surface exactly the sequential diagnostic.
  RetailWorkloadParams params;
  params.seed = 7;
  params.num_purchases = 50;
  auto retail =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(retail.ok()) << retail.status();

  auto sequential = ValidTimeslice(retail->mo, Day("15/06/85"));
  ASSERT_FALSE(sequential.ok());

  ExecContext ctx(8, /*min_facts=*/1);
  auto parallel = ValidTimeslice(retail->mo, Day("15/06/85"), &ctx);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().ToString(), sequential.status().ToString());
  EXPECT_EQ(ctx.stats.timeslice_parallel_runs, 0u);
}

// ---- Counters -------------------------------------------------------------

TEST(ParallelTimesliceCountersTest, ParallelRunAdvancesTimesliceCounters) {
  ClinicalMo clinical = BuildClinical();
  ExecContext ctx(4, /*min_facts=*/1);
  auto result = ValidTimeslice(clinical.mo, Day("15/06/85"), &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.stats.timeslice_parallel_runs, 1u);
  EXPECT_EQ(ctx.stats.parallel_runs, 1u);
  EXPECT_GT(ctx.stats.tasks, 0u);
}

// ---- Concurrent closure reads (TSan coverage) -----------------------------

TEST(ParallelTimesliceConcurrencyTest,
     ClosureReadsRaceFreeDuringParallelSlice) {
  // Mirrors the Join concurrency test: the timeslice warms the operand's
  // closure memos before fanning out, so reader threads querying the
  // operand while slices run concurrently only ever see pure reads.
  ClinicalMo clinical = BuildClinical();
  const Chronon at = Day("15/06/85");

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  auto reader = [&] {
    while (!stop.load()) {
      for (FactId fact : clinical.mo.facts()) {
        reads.fetch_add(
            clinical.mo.CharacterizedBy(fact, clinical.diagnosis_dim).size());
        if (stop.load()) break;
      }
    }
  };
  {
    for (std::size_t i = 0; i < clinical.mo.dimension_count(); ++i) {
      clinical.mo.dimension(i).WarmClosureMemo();
    }
    std::jthread r1(reader);
    std::jthread r2(reader);
    for (int round = 0; round < 3; ++round) {
      ExecContext ctx(8, /*min_facts=*/1);
      auto result = ValidTimeslice(clinical.mo, at, &ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(ctx.stats.timeslice_parallel_runs, 1u);
    }
    stop.store(true);
  }
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace mddc
