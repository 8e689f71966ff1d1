// Aggregate-formation scaling: cost of alpha[...] versus population size,
// grouping level and hierarchy fan-out on the synthetic clinical
// workload. Regenerates the shape expected of the model's central
// operator: cost grows with facts and with the depth of rollup work, and
// grouping at TOP degenerates to a single group.
//
//   $ ./bench/bench_aggregate_scaling

#include <benchmark/benchmark.h>

#include "algebra/operators.h"
#include "engine/executor.h"
#include "io/serialize.h"
#include "reference/aggregate_reference.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

namespace {

using namespace mddc;

ClinicalMo BuildWorkload(std::size_t patients, std::size_t fanout_min,
                         std::size_t fanout_max) {
  ClinicalWorkloadParams params;
  params.num_patients = patients;
  params.num_groups = 4;
  params.min_fanout = fanout_min;
  params.max_fanout = fanout_max;
  return std::move(
             GenerateClinicalWorkload(params,
                                      std::make_shared<FactRegistry>()))
      .ValueOrDie();
}

AggregateSpec SpecFor(const ClinicalMo& workload, CategoryTypeIndex level) {
  AggregateSpec spec{AggFunction::SetCount(), {}, ResultDimensionSpec::Auto(),
                     kNowChronon, true};
  for (std::size_t i = 0; i < workload.mo.dimension_count(); ++i) {
    spec.grouping.push_back(i == workload.diagnosis_dim
                                ? level
                                : workload.mo.dimension(i).type().top());
  }
  return spec;
}

void BM_AggregateByPatients(benchmark::State& state) {
  ClinicalMo workload =
      BuildWorkload(static_cast<std::size_t>(state.range(0)), 5, 10);
  AggregateSpec spec = SpecFor(workload, workload.group);
  for (auto _ : state) {
    auto result = AggregateFormation(workload.mo, spec);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregateByPatients)->Arg(100)->Arg(400)->Arg(1600);

void BM_AggregateByLevel(benchmark::State& state) {
  ClinicalMo workload = BuildWorkload(400, 5, 10);
  CategoryTypeIndex level;
  switch (state.range(0)) {
    case 0:
      level = workload.low_level;
      break;
    case 1:
      level = workload.family;
      break;
    case 2:
      level = workload.group;
      break;
    default:
      level = workload.mo.dimension(workload.diagnosis_dim).type().top();
      break;
  }
  AggregateSpec spec = SpecFor(workload, level);
  for (auto _ : state) {
    auto result = AggregateFormation(workload.mo, spec);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
  }
}
BENCHMARK(BM_AggregateByLevel)
    ->Arg(0)   // low level
    ->Arg(1)   // family
    ->Arg(2)   // group
    ->Arg(3);  // TOP

void BM_AggregateByFanout(benchmark::State& state) {
  // Fixed patients; hierarchy width grows with fan-out.
  std::size_t fanout = static_cast<std::size_t>(state.range(0));
  ClinicalMo workload = BuildWorkload(400, fanout, fanout);
  AggregateSpec spec = SpecFor(workload, workload.group);
  for (auto _ : state) {
    auto result = AggregateFormation(workload.mo, spec);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
  }
}
BENCHMARK(BM_AggregateByFanout)->Arg(5)->Arg(10)->Arg(20);

// Two-dimensional grouping: diagnosis group x residence county.
void BM_AggregateTwoDimensions(benchmark::State& state) {
  ClinicalMo workload =
      BuildWorkload(static_cast<std::size_t>(state.range(0)), 5, 10);
  AggregateSpec spec = SpecFor(workload, workload.group);
  spec.grouping[workload.residence_dim] = workload.county;
  for (auto _ : state) {
    auto result = AggregateFormation(workload.mo, spec);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
  }
}
BENCHMARK(BM_AggregateTwoDimensions)->Arg(100)->Arg(400);

// Thread sweep of the parallel engine on the strict retail workload
// (one product per purchase: the Section 3.4 preconditions hold, so the
// partition/merge path is legal). args: (purchases, threads). Before
// timing, each configuration verifies once that its parallel result
// serializes to exactly the reference formation's bytes.
void BM_AggregateParallelThreads(benchmark::State& state) {
  RetailWorkloadParams params;
  params.num_purchases = static_cast<std::size_t>(state.range(0));
  params.num_products = 200;
  RetailMo retail =
      std::move(GenerateRetailWorkload(params,
                                       std::make_shared<FactRegistry>()))
          .ValueOrDie();
  AggregateSpec spec{AggFunction::Sum(retail.amount_dim), {},
                     ResultDimensionSpec::Auto(), kNowChronon, true};
  for (std::size_t i = 0; i < retail.mo.dimension_count(); ++i) {
    spec.grouping.push_back(i == retail.product_dim
                                ? retail.category
                                : retail.mo.dimension(i).type().top());
  }
  const std::size_t threads = static_cast<std::size_t>(state.range(1));

  {
    // Bit-identity check, once per configuration.
    auto sequential = reference::AggregateFormation(retail.mo, spec);
    ExecContext check_ctx(threads, /*min_facts=*/1);
    auto parallel = AggregateFormation(retail.mo, spec, &check_ctx);
    if (!sequential.ok() || !parallel.ok() ||
        *io::WriteMo(*sequential) != *io::WriteMo(*parallel)) {
      state.SkipWithError("parallel result is not bit-identical");
      return;
    }
  }

  ExecContext ctx(threads, /*min_facts=*/1);
  for (auto _ : state) {
    auto result = AggregateFormation(retail.mo, spec, &ctx);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["partitions"] = static_cast<double>(ctx.stats.partitions);
  state.counters["merge_ns"] = static_cast<double>(ctx.stats.merge_nanos);
}
BENCHMARK(BM_AggregateParallelThreads)
    ->ArgsProduct({{10000, 100000, 1000000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
