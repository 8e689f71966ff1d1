// Group-by kernel sweep: group count x fact count x threads, the
// dense-slot and flat-hash engines of the group-by scan
// (docs/groupby_kernel.md) against the ordered-map reference formation
// (tests/reference/), with a one-time bit-identity check per
// configuration before any timing counts. Results go to stdout as a
// table and to BENCH_groupby.json as machine-readable records.
//
//   $ ./bench/bench_groupby_kernel
//
// MDDC_SWEEP_MAX_FACTS caps the largest fact count (default 1000000),
// e.g. MDDC_SWEEP_MAX_FACTS=100000 for a quick run or sanitizer builds.
//
// The schema is hand-built, strict and non-temporal: a two-level product
// hierarchy whose parent level carries exactly `groups` values (so the
// dense slot space is `groups` wide) plus a numeric measure dimension
// summed per group. The flat-hash engine is timed on the same workload by
// forcing the slot threshold to zero.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "io/serialize.h"
#include "peak_rss.h"
#include "reference/aggregate_reference.h"

namespace {

using namespace mddc;

constexpr std::size_t kFanout = 8;  // bottom values per group

struct Workload {
  MdObject mo;
  CategoryTypeIndex parent_category = 0;
};

Workload MakeWorkload(std::size_t groups, std::size_t num_facts) {
  DimensionTypeBuilder product_builder("Product");
  product_builder.AddCategory("Item", AggregationType::kConstant)
      .AddCategory("Group", AggregationType::kConstant)
      .AddOrder("Item", "Group");
  auto product_type = std::move(product_builder.Build()).ValueOrDie();
  Dimension products(product_type);
  const CategoryTypeIndex item = *product_type->Find("Item");
  const CategoryTypeIndex group = *product_type->Find("Group");
  std::vector<ValueId> items;
  std::uint64_t next_id = 1;
  for (std::size_t g = 0; g < groups; ++g) {
    ValueId group_id(next_id++);
    (void)products.AddValue(group, group_id);
    for (std::size_t i = 0; i < kFanout; ++i) {
      ValueId item_id(next_id++);
      (void)products.AddValue(item, item_id);
      (void)products.AddOrder(item_id, group_id);
      items.push_back(item_id);
    }
  }

  DimensionTypeBuilder measure_builder("Amount");
  measure_builder.AddCategory("Value", AggregationType::kSum);
  auto measure_type = std::move(measure_builder.Build()).ValueOrDie();
  Dimension amounts(measure_type);
  const CategoryTypeIndex reading = measure_type->bottom();
  Representation& rep = amounts.RepresentationFor(reading, "Value");
  constexpr std::size_t kDistinctAmounts = 256;
  std::vector<ValueId> amount_values;
  for (std::size_t i = 0; i < kDistinctAmounts; ++i) {
    ValueId id(1000000 + i);
    (void)amounts.AddValue(reading, id);
    (void)rep.Set(id, FormatDouble(0.25 * static_cast<double>(i + 1)));
    amount_values.push_back(id);
  }

  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Purchase", {std::move(products), std::move(amounts)},
              registry, TemporalType::kSnapshot);
  for (std::size_t i = 0; i < num_facts; ++i) {
    FactId fact = registry->Atom(i);
    (void)mo.AddFact(fact);
    // Stride by a prime so neighbouring facts land in different groups.
    (void)mo.Relate(0, fact, items[(i * 31) % items.size()],
                    Lifespan::AlwaysSpan());
    (void)mo.Relate(1, fact, amount_values[i % amount_values.size()],
                    Lifespan::AlwaysSpan());
  }
  return Workload{std::move(mo), group};
}

struct SweepRow {
  std::size_t groups = 0;
  std::size_t facts = 0;
  std::size_t threads = 0;
  double map_ms = 0.0;
  double dense_ms = 0.0;
  double flat_ms = 0.0;
  double speedup = 1.0;  // map / dense
  bool bit_identical = false;
};

/// Best-of wall time of one formation; threads == 0 times the reference.
double TimeAggregateMs(const MdObject& mo, const AggregateSpec& spec,
                       std::size_t threads, bool force_flat,
                       int iterations) {
  double best = 1e300;
  for (int i = 0; i < iterations; ++i) {
    ExecContext ctx(threads, /*min_facts=*/1);
    if (force_flat) ctx.max_dense_groupby_slots = 0;
    auto start = std::chrono::steady_clock::now();
    auto result = threads == 0 ? reference::AggregateFormation(mo, spec)
                               : AggregateFormation(mo, spec, &ctx);
    auto stop = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "aggregate failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < best) best = ms;
  }
  return best;
}

void WriteJson(const std::vector<SweepRow>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"groupby_kernel\",\n  \"peak_rss_kb\": %zu,\n"
               "  \"rows\": [\n",
               mddc_bench::PeakRssKb());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"groups\": %zu, \"facts\": %zu, \"threads\": %zu, "
                 "\"map_ms\": %.3f, \"dense_ms\": %.3f, \"flat_ms\": %.3f, "
                 "\"speedup_dense_vs_map\": %.3f, \"bit_identical\": %s}%s\n",
                 r.groups, r.facts, r.threads, r.map_ms, r.dense_ms,
                 r.flat_ms, r.speedup, r.bit_identical ? "true" : "false",
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  std::size_t max_facts = 1000000;
  if (const char* cap = std::getenv("MDDC_SWEEP_MAX_FACTS")) {
    max_facts = static_cast<std::size_t>(std::strtoull(cap, nullptr, 10));
  }

  std::vector<SweepRow> rows;
  std::printf("%7s %9s %8s %10s %10s %10s %9s %6s\n", "groups", "facts",
              "threads", "map_ms", "dense_ms", "flat_ms", "speedup",
              "ident");
  for (std::size_t groups : {std::size_t{64}, std::size_t{4096}}) {
    for (std::size_t facts : {std::size_t{10000}, std::size_t{100000},
                              std::size_t{1000000}}) {
      if (facts > max_facts) continue;
      Workload workload = MakeWorkload(groups, facts);
      AggregateSpec spec{AggFunction::Sum(1),
                         {workload.parent_category,
                          workload.mo.dimension(1).type().top()},
                         ResultDimensionSpec::Auto(),
                         kNowChronon,
                         /*enforce_aggregation_types=*/true};
      const int iterations = facts >= 1000000 ? 3 : 5;

      // Bit-identity, once per configuration, before any timing: the
      // reference against the dense engine (1 and 8 threads) and the
      // forced flat-hash engine.
      auto baseline = reference::AggregateFormation(workload.mo, spec);
      if (!baseline.ok()) {
        std::fprintf(stderr, "baseline aggregate failed: %s\n",
                     baseline.status().ToString().c_str());
        return 1;
      }
      const std::string baseline_bytes =
          std::move(io::WriteMo(*baseline)).ValueOrDie();
      bool bit_identical = true;
      for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        for (bool force_flat : {false, true}) {
          ExecContext check(threads, /*min_facts=*/1);
          if (force_flat) check.max_dense_groupby_slots = 0;
          auto kernel = AggregateFormation(workload.mo, spec, &check);
          if (!kernel.ok() ||
              std::move(io::WriteMo(*kernel)).ValueOrDie() !=
                  baseline_bytes) {
            bit_identical = false;
          }
          const bool expect_dense = !force_flat;
          if (expect_dense != (check.stats.dense_groupby_runs == 1)) {
            std::fprintf(stderr,
                         "FATAL: unexpected engine at groups=%zu "
                         "facts=%zu threads=%zu force_flat=%d\n",
                         groups, facts, threads,
                         force_flat ? 1 : 0);
            return 1;
          }
        }
      }
      if (!bit_identical) {
        std::fprintf(stderr,
                     "FATAL: kernel not bit-identical at groups=%zu "
                     "facts=%zu\n",
                     groups, facts);
        return 1;
      }

      const double map_ms =
          TimeAggregateMs(workload.mo, spec, 0, false, iterations);
      for (std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{4},
            std::size_t{8}}) {
        SweepRow row;
        row.groups = groups;
        row.facts = facts;
        row.threads = threads;
        row.map_ms = map_ms;
        row.dense_ms =
            TimeAggregateMs(workload.mo, spec, threads, false, iterations);
        row.flat_ms =
            TimeAggregateMs(workload.mo, spec, threads, true, iterations);
        row.speedup = row.dense_ms > 0.0 ? row.map_ms / row.dense_ms : 1.0;
        row.bit_identical = true;
        rows.push_back(row);
        std::printf("%7zu %9zu %8zu %10.3f %10.3f %10.3f %9.2f %6s\n",
                    row.groups, row.facts, row.threads, row.map_ms,
                    row.dense_ms, row.flat_ms, row.speedup, "yes");
      }
    }
  }
  WriteJson(rows, "BENCH_groupby.json");
  return 0;
}
