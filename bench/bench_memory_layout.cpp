// Memory-layout sweep (docs/memory_layout.md): the aggregate-formation
// pipeline on the flat layout — shared interners, flat-hash indexes, CSR
// by-fact spans and query-lifetime arenas — against the ordered-map/heap
// reference formation (tests/reference/), across fact counts. Per
// configuration, one bit-identity check (serialized result bytes) runs
// before any timing counts; timings then report the single-thread
// speedup, the heap-allocation count per steady-state query on both
// paths, and the process peak RSS. Results go to stdout as a table and
// to BENCH_memory.json as machine-readable records.
//
//   $ ./bench/bench_memory_layout
//
// MDDC_SWEEP_MAX_FACTS caps the largest fact count (default 1000000);
// MDDC_SWEEP_MAX_FACTS=10000000 enables the large-scale 10^7-fact mode
// (several GB of RSS), MDDC_SWEEP_MAX_FACTS=100000 a quick run.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "io/serialize.h"
#include "peak_rss.h"
#include "reference/aggregate_reference.h"

// Allocation counter: the same replacement-operator harness as
// tests/alloc_count_test.cc, counting every heap allocation so the sweep
// can report allocations per query on the old and new paths.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mddc;

constexpr std::size_t kGroups = 64;
constexpr std::size_t kFanout = 8;  // bottom values per group

struct Workload {
  MdObject mo;
  CategoryTypeIndex parent_category = 0;
};

/// A strict non-temporal product hierarchy plus a summed measure — the
/// shape whose per-fact scratch the arenas absorb.
Workload MakeWorkload(std::size_t num_facts) {
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
  for (std::size_t g = 0; g < kGroups; ++g) {
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
    (void)mo.Relate(0, fact, items[(i * 31) % items.size()],
                    Lifespan::AlwaysSpan());
    (void)mo.Relate(1, fact, amount_values[i % amount_values.size()],
                    Lifespan::AlwaysSpan());
  }
  return Workload{std::move(mo), group};
}

struct SweepRow {
  std::size_t facts = 0;
  double old_ms = 0.0;   // ordered-map/heap reference formation
  double new_ms = 0.0;   // flat layout, 1 thread
  double new8_ms = 0.0;  // flat layout, 8 threads
  double speedup = 1.0;  // old / new (single thread)
  std::size_t old_allocs = 0;  // per steady-state query
  std::size_t new_allocs = 0;
  bool bit_identical = false;
};

struct TimedRun {
  double ms = 0.0;
  std::size_t allocs = 0;
};

/// Best-of-N wall time plus the allocation count of the *last* run —
/// steady state, since the context's arenas are warm by then. A null
/// `exec` times the reference formation.
TimedRun TimeAggregate(const MdObject& mo, const AggregateSpec& spec,
                       ExecContext* exec, int iterations) {
  TimedRun run;
  run.ms = 1e300;
  for (int i = 0; i < iterations; ++i) {
    const std::size_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    auto start = std::chrono::steady_clock::now();
    auto result = exec == nullptr ? reference::AggregateFormation(mo, spec)
                                  : AggregateFormation(mo, spec, exec);
    auto stop = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "aggregate failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < run.ms) run.ms = ms;
    run.allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  }
  return run;
}


void WriteJson(const std::vector<SweepRow>& rows, std::size_t peak_rss_kb,
               const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"memory_layout\",\n"
               "  \"peak_rss_kb\": %zu,\n  \"rows\": [\n",
               peak_rss_kb);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"facts\": %zu, \"old_ms\": %.3f, \"new_ms\": %.3f, "
        "\"new8_ms\": %.3f, \"speedup_new_vs_old\": %.3f, "
        "\"old_allocs_per_query\": %zu, \"new_allocs_per_query\": %zu, "
        "\"bit_identical\": %s}%s\n",
        r.facts, r.old_ms, r.new_ms, r.new8_ms, r.speedup, r.old_allocs,
        r.new_allocs, r.bit_identical ? "true" : "false",
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
  std::printf("%9s %10s %10s %10s %9s %12s %12s %6s\n", "facts", "old_ms",
              "new_ms", "new8_ms", "speedup", "old_allocs", "new_allocs",
              "ident");
  for (std::size_t facts :
       {std::size_t{100000}, std::size_t{1000000}, std::size_t{10000000}}) {
    if (facts > max_facts) continue;
    Workload workload = MakeWorkload(facts);
    AggregateSpec spec{AggFunction::Sum(1),
                       {workload.parent_category,
                        workload.mo.dimension(1).type().top()},
                       ResultDimensionSpec::Auto(),
                       kNowChronon,
                       /*enforce_aggregation_types=*/true};
    const int iterations = facts >= 1000000 ? 3 : 5;

    // Bit-identity before any timing: the flat layout must reproduce the
    // reference byte for byte at 1 and 8 threads.
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
      ExecContext check(threads, /*min_facts=*/1);
      auto flat = AggregateFormation(workload.mo, spec, &check);
      if (!flat.ok() ||
          std::move(io::WriteMo(*flat)).ValueOrDie() != baseline_bytes) {
        bit_identical = false;
      }
    }
    if (!bit_identical) {
      std::fprintf(stderr, "FATAL: flat layout not bit-identical at "
                   "facts=%zu\n", facts);
      return 1;
    }

    SweepRow row;
    row.facts = facts;
    row.bit_identical = bit_identical;
    TimedRun old_run =
        TimeAggregate(workload.mo, spec, nullptr, iterations);
    row.old_ms = old_run.ms;
    row.old_allocs = old_run.allocs;
    {
      ExecContext exec(1, /*min_facts=*/1);
      TimedRun new_run =
          TimeAggregate(workload.mo, spec, &exec, iterations + 1);
      row.new_ms = new_run.ms;
      row.new_allocs = new_run.allocs;
    }
    {
      ExecContext exec(8, /*min_facts=*/1);
      row.new8_ms =
          TimeAggregate(workload.mo, spec, &exec, iterations + 1).ms;
    }
    row.speedup = row.new_ms > 0 ? row.old_ms / row.new_ms : 1.0;
    std::printf("%9zu %10.3f %10.3f %10.3f %8.2fx %12zu %12zu %6s\n",
                row.facts, row.old_ms, row.new_ms, row.new8_ms, row.speedup,
                row.old_allocs, row.new_allocs,
                row.bit_identical ? "yes" : "NO");
    rows.push_back(row);
  }

  const std::size_t peak_rss_kb = mddc_bench::PeakRssKb();
  std::printf("peak rss: %zu kB\n", peak_rss_kb);
  WriteJson(rows, peak_rss_kb, "BENCH_memory.json");
  return 0;
}
