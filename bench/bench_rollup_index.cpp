// Compiled-rollup-index sweep: fan-out x depth x fact count, the
// flat-table aggregate path (engine/rollup_index.h) against the reference
// formation's memoized closure traversal (tests/reference/), with a
// one-time bit-identity check per configuration before any timing
// counts. Results go to stdout as a
// table and to BENCH_rollup.json as machine-readable records.
//
//   $ ./bench/bench_rollup_index
//
// MDDC_SWEEP_MAX_FACTS caps the largest fact count (default 1000000),
// e.g. MDDC_SWEEP_MAX_FACTS=100000 for a quick run or sanitizer builds.
//
// The hierarchy is hand-built, strict and non-temporal — `depth` ragged
// levels below top, every value with `fanout` children — so the
// strictness gate holds, the flat table engages, and the measured time
// is rollup resolution rather than workload generation.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "io/serialize.h"
#include "peak_rss.h"
#include "reference/aggregate_reference.h"

namespace {

using namespace mddc;

/// A strict `depth`-level hierarchy (excluding top): level 0 is the
/// bottom with fanout^(depth-1) values, each level-k value's parent is
/// its index divided by `fanout` at level k+1.
struct SyntheticDim {
  Dimension dimension;
  CategoryTypeIndex bottom = 0;
  CategoryTypeIndex coarsest = 0;  // highest category below top
  std::vector<ValueId> bottom_values;
};

SyntheticDim MakeHierarchy(std::size_t fanout, std::size_t depth) {
  DimensionTypeBuilder builder("Synth");
  for (std::size_t level = 0; level < depth; ++level) {
    builder.AddCategory(StrCat("L", level), AggregationType::kConstant);
    if (level > 0) {
      builder.AddOrder(StrCat("L", level - 1), StrCat("L", level));
    }
  }
  auto type = std::move(builder.Build()).ValueOrDie();
  Dimension dimension(type);

  std::uint64_t next_id = 1;
  std::vector<std::vector<ValueId>> levels(depth);
  std::size_t width = 1;
  for (std::size_t level = depth; level-- > 0;) {
    CategoryTypeIndex category = *type->Find(StrCat("L", level));
    for (std::size_t i = 0; i < width; ++i) {
      ValueId id(next_id++);
      (void)dimension.AddValue(category, id);
      levels[level].push_back(id);
      if (level + 1 < depth) {
        (void)dimension.AddOrder(id, levels[level + 1][i / fanout]);
      }
    }
    width *= fanout;
  }

  SyntheticDim result{std::move(dimension), *type->Find("L0"),
                      *type->Find(StrCat("L", depth - 1)),
                      std::move(levels[0])};
  return result;
}

MdObject MakeMo(const SyntheticDim& synth, std::size_t num_facts,
                std::shared_ptr<FactRegistry> registry) {
  MdObject mo("Event", {synth.dimension}, registry,
              TemporalType::kSnapshot);
  for (std::size_t i = 0; i < num_facts; ++i) {
    FactId fact = registry->Atom(i);
    (void)mo.AddFact(fact);
    (void)mo.Relate(0, fact,
                    synth.bottom_values[i % synth.bottom_values.size()],
                    Lifespan::AlwaysSpan());
  }
  return mo;
}

struct SweepRow {
  std::size_t fanout = 0;
  std::size_t depth = 0;
  std::size_t facts = 0;
  double memo_ms = 0.0;
  double index_ms = 0.0;
  double speedup = 1.0;
  std::size_t index_hits = 0;
  bool bit_identical = false;
};

/// Best-of wall time of one formation; a null `exec` times the reference.
double TimeAggregateMs(const MdObject& mo, const AggregateSpec& spec,
                       ExecContext* exec, int iterations) {
  double best = 1e300;
  for (int i = 0; i < iterations; ++i) {
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
               "{\n  \"bench\": \"rollup_index\",\n  \"peak_rss_kb\": %zu,\n"
               "  \"rows\": [\n",
               mddc_bench::PeakRssKb());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"fanout\": %zu, \"depth\": %zu, \"facts\": %zu, "
                 "\"memo_ms\": %.3f, \"index_ms\": %.3f, "
                 "\"speedup_vs_memo\": %.3f, \"index_hits\": %zu, "
                 "\"bit_identical\": %s}%s\n",
                 r.fanout, r.depth, r.facts, r.memo_ms, r.index_ms,
                 r.speedup, r.index_hits,
                 r.bit_identical ? "true" : "false",
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
  std::printf("%7s %6s %9s %10s %10s %9s %10s %6s\n", "fanout", "depth",
              "facts", "memo_ms", "index_ms", "speedup", "index_hits",
              "ident");
  for (std::size_t fanout : {std::size_t{4}, std::size_t{16}}) {
    for (std::size_t depth : {std::size_t{3}, std::size_t{5}}) {
      if (fanout == 16 && depth == 5) continue;  // 65k values is plenty
      SyntheticDim synth = MakeHierarchy(fanout, depth);
      for (std::size_t facts : {std::size_t{10000}, std::size_t{100000},
                                std::size_t{1000000}}) {
        if (facts > max_facts) continue;
        auto registry = std::make_shared<FactRegistry>();
        MdObject mo = MakeMo(synth, facts, registry);
        // Roll all the way up to the coarsest real category: the longest
        // traversal, and one flat-table lookup for the index.
        AggregateSpec spec{AggFunction::SetCount(),
                           {synth.coarsest},
                           ResultDimensionSpec::Auto(),
                           kNowChronon,
                           /*enforce_aggregation_types=*/true};
        const int iterations = facts >= 1000000 ? 3 : 5;

        SweepRow row;
        row.fanout = fanout;
        row.depth = depth;
        row.facts = facts;

        auto memoized = reference::AggregateFormation(mo, spec);
        if (!memoized.ok()) {
          std::fprintf(stderr, "memoized aggregate failed: %s\n",
                       memoized.status().ToString().c_str());
          return 1;
        }
        const std::string memo_bytes =
            std::move(io::WriteMo(*memoized)).ValueOrDie();
        {
          // Bit-identity, once per configuration, before any timing.
          ExecContext check(1, /*min_facts=*/1);
          auto indexed = AggregateFormation(mo, spec, &check);
          row.bit_identical =
              indexed.ok() &&
              std::move(io::WriteMo(*indexed)).ValueOrDie() == memo_bytes;
          if (!row.bit_identical) {
            std::fprintf(stderr,
                         "FATAL: indexed aggregate not bit-identical at "
                         "fanout=%zu depth=%zu facts=%zu\n",
                         fanout, depth, facts);
            return 1;
          }
          if (check.stats.index_fallbacks != 0) {
            std::fprintf(stderr,
                         "FATAL: flat-table gate failed on a strict "
                         "hierarchy\n");
            return 1;
          }
        }

        row.memo_ms = TimeAggregateMs(mo, spec, nullptr, iterations);
        ExecContext ctx(1, /*min_facts=*/1);
        row.index_ms = TimeAggregateMs(mo, spec, &ctx, iterations);
        row.speedup =
            row.index_ms > 0.0 ? row.memo_ms / row.index_ms : 1.0;
        row.index_hits = ctx.stats.index_hits;
        rows.push_back(row);
        std::printf("%7zu %6zu %9zu %10.3f %10.3f %9.2f %10zu %6s\n",
                    row.fanout, row.depth, row.facts, row.memo_ms,
                    row.index_ms, row.speedup, row.index_hits,
                    row.bit_identical ? "yes" : "NO");
      }
    }
  }
  WriteJson(rows, "BENCH_rollup.json");
  return 0;
}
