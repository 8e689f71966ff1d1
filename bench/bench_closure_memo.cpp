// Three-way ablation for the paper's future-work item "efficient
// implementation using special-purpose algorithms and data structures":
// aggregate formation with
//
//   raw   — the reference formation (tests/reference/) walking
//           containment recomputed per query (memoization disabled),
//   memo  — the reference over the dimension's memoized reachability
//           closure, and
//   index — the production group-by scan over the compiled rollup
//           snapshot (engine/rollup_index.h), which falls back to the
//           memo when the strictness gate fails;
//
// over a strict workload (retail: the flat table engages) and a
// non-strict temporal one (clinical: the gate fails, proving fallback
// parity). One-time bit-identity across all modes per workload, then a
// stdout table and BENCH_closure_memo.json.
//
//   $ ./bench/bench_closure_memo

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "engine/executor.h"
#include "io/serialize.h"
#include "peak_rss.h"
#include "reference/aggregate_reference.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

namespace {

using namespace mddc;

struct Case {
  std::string workload;
  MdObject mo;
  AggregateSpec spec;
};

std::vector<CategoryTypeIndex> GroupingAt(const MdObject& mo,
                                          std::size_t dim,
                                          CategoryTypeIndex category) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(i == dim ? category : mo.dimension(i).type().top());
  }
  return grouping;
}

std::vector<Case> BuildCases() {
  std::vector<Case> cases;
  {
    RetailWorkloadParams params;
    params.num_purchases = 2000;
    RetailMo retail = std::move(GenerateRetailWorkload(
                                    params,
                                    std::make_shared<FactRegistry>()))
                          .ValueOrDie();
    AggregateSpec spec{
        AggFunction::SetCount(),
        GroupingAt(retail.mo, retail.product_dim, retail.category),
        ResultDimensionSpec::Auto(), kNowChronon,
        /*enforce_aggregation_types=*/true};
    cases.push_back({"retail_strict", std::move(retail.mo), spec});
  }
  {
    ClinicalWorkloadParams params;
    params.num_patients = 800;
    params.num_groups = 4;
    ClinicalMo clinical = std::move(GenerateClinicalWorkload(
                                        params,
                                        std::make_shared<FactRegistry>()))
                              .ValueOrDie();
    AggregateSpec spec{
        AggFunction::SetCount(),
        GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.group),
        ResultDimensionSpec::Auto(), kNowChronon,
        /*enforce_aggregation_types=*/true};
    cases.push_back({"clinical_nonstrict", std::move(clinical.mo), spec});
  }
  return cases;
}

void ConfigureMemo(const MdObject& mo, bool enabled) {
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    mo.dimension(i).set_memoization_enabled(enabled);
  }
}

struct ModeRow {
  std::string workload;
  std::string mode;
  double wall_ms = 0.0;
  double speedup_vs_raw = 1.0;
  std::size_t index_hits = 0;
  std::size_t index_fallbacks = 0;
  bool bit_identical = false;
};

void WriteJson(const std::vector<ModeRow>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"closure_memo\",\n  \"peak_rss_kb\": %zu,\n"
               "  \"rows\": [\n",
               mddc_bench::PeakRssKb());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ModeRow& r = rows[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"mode\": \"%s\", "
                 "\"wall_ms\": %.3f, \"speedup_vs_raw\": %.3f, "
                 "\"index_hits\": %zu, \"index_fallbacks\": %zu, "
                 "\"bit_identical\": %s}%s\n",
                 r.workload.c_str(), r.mode.c_str(), r.wall_ms,
                 r.speedup_vs_raw, r.index_hits, r.index_fallbacks,
                 r.bit_identical ? "true" : "false",
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  constexpr int kIterations = 5;
  std::vector<ModeRow> rows;
  std::printf("%20s %6s %10s %9s %6s %10s %6s\n", "workload", "mode",
              "wall_ms", "speedup", "hits", "fallbacks", "ident");
  for (Case& c : BuildCases()) {
    // Ground truth once per workload: the memoized reference.
    ConfigureMemo(c.mo, true);
    auto reference = reference::AggregateFormation(c.mo, c.spec);
    if (!reference.ok()) {
      std::fprintf(stderr, "aggregate failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    const std::string reference_bytes =
        std::move(io::WriteMo(*reference)).ValueOrDie();

    double raw_ms = 0.0;
    for (const std::string& mode : {std::string("raw"),
                                    std::string("memo"),
                                    std::string("index")}) {
      ModeRow row;
      row.workload = c.workload;
      row.mode = mode;
      ExecContext ctx(1, /*min_facts=*/1);
      auto run = [&] {
        return mode == "index" ? AggregateFormation(c.mo, c.spec, &ctx)
                               : reference::AggregateFormation(c.mo, c.spec);
      };
      ConfigureMemo(c.mo, mode != "raw");

      // Bit-identity, once per mode, before any timing.
      {
        auto result = run();
        row.bit_identical =
            result.ok() && std::move(io::WriteMo(*result)).ValueOrDie() ==
                               reference_bytes;
        if (!row.bit_identical) {
          std::fprintf(stderr, "FATAL: %s/%s not bit-identical\n",
                       c.workload.c_str(), mode.c_str());
          return 1;
        }
      }

      double best = 1e300;
      for (int i = 0; i < kIterations; ++i) {
        // Raw must not profit from warmth left by a previous iteration.
        if (mode == "raw") ConfigureMemo(c.mo, false);
        auto start = std::chrono::steady_clock::now();
        auto result = run();
        auto stop = std::chrono::steady_clock::now();
        if (!result.ok()) {
          std::fprintf(stderr, "aggregate failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        double ms = std::chrono::duration<double, std::milli>(stop - start)
                        .count();
        if (ms < best) best = ms;
      }
      row.wall_ms = best;
      if (mode == "raw") raw_ms = best;
      row.speedup_vs_raw = best > 0.0 ? raw_ms / best : 1.0;
      row.index_hits = ctx.stats.index_hits;
      row.index_fallbacks = ctx.stats.index_fallbacks;
      rows.push_back(row);
      std::printf("%20s %6s %10.3f %9.2f %6zu %10zu %6s\n",
                  row.workload.c_str(), row.mode.c_str(), row.wall_ms,
                  row.speedup_vs_raw, row.index_hits, row.index_fallbacks,
                  row.bit_identical ? "yes" : "NO");
      ConfigureMemo(c.mo, true);
    }
  }
  WriteJson(rows, "BENCH_closure_memo.json");
  return 0;
}
