#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "algebra/operators.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Operator-new counting harness (docs/memory_layout.md): global
// replacement operators that count every heap allocation in this test
// binary, and the bytes it asks for, proving the arena claim — after
// warm-up, the hot aggregate path performs O(1) allocations per query,
// independent of fact count, because per-fact scratch lives in the
// query-lifetime arenas — and that an appended batch allocates for the
// batch, not for the MO it is appended to.
//
// Disabled under sanitizers (they interpose their own allocator and the
// counts become meaningless). Set MDDC_COUNT_ALLOCS=0 to skip the
// assertions in a plain build too.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MDDC_ALLOC_COUNTING_AVAILABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MDDC_ALLOC_COUNTING_AVAILABLE 0
#else
#define MDDC_ALLOC_COUNTING_AVAILABLE 1
#endif
#else
#define MDDC_ALLOC_COUNTING_AVAILABLE 1
#endif

#if MDDC_ALLOC_COUNTING_AVAILABLE

namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<std::size_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // MDDC_ALLOC_COUNTING_AVAILABLE

namespace mddc {
namespace {

bool CountingEnabled() {
#if !MDDC_ALLOC_COUNTING_AVAILABLE
  return false;
#else
  const char* env = std::getenv("MDDC_COUNT_ALLOCS");
  return env == nullptr || std::string(env) != "0";
#endif
}

std::size_t CurrentAllocCount() {
#if MDDC_ALLOC_COUNTING_AVAILABLE
  return g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::size_t CurrentAllocBytes() {
#if MDDC_ALLOC_COUNTING_AVAILABLE
  return g_alloc_bytes.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

RetailMo BuildRetail(std::size_t purchases) {
  RetailWorkloadParams params;
  params.seed = 7;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

AggregateSpec CountByCategory(const RetailMo& retail) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < retail.mo.dimension_count(); ++i) {
    grouping.push_back(i == retail.product_dim
                           ? retail.category
                           : retail.mo.dimension(i).type().top());
  }
  return AggregateSpec{AggFunction::SetCount(), std::move(grouping),
                       ResultDimensionSpec::Auto()};
}

/// Runs the aggregate once and returns the number of heap allocations it
/// performed.
std::size_t AllocationsForOneQuery(const MdObject& mo,
                                   const AggregateSpec& spec,
                                   ExecContext* exec) {
  const std::size_t before = CurrentAllocCount();
  auto result = AggregateFormation(mo, spec, exec);
  EXPECT_TRUE(result.ok()) << result.status();
  return CurrentAllocCount() - before;
}

TEST(AllocCountTest, SteadyStateQueriesDoNotGrowTheArena) {
  if (!CountingEnabled()) GTEST_SKIP() << "alloc counting disabled";
  RetailMo retail = BuildRetail(/*purchases=*/2000);
  AggregateSpec spec = CountByCategory(retail);
  ExecContext exec(/*threads=*/4, /*min_facts=*/1);
  (void)AllocationsForOneQuery(retail.mo, spec, &exec);  // warm-up
  const std::uint64_t resets_before = exec.stats.arena_resets;
  const std::size_t run2 = AllocationsForOneQuery(retail.mo, spec, &exec);
  const std::size_t run3 = AllocationsForOneQuery(retail.mo, spec, &exec);
  // The arena absorbed per-fact scratch and was rewound between queries.
  EXPECT_GT(exec.stats.arena_bytes, 0u);
  EXPECT_GT(exec.stats.arena_resets, resets_before);
  // Steady state: repeat queries have a stable allocation footprint (the
  // arena retains its chunks across resets — no re-warming).
  EXPECT_LE(run3, run2 + run2 / 8 + 16)
      << "repeat query allocated more than its predecessor";
}

TEST(AllocCountTest, PerQueryAllocationsDoNotScaleWithFactCount) {
  if (!CountingEnabled()) GTEST_SKIP() << "alloc counting disabled";
  // Same schema (10 categories), 4x the facts: the per-fact work lives in
  // the arenas, so the *count* of heap allocations per steady-state query
  // must stay roughly flat instead of growing 4x.
  RetailMo small = BuildRetail(/*purchases=*/2000);
  RetailMo large = BuildRetail(/*purchases=*/8000);
  ASSERT_GE(large.mo.fact_count(), small.mo.fact_count() * 3);
  AggregateSpec small_spec = CountByCategory(small);
  AggregateSpec large_spec = CountByCategory(large);

  ExecContext small_exec(/*threads=*/4, /*min_facts=*/1);
  (void)AllocationsForOneQuery(small.mo, small_spec, &small_exec);
  const std::size_t small_steady =
      AllocationsForOneQuery(small.mo, small_spec, &small_exec);

  ExecContext large_exec(/*threads=*/4, /*min_facts=*/1);
  (void)AllocationsForOneQuery(large.mo, large_spec, &large_exec);
  const std::size_t large_steady =
      AllocationsForOneQuery(large.mo, large_spec, &large_exec);

  EXPECT_LT(large_steady, small_steady * 2 + 64)
      << "4x facts must not mean 4x allocations: small=" << small_steady
      << " large=" << large_steady;
}

/// Bytes one 64-patient AppendBatch allocates on a published clinical MO
/// of `patients` patients (seed 11) with a warm COUNT BY Residence.Area,
/// and the MO's published fact count.
struct AppendCost {
  std::size_t bytes = 0;
  std::size_t facts = 0;
};

AppendCost BytesOfOneAppend(std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = 11;
  params.num_patients = patients;
  auto generated =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(generated.ok()) << generated.status();
  ClinicalMo clinical = std::move(generated).ValueOrDie();
  std::vector<CategoryTypeIndex> by_area(clinical.mo.dimension_count());
  for (std::size_t i = 0; i < clinical.mo.dimension_count(); ++i) {
    by_area[i] = clinical.mo.dimension(i).type().top();
  }
  by_area[clinical.residence_dim] = clinical.area;
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas = params.num_regions * params.counties_per_region *
                            params.areas_per_county;

  serve::MoStore store;
  EXPECT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());
  EXPECT_TRUE(
      store.WarmAggregate("clinical", AggFunction::SetCount(), by_area).ok());
  std::string insert = "INSERT INTO clinical";
  for (std::uint64_t b = 0; b < 64; ++b) {
    const std::uint64_t key = 97000000 + b;
    insert += StrCat(b == 0 ? " " : ", ", "FACT ", key,
                     " (Diagnosis.\"Low-level Diagnosis\" = 'L", key % lows,
                     "'", b % 2 == 1 ? " PROB 0.8" : "",
                     ", Residence.Area = 'A", key % areas, "')");
  }
  auto parsed = mdql::Parse(insert);
  EXPECT_TRUE(parsed.ok()) << parsed.status();

  AppendCost cost;
  cost.facts = store.Pin()->Find("clinical")->mo().fact_count();
  const std::size_t before = CurrentAllocBytes();
  EXPECT_TRUE(store
                  .AppendBatch("clinical",
                               [&](MdObject& draft) {
                                 return mdql::ApplyInsert(draft,
                                                          *parsed->insert)
                                     .status();
                               })
                  .ok());
  cost.bytes = CurrentAllocBytes() - before;
  EXPECT_EQ(store.CollectStats().append_fallbacks, 0u);
  return cost;
}

TEST(AllocCountTest, AppendDraftBytesDoNotScaleWithTheMo) {
  if (!CountingEnabled()) GTEST_SKIP() << "alloc counting disabled";
  // The draft of a pure append shares the published relations' chunks
  // and CSR views and the registry's table bases: what it still copies
  // whole is the sorted fact list (8 bytes a fact). 4x the published
  // facts must add at most 16 bytes a fact to the same 64-patient write.
  const AppendCost small = BytesOfOneAppend(10000);
  const AppendCost large = BytesOfOneAppend(40000);
  ASSERT_GE(large.facts, small.facts * 3);
  const std::size_t extra_facts = large.facts - small.facts;
  EXPECT_LE(large.bytes, small.bytes + 16 * extra_facts)
      << "small=" << small.bytes << " B for " << small.facts
      << " facts, large=" << large.bytes << " B for " << large.facts
      << " facts: "
      << (static_cast<double>(large.bytes) - static_cast<double>(small.bytes)) /
             static_cast<double>(extra_facts)
      << " B per extra fact";
}

}  // namespace
}  // namespace mddc
