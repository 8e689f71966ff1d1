#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/chunked_vector.h"
#include "io/serialize.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for the MVCC publication point (serve/mo_store.h): epoch
// publication and pinning, snapshot immutability, registry forking,
// reclamation, and — under ThreadSanitizer — the N-readers/1-writer
// hammer whose every observation must be byte-identical to a sequential
// replay of the same mutation batches, plus readers that only Pin()
// racing 200 swaps.

namespace mddc {
namespace serve {
namespace {

MdObject BuildSales(std::size_t purchases = 300) {
  RetailWorkloadParams params;
  params.seed = 7;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie().mo;
}

std::string Bytes(const MdObject& mo) {
  auto text = io::WriteMo(mo);
  EXPECT_TRUE(text.ok()) << text.status();
  return text.ok() ? *text : std::string();
}

/// One deterministic mutation batch: three new atomic facts related to
/// the first bottom value of dimension 0. Applied identically to writer
/// drafts and to the sequential-replay MO.
Status ApplyBatch(MdObject& mo, int batch) {
  const CategoryTypeIndex bottom = mo.dimension(0).type().bottom();
  const ValueId value = mo.dimension(0).ValuesIn(bottom).front();
  for (int j = 0; j < 3; ++j) {
    // Key space disjoint from the retail generator's purchase keys
    // (1000000 + i), so every batch really adds new facts.
    const FactId fact =
        mo.registry()->Atom(9000000 + static_cast<std::uint64_t>(batch) * 3 +
                            static_cast<std::uint64_t>(j));
    MDDC_RETURN_NOT_OK(mo.AddFact(fact));
    MDDC_RETURN_NOT_OK(mo.Relate(0, fact, value));
  }
  return mo.CoverWithTop();
}

TEST(MoStoreTest, PublishPinRoundTrip) {
  MoStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.Pin()->size(), 0u);

  ASSERT_TRUE(store.Publish("sales", BuildSales()).ok());
  EXPECT_EQ(store.epoch(), 1u);
  auto snapshot = store.Pin();
  EXPECT_EQ(snapshot->epoch(), 1u);
  ASSERT_NE(snapshot->Find("sales"), nullptr);
  EXPECT_EQ(snapshot->Find("nope"), nullptr);
  EXPECT_EQ(snapshot->names(), std::vector<std::string>{"sales"});

  // Names are unique; replacement goes through Mutate.
  EXPECT_FALSE(store.Publish("sales", BuildSales()).ok());

  ASSERT_TRUE(store.Drop("sales").ok());
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.Pin()->Find("sales"), nullptr);
  // The pinned older epoch still sees it.
  EXPECT_NE(snapshot->Find("sales"), nullptr);
  EXPECT_FALSE(store.Drop("sales").ok());
}

TEST(MoStoreTest, PublicationSealsTheCallerRegistry) {
  MdObject sales = BuildSales();
  const std::shared_ptr<FactRegistry> caller_registry = sales.registry();
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", sales).ok());
  const PublishedMo* entry = store.Pin()->Find("sales");
  ASSERT_NE(entry, nullptr);
  // The published registry is a private copy: the caller may keep
  // interning without becoming visible to (or racing) readers.
  EXPECT_NE(entry->mo().registry().get(), caller_registry.get());
  const std::size_t published_size = entry->mo().registry()->size();
  caller_registry->Atom(99999999);
  EXPECT_EQ(entry->mo().registry()->size(), published_size);
}

TEST(MoStoreTest, PublishedDimensionsAreFrozenAndCompiled) {
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales()).ok());
  const PublishedMo* entry = store.Pin()->Find("sales");
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->rollups.size(), entry->mo().dimension_count());
  for (std::size_t i = 0; i < entry->mo().dimension_count(); ++i) {
    const Dimension& dimension = entry->mo().dimension(i);
    EXPECT_TRUE(dimension.publish_frozen()) << dimension.name();
    ASSERT_NE(entry->rollups[i], nullptr);
    EXPECT_FALSE(entry->rollups[i]->StaleFor(dimension));
    // The frozen fast path must serve the bundled snapshot, not build.
    ExecStats stats;
    EXPECT_EQ(RollupIndex::For(dimension, &stats).get(),
              entry->rollups[i].get());
    EXPECT_EQ(stats.index_builds, 0u);
  }
}

TEST(MoStoreTest, PinnedEpochIsImmutableUnderMutation) {
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales()).ok());
  auto pinned = store.Pin();
  const std::string before = Bytes(pinned->Find("sales")->mo());
  const std::size_t facts_before = pinned->Find("sales")->mo().fact_count();

  ASSERT_TRUE(
      store.Mutate("sales", [](MdObject& draft) { return ApplyBatch(draft, 0); })
          .ok());
  EXPECT_EQ(store.epoch(), 2u);

  // The new epoch has the facts; the pinned epoch is bit-for-bit what it
  // was.
  EXPECT_EQ(store.Pin()->Find("sales")->mo().fact_count(), facts_before + 3);
  EXPECT_EQ(pinned->Find("sales")->mo().fact_count(), facts_before);
  EXPECT_EQ(Bytes(pinned->Find("sales")->mo()), before);
}

TEST(MoStoreTest, FailedMutationPublishesNothing) {
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales()).ok());
  const std::uint64_t epoch = store.epoch();
  Status status = store.Mutate("sales", [](MdObject&) {
    return Status::InvalidArgument("boom");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store.epoch(), epoch);
  EXPECT_FALSE(store.Mutate("nope", [](MdObject&) { return Status::OK(); })
                   .ok());
}

TEST(MoStoreTest, MutationSharesTheRegistryChunksButTheTail) {
  // Enough purchases, and a set of them all, that the registry's term and
  // member arrays span several chunks.
  MdObject sales = BuildSales(2500);
  (void)sales.registry()->Set(sales.facts());
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", std::move(sales)).ok());
  constexpr std::size_t C = ChunkedVector<FactId>::kChunkSize;
  for (int batch = 0; batch < 12; ++batch) {
    SCOPED_TRACE(batch);
    const std::shared_ptr<const MoSnapshot> before = store.Pin();
    const FactRegistry& prev = *before->Find("sales")->mo().registry();
    ASSERT_TRUE(store
                    .Mutate("sales",
                            [batch](MdObject& draft) {
                              MDDC_RETURN_NOT_OK(ApplyBatch(draft, batch));
                              // A set of the batch's three facts grows
                              // the member pool as well.
                              const std::vector<FactId>& facts =
                                  draft.facts();
                              (void)draft.registry()->Set(
                                  std::vector<FactId>(facts.end() - 3,
                                                      facts.end()));
                              return Status::OK();
                            })
                    .ok());
    const FactRegistry& next =
        *store.Pin()->Find("sales")->mo().registry();
    ASSERT_EQ(next.size(), prev.size() + 4);
    ASSERT_EQ(next.stored_member_ids(), prev.stored_member_ids() + 3);
    ASSERT_GE(prev.chunk_count(), 6u);
    // Every term and member chunk of the predecessor is shared but the
    // partly filled tail chunk of each array, which the draft's interning
    // cloned.
    const std::size_t cloned_tails =
        (prev.size() % C != 0 ? 1 : 0) +
        (prev.stored_member_ids() % C != 0 ? 1 : 0);
    EXPECT_EQ(next.SharedChunksWith(prev), prev.chunk_count() - cloned_tails);
    // Ids resolve the same way.
    for (std::uint64_t raw = 0; raw < prev.size(); ++raw) {
      ASSERT_EQ(next.ToString(FactId(raw)), prev.ToString(FactId(raw)))
          << "id " << raw;
    }
  }
  const MoStore::Stats stats = store.CollectStats();
  EXPECT_EQ(stats.epochs_published, 13u);  // publish + 12 batches
  EXPECT_EQ(stats.registry_flattens, 0u);
}

TEST(MoStoreTest, RetiredEpochsAreReclaimedWhenUnpinned) {
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales(60)).ok());
  {
    auto pinned = store.Pin();
    for (int batch = 0; batch < 3; ++batch) {
      ASSERT_TRUE(store
                      .Mutate("sales",
                              [batch](MdObject& draft) {
                                return ApplyBatch(draft, batch);
                              })
                      .ok());
    }
    // The pinned epoch (and the current one) are alive; the epochs
    // published between them may or may not be pinned by nobody yet.
    const MoStore::Stats held = store.CollectStats();
    EXPECT_GE(held.live_snapshots, 2u);
  }
  const MoStore::Stats released = store.CollectStats();
  EXPECT_EQ(released.live_snapshots, 1u);  // only the current epoch
  // publish + 3 mutations retired 4 snapshots (incl. the empty epoch 0),
  // all now reclaimed.
  EXPECT_EQ(released.reclaimed_snapshots, 4u);
}

// A server that never asks for stats must not keep one observer per
// epoch forever: swaps prune the reclaimed ones once the list doubles.
TEST(MoStoreTest, RetiredObserversStayBoundedWithoutCollectingStats) {
  constexpr int kEpochs = 10000;
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales(10)).ok());
  std::shared_ptr<const MoSnapshot> held;
  for (int e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(
        store.AppendBatch("sales", [](MdObject&) { return Status::OK(); })
            .ok());
    if (e == kEpochs / 2) held = store.Pin();
  }
  MoStore::Stats stats = store.CollectStats();
  EXPECT_EQ(stats.epochs_published, kEpochs + 1u);
  EXPECT_LE(stats.retired_observers, 16u);
  EXPECT_EQ(stats.live_snapshots, 2u);  // the held epoch + the current one
  EXPECT_EQ(stats.reclaimed_snapshots + stats.live_snapshots,
            stats.epochs_published + 1);

  held.reset();
  stats = store.CollectStats();
  EXPECT_EQ(stats.live_snapshots, 1u);
  EXPECT_EQ(stats.reclaimed_snapshots + stats.live_snapshots,
            stats.epochs_published + 1);
}

TEST(MoStoreTest, WarmAggregateFailureIsWithdrawn) {
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales(60)).ok());
  const std::uint64_t epoch = store.epoch();
  // SUM over dimension 0 (Product) is an illegal aggregation; the spec
  // must not poison later mutations.
  std::vector<CategoryTypeIndex> grouping;
  const MdObject& mo = store.Pin()->Find("sales")->mo();
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(mo.dimension(i).type().top());
  }
  EXPECT_FALSE(
      store.WarmAggregate("sales", AggFunction::Sum(0), grouping).ok());
  EXPECT_EQ(store.epoch(), epoch);
  EXPECT_TRUE(store
                  .Mutate("sales",
                          [](MdObject& draft) { return ApplyBatch(draft, 0); })
                  .ok());
}

TEST(MoStoreTest, DropForgetsTheWarmSpecs) {
  ClinicalWorkloadParams params;
  params.seed = 5;
  params.num_patients = 80;
  auto clinical =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(clinical.ok()) << clinical.status();
  std::vector<CategoryTypeIndex> by_area;
  for (std::size_t i = 0; i < clinical->mo.dimension_count(); ++i) {
    by_area.push_back(clinical->mo.dimension(i).type().top());
  }
  by_area[clinical->residence_dim] = clinical->area;

  MoStore store;
  ASSERT_TRUE(store.Publish("mo", clinical->mo).ok());
  ASSERT_TRUE(
      store.WarmAggregate("mo", AggFunction::SetCount(), by_area).ok());
  ASSERT_NE(store.Pin()->Find("mo")->preagg, nullptr);
  ASSERT_TRUE(store.Drop("mo").ok());

  // A different schema under the dropped name: the clinical spec's
  // 2-dimension grouping is not materialized against the 5-dimension
  // retail MO.
  const Status republished = store.Publish("mo", BuildSales(60));
  ASSERT_TRUE(republished.ok()) << republished;
  std::shared_ptr<const MoSnapshot> pinned = store.Pin();
  EXPECT_EQ(pinned->Find("mo")->preagg, nullptr);

  // Nor does a same-schema re-publish inherit the spec.
  ASSERT_TRUE(store.Drop("mo").ok());
  ASSERT_TRUE(store.Publish("mo", std::move(clinical->mo)).ok());
  pinned = store.Pin();
  EXPECT_EQ(pinned->Find("mo")->preagg, nullptr);
}

// The differential hammer (TSan target): one writer publishing B
// mutation batches while reader threads continuously pin and serialize.
// Every reader observation must be byte-identical to the sequential
// replay of the same batches at the observed epoch — i.e. each read sees
// exactly one consistent epoch, never a mix.
TEST(MoStoreConcurrencyTest, ReadersSeeSingleConsistentEpochs) {
  constexpr int kBatches = 6;
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 25;

  // Two deterministic replicas of the same workload: one is published,
  // the other replayed sequentially to produce the expected bytes per
  // epoch.
  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales(120)).ok());
  MdObject replay = BuildSales(120);

  const std::uint64_t base_epoch = store.epoch();
  std::vector<std::string> expected;  // expected[k] = bytes at epoch base+k
  expected.push_back(Bytes(replay));
  for (int batch = 0; batch < kBatches; ++batch) {
    ASSERT_TRUE(ApplyBatch(replay, batch).ok());
    expected.push_back(Bytes(replay));
  }
  // Sanity: the published baseline (sealed, flattened registry) renders
  // the same bytes as the plain replica.
  ASSERT_EQ(Bytes(store.Pin()->Find("sales")->mo()), expected[0]);

  std::vector<std::thread> readers;
  std::vector<int> failures(kReaders, 0);
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &expected, &failures, base_epoch, r] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        const std::shared_ptr<const MoSnapshot> snapshot = store.Pin();
        const std::uint64_t k = snapshot->epoch() - base_epoch;
        if (k >= expected.size()) {
          ++failures[r];
          continue;
        }
        const PublishedMo* entry = snapshot->Find("sales");
        if (entry == nullptr) {
          ++failures[r];
          continue;
        }
        auto bytes = io::WriteMo(entry->mo());
        if (!bytes.ok() || *bytes != expected[k]) ++failures[r];
      }
    });
  }

  for (int batch = 0; batch < kBatches; ++batch) {
    ASSERT_TRUE(store
                    .Mutate("sales",
                            [batch](MdObject& draft) {
                              return ApplyBatch(draft, batch);
                            })
                    .ok());
  }
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(failures[r], 0) << "reader " << r
                              << " observed bytes not matching its epoch";
  }
  EXPECT_EQ(store.epoch(), base_epoch + kBatches);
}

// The publication point itself under ThreadSanitizer: readers that do
// nothing but Pin() in a tight loop, racing every one of 200 swaps. Each
// pinned snapshot's contents are read, and the last reference to a
// retired epoch is often dropped on a reader thread, so a Pin() that
// does not happen-after the swap it observes is reported.
TEST(MoStoreConcurrencyTest, PinIsOrderedWithEverySwap) {
  constexpr int kEpochs = 200;
  constexpr int kPinners = 3;

  MoStore store;
  ASSERT_TRUE(store.Publish("sales", BuildSales(10)).ok());
  const std::uint64_t base_epoch = store.epoch();
  const std::size_t facts = store.Pin()->Find("sales")->mo().fact_count();

  std::atomic<bool> done{false};
  std::atomic<int> running{0};
  std::vector<std::thread> pinners;
  std::vector<int> failures(kPinners, 0);
  std::vector<std::uint64_t> pins(kPinners, 0);
  for (int p = 0; p < kPinners; ++p) {
    pinners.emplace_back([&, p] {
      std::uint64_t last = base_epoch;
      while (!done.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const MoSnapshot> snapshot = store.Pin();
        const PublishedMo* entry = snapshot->Find("sales");
        // Epochs never go backwards for one reader, and every one of
        // them carries the published MO whole.
        if (snapshot->epoch() < last || entry == nullptr ||
            entry->mo().fact_count() != facts) {
          ++failures[p];
        }
        last = snapshot->epoch();
        if (pins[p]++ == 0) running.fetch_add(1);
      }
    });
  }
  // A swap takes microseconds: start them only once every pinner is
  // pinning, so the pins overlap the swaps on any scheduler.
  while (running.load() < kPinners) std::this_thread::yield();
  for (int e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(
        store.Mutate("sales", [](MdObject&) { return Status::OK(); }).ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : pinners) t.join();

  EXPECT_EQ(store.epoch(), base_epoch + kEpochs);
  for (int p = 0; p < kPinners; ++p) {
    EXPECT_EQ(failures[p], 0) << "pinner " << p;
    EXPECT_GT(pins[p], 0u) << "pinner " << p;
  }
  EXPECT_EQ(store.CollectStats().live_snapshots, 1u);
}

}  // namespace
}  // namespace serve
}  // namespace mddc
