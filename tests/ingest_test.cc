#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/date.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"

// The incremental-ingestion differential (docs/ingestion.md): a store
// whose epochs are published through AppendBatch's patched sealing —
// CSR tails spliced, rollup snapshots patched, warm pre-aggregates
// delta-folded — must render every query byte-identically to a store
// that re-seals every epoch from scratch through Mutate, at any thread
// count, including across a structural mutation that forces the
// fast path to fall back mid-stream.

namespace mddc {
namespace {

ClinicalWorkloadParams SmallParams(std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = 17;
  params.num_patients = patients;
  return params;
}

ClinicalMo Build(const ClinicalWorkloadParams& params) {
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// The read set replayed after every batch: rollups at three levels, a
/// temporal slice, a probabilistic threshold and the star-join shape, so
/// the differential covers every fused/interpreted path over the
/// patched snapshot.
std::vector<std::string> ReadSet() {
  return {
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
      "SELECT COUNT FROM clinical BY Residence.Region",
      "SELECT COUNT FROM clinical BY Diagnosis.\"Low-level Diagnosis\""
      " WHERE Diagnosis.\"Diagnosis Family\" = 'F0'",
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\""
      " ASOF '01/01/95'",
      "SELECT COUNT FROM clinical BY Residence.Region"
      " WHERE PROB(Diagnosis.\"Diagnosis Family\" = 'F1') >= 0.7",
      "SELECT COUNT FROM clinical"
      " BY Diagnosis.\"Diagnosis Group\", Residence.Region"
      " WHERE Residence.Region = 'R0' OR Residence.County = 'CO1'",
  };
}

std::vector<CategoryTypeIndex> RegionGrouping(const ClinicalMo& clinical) {
  std::vector<CategoryTypeIndex> grouping(clinical.mo.dimension_count());
  for (std::size_t i = 0; i < clinical.mo.dimension_count(); ++i) {
    grouping[i] = clinical.mo.dimension(i).type().top();
  }
  grouping[clinical.residence_dim] = clinical.region;
  return grouping;
}

/// A bulk INSERT of `count` new patients over existing leaf values.
std::string BulkInsert(std::uint64_t base_key, std::size_t count,
                       std::size_t lows, std::size_t areas) {
  std::string statement = "INSERT INTO clinical";
  for (std::size_t b = 0; b < count; ++b) {
    const std::uint64_t key = base_key + b;
    statement += StrCat(
        b == 0 ? " " : ", ", "FACT ", key,
        " (Diagnosis.\"Low-level Diagnosis\" = 'L", key % lows, "'",
        b % 2 == 1 ? " PROB 0.8" : "", ", Residence.Area = 'A", key % areas,
        "')");
  }
  return statement;
}

/// Renders the read set on both stores at 1, 2 and 8 threads per query
/// and asserts byte identity.
void ExpectReadsMatch(serve::MoStore& incremental, serve::MoStore& rebuilt,
                      const std::string& context) {
  serve::MdqlServer inc_server(&incremental);
  serve::MdqlServer full_server(&rebuilt);
  for (std::size_t threads : {1u, 2u, 8u}) {
    serve::ServerSession inc = inc_server.Connect(threads);
    serve::ServerSession full = full_server.Connect(threads);
    for (const std::string& query : ReadSet()) {
      auto a = inc.Execute(query);
      auto b = full.Execute(query);
      ASSERT_TRUE(a.ok()) << context << ": " << query << "\n" << a.status();
      ASSERT_TRUE(b.ok()) << context << ": " << query << "\n" << b.status();
      EXPECT_EQ(a->ToString(), b->ToString())
          << context << " at " << threads << " threads: " << query;
    }
  }
}

/// Asserts both stores publish a warm entry for (function, grouping) and
/// that the two serialize byte-identically.
void ExpectWarmEntriesMatch(serve::MoStore& incremental,
                            serve::MoStore& rebuilt,
                            const AggFunction& function,
                            const std::vector<CategoryTypeIndex>& grouping,
                            const std::string& context) {
  const auto inc_snapshot = incremental.Pin();
  const auto full_snapshot = rebuilt.Pin();
  const serve::PublishedMo* inc = inc_snapshot->Find("clinical");
  const serve::PublishedMo* full = full_snapshot->Find("clinical");
  ASSERT_NE(inc, nullptr);
  ASSERT_NE(full, nullptr);
  ASSERT_NE(inc->preagg, nullptr);
  ASSERT_NE(full->preagg, nullptr);
  const MdObject* inc_entry = inc->preagg->Peek(function, grouping);
  const MdObject* full_entry = full->preagg->Peek(function, grouping);
  ASSERT_NE(inc_entry, nullptr) << context;
  ASSERT_NE(full_entry, nullptr) << context;
  auto inc_bytes = io::WriteMo(*inc_entry);
  auto full_bytes = io::WriteMo(*full_entry);
  ASSERT_TRUE(inc_bytes.ok()) << inc_bytes.status();
  ASSERT_TRUE(full_bytes.ok()) << full_bytes.status();
  EXPECT_EQ(*inc_bytes, *full_bytes)
      << context << ": warm " << function.name() << " entries differ";
}

/// Asserts every relation of the incremental store's published epoch
/// carries a dense-id column sealed at publication that equals both a
/// from-scratch build and the fully resealed store's column.
void ExpectColumnsMatch(serve::MoStore& incremental, serve::MoStore& rebuilt,
                        const std::string& context) {
  const auto inc_snapshot = incremental.Pin();
  const auto full_snapshot = rebuilt.Pin();
  const serve::PublishedMo* inc = inc_snapshot->Find("clinical");
  const serve::PublishedMo* full = full_snapshot->Find("clinical");
  ASSERT_NE(inc, nullptr);
  ASSERT_NE(full, nullptr);
  for (std::size_t i = 0; i < inc->mo().dimension_count(); ++i) {
    const FactDimRelation& relation = inc->mo().relation(i);
    const RollupIndex& index = *inc->rollups[i];
    ASSERT_TRUE(testing_fixtures::HasSealedColumn(relation, index))
        << context << ": dimension " << i;
    const ChunkedVector<std::uint32_t>& column =
        *relation.DenseColumn(index.numbering());
    EXPECT_EQ(column, testing_fixtures::FreshColumn(relation, index))
        << context << ": dimension " << i;
    EXPECT_EQ(column, *full->mo().relation(i).DenseColumn(
                          full->rollups[i]->numbering()))
        << context << ": dimension " << i;
  }
}

/// Every read of the read set rendered on `mo` itself — any epoch the
/// caller pins, not only the current one — at 1, 2 and 8 threads.
std::vector<std::string> RenderReads(const MdObject& mo,
                                     std::vector<std::size_t> threads = {
                                         1, 2, 8}) {
  std::vector<std::string> rendered;
  for (std::size_t n : threads) {
    for (const std::string& query : ReadSet()) {
      auto statement = mdql::Parse(query);
      EXPECT_TRUE(statement.ok()) << statement.status();
      ExecContext exec(n, /*min_facts=*/1);
      auto result =
          mdql::ExecuteRead(mo, *statement, mdql::CompileOptions(), &exec);
      rendered.push_back(result.ok() ? result->ToString()
                                     : result.status().ToString());
    }
  }
  return rendered;
}

/// The logical image of every relation of a published epoch: entries,
/// per-fact and per-value entry lists, CSR rows with their entry runs and
/// the dense column under the epoch's numbering. Layout (padding,
/// abandoned runs, chunk boundaries) does not show.
std::string StorageImage(const serve::PublishedMo& entry) {
  const MdObject& mo = entry.mo();
  std::string image;
  auto list = [&image](FactDimRelation::EntrySpan indexes) {
    for (std::size_t k : indexes) image += StrCat(k, " ");
    image += ";";
  };
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const FactDimRelation& relation = mo.relation(i);
    image += StrCat("\nrelation ", i, " entries:");
    for (const FactDimRelation::Entry& e : relation.entries()) {
      image += StrCat(e.fact, ",", e.value, ",", e.life.ToString(), ",",
                      e.prob, ";");
    }
    image += "\nby fact:";
    for (FactId fact : mo.facts()) list(relation.EntryIndexesForFact(fact));
    image += "\nby value:";
    for (ValueId value : mo.dimension(i).AllValues()) {
      list(relation.EntryIndexesForValue(value));
    }
    image += "\nrows:";
    for (const FactDimRelation::FactSpan& span : relation.FactSpans()) {
      image += StrCat(span.fact, ":");
      list(relation.SpanEntries(span));
    }
    image += "\ncolumn:";
    const ChunkedVector<std::uint32_t>* column =
        relation.DenseColumn(entry.rollups[i]->numbering());
    if (column == nullptr) {
      image += "none";
      continue;
    }
    for (std::uint32_t slot : *column) image += StrCat(slot, " ");
  }
  return image;
}

/// A from-scratch copy of `mo`: dimensions copied unfrozen and without a
/// compiled snapshot, relations rebuilt entry by entry, so no chunk, CSR
/// layout, dense column or rollup snapshot carries over.
MdObject FromScratch(const MdObject& mo) {
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    dimensions.push_back(mo.dimension(i));
    dimensions.back().set_publish_frozen(false);
    dimensions.back().set_compiled_snapshot_slot(nullptr);
  }
  MdObject fresh(mo.schema().fact_type(), std::move(dimensions),
                 FactRegistry::ForkOf(mo.registry()), mo.temporal_type());
  for (FactId fact : mo.facts()) EXPECT_TRUE(fresh.AddFact(fact).ok());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    for (const FactDimRelation::Entry& e : mo.relation(i).entries()) {
      EXPECT_TRUE(
          fresh.relation_mutable(i).Add(e.fact, e.value, e.life, e.prob).ok());
    }
  }
  return fresh;
}

/// The AppendBatch differential: an incremental store (patched seals)
/// and a rebuilt one (Mutate, full seals) receive the same batches; after
/// each, the two must render, warm and column identically, and the new
/// epoch must match a from-scratch build of its MO. Every epoch stays
/// pinned, and at the end each must still read exactly as it did when it
/// was published — later drafts share its chunks and must never write
/// into them.
class AppendDifferential {
 public:
  explicit AppendDifferential(const ClinicalWorkloadParams& params)
      : clinical_(Build(params)),
        lows_(clinical_.num_low_level),
        areas_(params.num_regions * params.counties_per_region *
               params.areas_per_county),
        grouping_(RegionGrouping(clinical_)) {
    MdObject seed_inc = clinical_.mo;
    MdObject seed_full = clinical_.mo;
    EXPECT_TRUE(incremental_.Publish("clinical", std::move(seed_inc)).ok());
    EXPECT_TRUE(rebuilt_.Publish("clinical", std::move(seed_full)).ok());
    // Warm pre-aggregates on BOTH stores: the incremental one delta-folds
    // them on every appended epoch, the rebuilt one rescans — the Peek'd
    // and queried results must agree anyway.
    for (serve::MoStore* store : {&incremental_, &rebuilt_}) {
      EXPECT_TRUE(
          store->WarmAggregate("clinical", AggFunction::SetCount(), grouping_)
              .ok());
    }
  }

  const ClinicalMo& clinical() const { return clinical_; }
  serve::MoStore& incremental() { return incremental_; }
  const ExecStats& append_stats() const { return append_stats_; }

  /// Appends `count` new patients. With `grow_leaf` the batch also grows
  /// the Diagnosis dimension by a fresh leaf under an existing family and
  /// characterizes one more new patient by it — the "new leaf values are
  /// fine" clause of the append gate, and the path that patches (rather
  /// than reuses) the rollup snapshot.
  void Append(std::size_t count, bool grow_leaf) {
    const std::string context = StrCat("batch ", batches_);
    auto parsed = mdql::Parse(BulkInsert(next_key_, count, lows_, areas_));
    next_key_ += count;
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_TRUE(parsed->insert.has_value());
    const std::uint64_t leaf_key = 92000000 + batches_;
    auto appender = [&](MdObject& draft) -> Status {
      MDDC_RETURN_NOT_OK(mdql::ApplyInsert(draft, *parsed->insert).status());
      if (!grow_leaf) return Status::OK();
      Dimension& dim = draft.dimension_mutable(clinical_.diagnosis_dim);
      // AddValueAuto keeps the value append-classified (an explicit id
      // below the dimension's high-water mark would count as structural
      // and demote the batch); both stores run the identical appender on
      // identical drafts, so the auto ids — and their rendered id:<raw>
      // labels — agree byte-for-byte.
      MDDC_ASSIGN_OR_RETURN(const ValueId leaf,
                            dim.AddValueAuto(clinical_.low_level));
      MDDC_RETURN_NOT_OK(
          dim.AddOrder(leaf, dim.ValuesIn(clinical_.family).front()));
      const FactId fact = draft.registry()->Atom(leaf_key);
      MDDC_RETURN_NOT_OK(draft.AddFact(fact));
      MDDC_RETURN_NOT_OK(draft.Relate(clinical_.diagnosis_dim, fact, leaf));
      return draft.CoverWithTop();
    };
    ASSERT_TRUE(incremental_
                    .AppendBatch("clinical", appender, /*published_epoch=*/
                                 nullptr, &append_stats_)
                    .ok())
        << context;
    ASSERT_TRUE(rebuilt_.Mutate("clinical", appender).ok()) << context;
    ++batches_;

    ExpectReadsMatch(incremental_, rebuilt_, context);
    ExpectWarmEntriesMatch(incremental_, rebuilt_, AggFunction::SetCount(),
                           grouping_, context);
    ExpectColumnsMatch(incremental_, rebuilt_, context);

    Retained epoch{incremental_.Pin(), {}, {}};
    const serve::PublishedMo* entry = epoch.snapshot->Find("clinical");
    ASSERT_NE(entry, nullptr);
    serve::MoStore scratch;
    ASSERT_TRUE(scratch.Publish("clinical", FromScratch(entry->mo())).ok());
    const auto scratch_snapshot = scratch.Pin();
    const serve::PublishedMo* fresh = scratch_snapshot->Find("clinical");
    epoch.reads = RenderReads(entry->mo());
    epoch.image = StorageImage(*entry);
    EXPECT_EQ(epoch.reads, RenderReads(fresh->mo())) << context;
    EXPECT_EQ(epoch.image, StorageImage(*fresh)) << context;
    auto bytes = io::WriteMo(entry->mo());
    auto fresh_bytes = io::WriteMo(fresh->mo());
    ASSERT_TRUE(bytes.ok() && fresh_bytes.ok());
    EXPECT_EQ(*bytes, *fresh_bytes) << context;
    retained_.push_back(std::move(epoch));
  }

  /// Every pinned epoch still renders and stores exactly what it did when
  /// it was published.
  void ExpectRetainedEpochsUnchanged() const {
    for (std::size_t e = 0; e < retained_.size(); ++e) {
      const serve::PublishedMo* entry = retained_[e].snapshot->Find("clinical");
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(RenderReads(entry->mo()), retained_[e].reads) << "epoch " << e;
      EXPECT_EQ(StorageImage(*entry), retained_[e].image) << "epoch " << e;
    }
  }

 private:
  struct Retained {
    std::shared_ptr<const serve::MoSnapshot> snapshot;
    std::vector<std::string> reads;
    std::string image;
  };

  ClinicalMo clinical_;
  std::size_t lows_;
  std::size_t areas_;
  std::vector<CategoryTypeIndex> grouping_;
  serve::MoStore incremental_;
  serve::MoStore rebuilt_;
  ExecStats append_stats_;
  std::size_t batches_ = 0;
  std::uint64_t next_key_ = 91000000;
  std::vector<Retained> retained_;
};

TEST(IngestDifferentialTest, AppendedEpochsMatchFullRebuild) {
  AppendDifferential differential(SmallParams(300));
  const std::size_t kBatches = 5;
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    differential.Append(4 + batch, /*grow_leaf=*/batch == 1 || batch == 3);
  }
  differential.ExpectRetainedEpochsUnchanged();

  // Every batch took the fast path...
  const serve::MoStore::Stats stats =
      differential.incremental().CollectStats();
  EXPECT_EQ(stats.append_batches, kBatches);
  EXPECT_EQ(stats.append_fallbacks, 0u);
  // ...and the patched seal actually patched: CSR tails spliced every
  // batch, rollups patched on the leaf-growing batches, warm
  // pre-aggregates delta-folded rather than rescanned.
  const ExecStats& append_stats = differential.append_stats();
  EXPECT_GT(append_stats.csr_tail_extends, 0u);
  EXPECT_GT(append_stats.rollup_patches, 0u);
  EXPECT_GT(append_stats.preagg_folds, 0u);
}

// The same differential with batches sized so that the Diagnosis
// relation's entries, and then every relation's CSR rows (one per fact),
// end one entry before, exactly at and one past a chunk boundary: the
// tail chunk a draft shares with its epoch is partly filled, filled
// exactly, and overflowed into a new chunk.
TEST(IngestDifferentialTest, AppendedEpochsMatchFullRebuildAcrossChunkBoundaries) {
  constexpr std::size_t C = ChunkedVector<FactDimRelation::Entry>::kChunkSize;
  AppendDifferential differential(SmallParams(300));
  const std::size_t diagnosis = differential.clinical().diagnosis_dim;
  for (std::size_t batch = 0; batch < 6; ++batch) {
    const auto snapshot = differential.incremental().Pin();
    const MdObject& mo = snapshot->Find("clinical")->mo();
    const bool by_entries = batch < 3;
    const std::size_t count =
        by_entries ? mo.relation(diagnosis).size() : mo.fact_count();
    // Each patient adds one Diagnosis entry and one row; the first batch
    // of each triple also grows a leaf, which adds one more of each.
    const bool grow_leaf = batch % 3 == 0;
    std::size_t target = count + 1;
    if (batch % 3 == 0) {
      target = (count / C + 1) * C - 1;
      if (target < count + 2) target += C;
    }
    SCOPED_TRACE(StrCat("batch ", batch, ": ", count, " -> ", target));
    differential.Append(target - count - (grow_leaf ? 1 : 0), grow_leaf);
    const auto after = differential.incremental().Pin();
    const MdObject& grown = after->Find("clinical")->mo();
    EXPECT_EQ(by_entries ? grown.relation(diagnosis).size()
                         : grown.fact_count(),
              target);
  }
  differential.ExpectRetainedEpochsUnchanged();
  const serve::MoStore::Stats stats =
      differential.incremental().CollectStats();
  EXPECT_EQ(stats.append_batches, 6u);
  EXPECT_EQ(stats.append_fallbacks, 0u);
}

// An appended epoch shares its predecessor's storage: every dimension
// the batch left alone is the very same object, and every relation keeps
// sharing each full chunk — a batch clones the tail chunks it writes
// into, not the MO. A DELETE rebuilds the relations it rewrote.
TEST(IngestSharingTest, AppendedEpochsShareAllButTheirTailChunks) {
  constexpr std::size_t C = ChunkedVector<FactDimRelation::Entry>::kChunkSize;
  const ClinicalWorkloadParams params = SmallParams(3000);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;
  const std::size_t diagnosis = clinical.diagnosis_dim;
  const std::size_t low_level = clinical.low_level;
  const std::size_t family = clinical.family;
  const std::vector<CategoryTypeIndex> grouping = RegionGrouping(clinical);
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());
  ASSERT_TRUE(
      store.WarmAggregate("clinical", AggFunction::SetCount(), grouping).ok());

  for (std::size_t batch = 0; batch < 6; ++batch) {
    SCOPED_TRACE(StrCat("batch ", batch));
    const auto before = store.Pin();
    const serve::PublishedMo& prev = *before->Find("clinical");
    // Batch 2 also grows a Diagnosis leaf: that dimension is cloned.
    const bool grow_leaf = batch == 2;
    auto parsed =
        mdql::Parse(BulkInsert(96000000 + batch * 100, 5, lows, areas));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_TRUE(store
                    .AppendBatch("clinical",
                                 [&](MdObject& draft) -> Status {
                                   MDDC_RETURN_NOT_OK(
                                       mdql::ApplyInsert(draft,
                                                         *parsed->insert)
                                           .status());
                                   if (!grow_leaf) return Status::OK();
                                   Dimension& dim =
                                       draft.dimension_mutable(diagnosis);
                                   MDDC_ASSIGN_OR_RETURN(
                                       const ValueId leaf,
                                       dim.AddValueAuto(low_level));
                                   return dim.AddOrder(
                                       leaf, dim.ValuesIn(family).front());
                                 })
                    .ok());
    const auto after = store.Pin();
    const serve::PublishedMo& next = *after->Find("clinical");
    ASSERT_EQ(store.CollectStats().append_fallbacks, 0u);
    for (std::size_t i = 0; i < next.mo().dimension_count(); ++i) {
      const bool touched = grow_leaf && i == diagnosis;
      EXPECT_EQ(&next.mo().dimension(i) == &prev.mo().dimension(i), !touched)
          << "dimension " << i;
      const FactDimRelation& old_rel = prev.mo().relation(i);
      const FactDimRelation& new_rel = next.mo().relation(i);
      ASSERT_GT(old_rel.chunk_count(), 12u) << "too small to show sharing";
      // The full chunks of the entries, the CSR rows and the column are
      // shared; the partly filled tail each was appended to is not.
      EXPECT_EQ(new_rel.entries().SharedChunksWith(old_rel.entries()),
                old_rel.size() / C)
          << "relation " << i;
      EXPECT_EQ(new_rel.FactSpans().SharedChunksWith(old_rel.FactSpans()),
                old_rel.FactSpans().size() / C)
          << "relation " << i;
      const ChunkedVector<std::uint32_t>* old_column =
          old_rel.DenseColumn(prev.rollups[i]->numbering());
      const ChunkedVector<std::uint32_t>* new_column =
          new_rel.DenseColumn(next.rollups[i]->numbering());
      ASSERT_NE(old_column, nullptr);
      ASSERT_NE(new_column, nullptr);
      EXPECT_EQ(new_column->SharedChunksWith(*old_column),
                old_column->size() / C)
          << "relation " << i;
      // Every chunked array (entries, two key and two list arrays, the
      // CSR rows and runs, the column) un-shares at most its tail.
      EXPECT_LE(old_rel.chunk_count() - new_rel.SharedChunksWith(old_rel),
                8u)
          << "relation " << i;
    }
  }

  // A DELETE restricts every relation: nothing of it is shared anymore.
  // The dimensions it did not touch still are.
  const auto before = store.Pin();
  const serve::PublishedMo& prev = *before->Find("clinical");
  auto parsed = mdql::Parse("DELETE FROM clinical FACT 96000101");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(store
                  .AppendBatch("clinical",
                               [&](MdObject& draft) {
                                 return mdql::ApplyDelete(draft, *parsed->del)
                                     .status();
                               })
                  .ok());
  EXPECT_EQ(store.CollectStats().append_fallbacks, 1u);
  const auto after = store.Pin();
  const serve::PublishedMo& next = *after->Find("clinical");
  ASSERT_EQ(next.mo().fact_count() + 1, prev.mo().fact_count());
  for (std::size_t i = 0; i < next.mo().dimension_count(); ++i) {
    EXPECT_EQ(&next.mo().dimension(i), &prev.mo().dimension(i));
    EXPECT_EQ(next.mo().relation(i).SharedChunksWith(prev.mo().relation(i)),
              0u)
        << "relation " << i;
  }
}

// Readers pinned on an epoch re-render its reads byte-identically while
// the writer publishes epochs that share its chunks: appends that land in
// the tail chunks the epoch shares, then a DELETE that rebuilds every
// relation. Run under ThreadSanitizer (label tsan), a store into a chunk
// a reader holds is a reported race.
TEST(IngestConcurrencyTest, PinnedReadersRerenderWhileDraftsShareTheirChunks) {
  constexpr std::size_t C = ChunkedVector<FactDimRelation::Entry>::kChunkSize;
  constexpr int kReaders = 3;
  const ClinicalWorkloadParams params = SmallParams(600);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());

  for (const bool rebuild : {false, true}) {
    SCOPED_TRACE(rebuild ? "delete" : "append");
    const auto pinned = store.Pin();
    const MdObject& mo = pinned->Find("clinical")->mo();
    if (!rebuild) {
      // Two batches of 2 patients stay inside every tail chunk.
      ASSERT_LT(mo.fact_count() % C + 4, C);
      for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
        ASSERT_LT(mo.relation(i).size() % C + 4, C);
      }
    }
    const std::vector<std::string> expected = RenderReads(mo, {1});
    std::atomic<bool> done{false};
    std::atomic<int> started{0};
    std::vector<int> mismatches(kReaders, 0);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        bool first = true;
        do {
          if (RenderReads(mo, {1}) != expected) ++mismatches[r];
          if (first) started.fetch_add(1);
          first = false;
        } while (!done.load());
      });
    }
    while (started.load() < kReaders) std::this_thread::yield();
    if (!rebuild) {
      for (std::uint64_t base : {97000000u, 97000100u}) {
        auto parsed = mdql::Parse(BulkInsert(base, 2, lows, areas));
        ASSERT_TRUE(parsed.ok()) << parsed.status();
        ASSERT_TRUE(store
                        .AppendBatch("clinical",
                                     [&](MdObject& draft) {
                                       return mdql::ApplyInsert(
                                                  draft, *parsed->insert)
                                           .status();
                                     })
                        .ok());
      }
    } else {
      auto parsed = mdql::Parse("DELETE FROM clinical FACT 97000001");
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      ASSERT_TRUE(store
                      .AppendBatch("clinical",
                                   [&](MdObject& draft) {
                                     return mdql::ApplyDelete(draft,
                                                              *parsed->del)
                                         .status();
                                   })
                      .ok());
    }
    done.store(true);
    for (std::thread& reader : readers) reader.join();
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(mismatches[r], 0) << "reader " << r;
    }
  }
  const serve::MoStore::Stats stats = store.CollectStats();
  EXPECT_EQ(stats.append_batches, 2u);
  EXPECT_EQ(stats.append_fallbacks, 1u);
  EXPECT_EQ(stats.live_snapshots, 1u);
}

TEST(IngestDifferentialTest, StructuralMutationMidStreamFallsBack) {
  const ClinicalWorkloadParams params = SmallParams(200);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;

  MdObject seed_inc = clinical.mo;
  MdObject seed_full = clinical.mo;
  serve::MoStore incremental;
  serve::MoStore rebuilt;
  ASSERT_TRUE(incremental.Publish("clinical", std::move(seed_inc)).ok());
  ASSERT_TRUE(rebuilt.Publish("clinical", std::move(seed_full)).ok());
  const auto grouping = RegionGrouping(clinical);
  ASSERT_TRUE(incremental
                  .WarmAggregate("clinical", AggFunction::SetCount(), grouping)
                  .ok());
  ASSERT_TRUE(
      rebuilt.WarmAggregate("clinical", AggFunction::SetCount(), grouping)
          .ok());

  // Both stores receive the identical operation stream, the incremental
  // one always through AppendBatch — which must demote itself to a full
  // seal on the two structural operations and resume patching after.
  std::vector<std::function<Status(MdObject&)>> stream;
  auto insert_op = [&](std::uint64_t base, std::size_t count) {
    auto parsed = mdql::Parse(BulkInsert(base, count, lows, areas));
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    stream.push_back([parsed = std::move(*parsed)](MdObject& draft) -> Status {
      return mdql::ApplyInsert(draft, *parsed.insert).status();
    });
  };
  insert_op(93000000, 4);
  insert_op(93000100, 3);
  // Structural op 1: DELETE one of the facts appended above.
  {
    auto parsed = mdql::Parse("DELETE FROM clinical FACT 93000001");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    stream.push_back([parsed = std::move(*parsed)](MdObject& draft) -> Status {
      return mdql::ApplyDelete(draft, *parsed.del).status();
    });
  }
  insert_op(93000200, 4);
  // Structural op 2: re-characterize an already-published fact (a new
  // relation entry referencing an old fact fails the append gate).
  stream.push_back([&](MdObject& draft) -> Status {
    Dimension& dim = draft.dimension_mutable(clinical.diagnosis_dim);
    // The leaf itself is append-classified (auto id); the relation entry
    // for the long-published patient 1 is what fails the gate.
    MDDC_ASSIGN_OR_RETURN(const ValueId leaf,
                          dim.AddValueAuto(clinical.low_level));
    MDDC_RETURN_NOT_OK(
        dim.AddOrder(leaf, dim.ValuesIn(clinical.family).front()));
    return draft.Relate(clinical.diagnosis_dim, draft.registry()->Atom(1),
                        leaf);
  });
  insert_op(93000300, 5);

  for (std::size_t op = 0; op < stream.size(); ++op) {
    ASSERT_TRUE(incremental.AppendBatch("clinical", stream[op]).ok())
        << "op " << op;
    ASSERT_TRUE(rebuilt.Mutate("clinical", stream[op]).ok()) << "op " << op;
    ExpectReadsMatch(incremental, rebuilt, StrCat("op ", op));
    ExpectWarmEntriesMatch(incremental, rebuilt, AggFunction::SetCount(),
                           grouping, StrCat("op ", op));
  }

  const serve::MoStore::Stats stats = incremental.CollectStats();
  EXPECT_EQ(stats.append_batches, 4u);   // the four pure-append inserts
  EXPECT_EQ(stats.append_fallbacks, 2u);  // delete + old-fact re-relate
}

TEST(IngestDifferentialTest, WidenedPublishedLifespanFallsBack) {
  const ClinicalWorkloadParams params = SmallParams(150);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;

  // A published diagnosis pair whose valid time is bounded, on a
  // low-level value no other patient has: its group's link lifespan is
  // exactly the pair's, so a stale fold would show in the warm entry.
  const MdObject& mo = clinical.mo;
  const FactDimRelation& relation = mo.relation(clinical.diagnosis_dim);
  const Dimension& diagnosis = mo.dimension(clinical.diagnosis_dim);
  std::size_t chosen = relation.size();
  for (std::size_t e = 0; e < relation.size() && chosen == relation.size();
       ++e) {
    const FactDimRelation::Entry& entry = relation.entries()[e];
    auto category = diagnosis.CategoryOf(entry.value);
    auto membership = diagnosis.MembershipOf(entry.value);
    if (category.ok() && *category == clinical.low_level &&
        membership.ok() && membership->IsAlways() &&
        !entry.life.IsAlways() &&
        relation.EntryIndexesForValue(entry.value).size() == 1) {
      chosen = e;
    }
  }
  ASSERT_LT(chosen, relation.size());
  const FactDimRelation::Entry widened = relation.entries()[chosen];
  const Lifespan earlier{
      TemporalElement(Interval(*ParseDate("01/01/60"), *ParseDate("31/12/60"))),
      widened.life.transaction};

  MdObject seed_inc = clinical.mo;
  MdObject seed_full = clinical.mo;
  serve::MoStore incremental;
  serve::MoStore rebuilt;
  ASSERT_TRUE(incremental.Publish("clinical", std::move(seed_inc)).ok());
  ASSERT_TRUE(rebuilt.Publish("clinical", std::move(seed_full)).ok());
  std::vector<CategoryTypeIndex> by_low(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    by_low[i] = mo.dimension(i).type().top();
  }
  by_low[clinical.diagnosis_dim] = clinical.low_level;
  for (serve::MoStore* store : {&incremental, &rebuilt}) {
    ASSERT_TRUE(
        store->WarmAggregate("clinical", AggFunction::SetCount(), by_low).ok());
  }

  // New facts plus an in-place coalesce on the published pair: the same
  // (fact, value) re-related with an earlier valid time unions into the
  // existing entry instead of appending one.
  auto parsed = mdql::Parse(BulkInsert(95000000, 4, lows, areas));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto appender = [&](MdObject& draft) -> Status {
    MDDC_RETURN_NOT_OK(mdql::ApplyInsert(draft, *parsed->insert).status());
    const std::size_t before = draft.relation(clinical.diagnosis_dim).size();
    MDDC_RETURN_NOT_OK(draft.Relate(clinical.diagnosis_dim, widened.fact,
                                    widened.value, earlier, widened.prob));
    if (draft.relation(clinical.diagnosis_dim).size() != before) {
      return Status::InvariantViolation("the re-relate did not coalesce");
    }
    return Status::OK();
  };
  ASSERT_TRUE(incremental.AppendBatch("clinical", appender).ok());
  ASSERT_TRUE(rebuilt.Mutate("clinical", appender).ok());

  const serve::MoStore::Stats stats = incremental.CollectStats();
  EXPECT_EQ(stats.append_batches, 0u);
  EXPECT_EQ(stats.append_fallbacks, 1u);
  ExpectReadsMatch(incremental, rebuilt, "widened");
  ExpectWarmEntriesMatch(incremental, rebuilt, AggFunction::SetCount(),
                         by_low, "widened");

  // Re-relating the same pair with a lifespan it already covers is an
  // idempotent coalesce, not an edit: the batch stays on the append path.
  auto parsed_again = mdql::Parse(BulkInsert(95000100, 2, lows, areas));
  ASSERT_TRUE(parsed_again.ok()) << parsed_again.status();
  auto idempotent = [&](MdObject& draft) -> Status {
    MDDC_RETURN_NOT_OK(
        mdql::ApplyInsert(draft, *parsed_again->insert).status());
    return draft.Relate(clinical.diagnosis_dim, widened.fact, widened.value,
                        earlier, widened.prob);
  };
  ASSERT_TRUE(incremental.AppendBatch("clinical", idempotent).ok());
  ASSERT_TRUE(rebuilt.Mutate("clinical", idempotent).ok());
  EXPECT_EQ(incremental.CollectStats().append_batches, 1u);
  EXPECT_EQ(incremental.CollectStats().append_fallbacks, 1u);
  ExpectReadsMatch(incremental, rebuilt, "idempotent");
  ExpectWarmEntriesMatch(incremental, rebuilt, AggFunction::SetCount(),
                         by_low, "idempotent");
}

// ---- Registry growth ------------------------------------------------------

/// The (fact, group) incidences a warm entry holds: the sum of its group
/// facts' member counts.
std::size_t Incidences(const MdObject& entry) {
  std::size_t total = 0;
  for (FactId group : entry.facts()) {
    total += entry.registry()->ShapeOfSet(group).value().count;
  }
  return total;
}

// An append epoch must store member ids for the batch, not the history: a
// fold interns each grown group as an extension of its previous set fact,
// so the published registry's stored member ids grow by at most the
// (delta fact, group) incidences the folds added. Interning each grown
// group's whole member list instead stores ~every warm entry's member
// count again per epoch and fails the bound.
TEST(IngestGrowthTest, EpochsStoreOnlyTheBatchesMemberIds) {
  const ClinicalWorkloadParams params = SmallParams(400);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;
  std::vector<std::vector<CategoryTypeIndex>> groupings;
  for (CategoryTypeIndex level :
       {clinical.region, clinical.county, clinical.area}) {
    groupings.push_back(RegionGrouping(clinical));
    groupings.back()[clinical.residence_dim] = level;
  }

  serve::MoStore store;
  ASSERT_TRUE(store.Publish("clinical", clinical.mo).ok());
  for (const auto& grouping : groupings) {
    ASSERT_TRUE(
        store.WarmAggregate("clinical", AggFunction::SetCount(), grouping)
            .ok());
  }
  auto measure = [&](std::size_t* stored, std::size_t* incidences) {
    const auto snapshot = store.Pin();
    const serve::PublishedMo* entry = snapshot->Find("clinical");
    ASSERT_NE(entry, nullptr);
    ASSERT_NE(entry->preagg, nullptr);
    *stored = entry->mo().registry()->stored_member_ids();
    *incidences = 0;
    for (const auto& grouping : groupings) {
      const MdObject* warm =
          entry->preagg->Peek(AggFunction::SetCount(), grouping);
      ASSERT_NE(warm, nullptr);
      *incidences += Incidences(*warm);
    }
  };
  std::size_t stored = 0;
  std::size_t incidences = 0;
  measure(&stored, &incidences);

  constexpr std::size_t kEpochs = 20;
  ExecStats append_stats;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    auto parsed =
        mdql::Parse(BulkInsert(93000000 + epoch * 100, 16, lows, areas));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_TRUE(store
                    .AppendBatch(
                        "clinical",
                        [&](MdObject& draft) {
                          return mdql::ApplyInsert(draft, *parsed->insert)
                              .status();
                        },
                        /*published_epoch=*/nullptr, &append_stats)
                    .ok())
        << "epoch " << epoch;
    std::size_t next_stored = 0;
    std::size_t next_incidences = 0;
    measure(&next_stored, &next_incidences);
    const std::size_t added = next_incidences - incidences;
    EXPECT_GE(added, 3 * 16u) << "epoch " << epoch;
    EXPECT_LE(next_stored - stored, added) << "epoch " << epoch;
    stored = next_stored;
    incidences = next_incidences;
  }
  const serve::MoStore::Stats stats = store.CollectStats();
  EXPECT_EQ(stats.append_batches, kEpochs);
  EXPECT_EQ(stats.append_fallbacks, 0u);
  // Every draft copied the published registry, sharing its chunks;
  // nothing flattened it.
  EXPECT_EQ(stats.registry_flattens, 0u);
  EXPECT_EQ(append_stats.preagg_folds, groupings.size() * kEpochs);
  EXPECT_EQ(append_stats.preagg_fold_invalidations, 0u);
}

TEST(ServerSessionIngestTest, RoutesInsertsThroughAppendPath) {
  const ClinicalWorkloadParams params = SmallParams(150);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;

  serve::MoStore store;
  serve::MdqlServer server(&store);
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());
  serve::ServerSession session = server.Connect();

  // A bulk INSERT acks one row per fact and publishes ONE epoch through
  // the append fast path.
  const std::uint64_t epoch_before = store.epoch();
  auto ack = session.Execute(BulkInsert(94000000, 3, lows, areas));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->rows.size(), 3u);
  EXPECT_EQ(store.epoch(), epoch_before + 1);
  EXPECT_EQ(store.CollectStats().append_batches, 1u);
  EXPECT_EQ(store.CollectStats().append_fallbacks, 0u);

  // DELETE routes through the full-rebuild writer and says so.
  auto del = session.Execute("DELETE FROM clinical FACT 94000001");
  ASSERT_TRUE(del.ok()) << del.status();
  ASSERT_EQ(del->rows.size(), 1u);
  EXPECT_NE(del->rows[0][2].find("full-rebuild"), std::string::npos);
  EXPECT_EQ(store.CollectStats().append_batches, 1u);
}

TEST(ServerSessionIngestTest, AdvisorWarmsTheSessionsHotGroupings) {
  const ClinicalWorkloadParams params = SmallParams(150);
  ClinicalMo clinical = Build(params);
  const auto grouping = RegionGrouping(clinical);

  serve::MoStore store;
  serve::MdqlServer server(&store);
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());
  serve::ServerSession session = server.Connect();

  // No log yet: advising is a no-op, nothing published.
  const std::uint64_t epoch_before = store.epoch();
  ASSERT_TRUE(session.AdviseWarmAggregates("clinical").ok());
  EXPECT_EQ(store.epoch(), epoch_before);

  // A hot grouping accumulates in the query log...
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        session.Execute("SELECT COUNT FROM clinical BY Residence.Region")
            .ok());
  }
  // ...and the advisor turns it into a warm spec: a new epoch whose
  // snapshot can Peek the aggregate without computing.
  ASSERT_TRUE(session.AdviseWarmAggregates("clinical").ok());
  EXPECT_GT(store.epoch(), epoch_before);
  const auto snapshot = store.Pin();
  const serve::PublishedMo* entry = snapshot->Find("clinical");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->preagg, nullptr);
  EXPECT_NE(entry->preagg->Peek(AggFunction::SetCount(), grouping), nullptr);

  // Re-advising the same log is idempotent: no churn epoch.
  const std::uint64_t epoch_after = store.epoch();
  ASSERT_TRUE(session.AdviseWarmAggregates("clinical").ok());
  EXPECT_EQ(store.epoch(), epoch_after);
}

}  // namespace
}  // namespace mddc
