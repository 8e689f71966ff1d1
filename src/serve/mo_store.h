#ifndef MDDC_SERVE_MO_STORE_H_
#define MDDC_SERVE_MO_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/agg_function.h"
#include "common/result.h"
#include "core/md_object.h"
#include "engine/preagg_cache.h"
#include "engine/rollup_index.h"

namespace mddc {
namespace serve {

/// One pre-aggregate to keep warm in every published snapshot of an MO:
/// the snapshot's PreAggregateCache materializes it before publication,
/// so concurrent readers can Peek it without ever computing.
struct WarmSpec {
  AggFunction function;
  std::vector<CategoryTypeIndex> grouping;
};

/// Everything a published MO bundles for lock-free reading: the MO
/// itself (closure memos warmed, every dimension publish-frozen, fact
/// registry sealed), the compiled rollup snapshot of each dimension, and
/// an optional pre-aggregate cache holding the warm specs. All of it is
/// immutable after publication; readers share it by shared_ptr.
struct PublishedMo {
  /// The sealed MO, shared with the epoch's PreAggregateCache (its base
  /// is this very object), so sealing an epoch never duplicates the MO.
  std::shared_ptr<const MdObject> shared_mo;
  std::vector<std::shared_ptr<const RollupIndex>> rollups;  // per dimension
  std::shared_ptr<const PreAggregateCache> preagg;  // null when no warm specs

  const MdObject& mo() const { return *shared_mo; }
};

/// An immutable, epoch-stamped catalog of published MOs. Obtained from
/// MoStore::Pin() with one shared_ptr copy; valid for as long as the
/// caller holds the shared_ptr, no matter how many epochs the writer
/// publishes meanwhile.
class MoSnapshot {
 public:
  std::uint64_t epoch() const { return epoch_; }

  /// The published entry for `name`, or nullptr. The pointer shares the
  /// snapshot's lifetime.
  const PublishedMo* Find(const std::string& name) const;

  std::vector<std::string> names() const;
  std::size_t size() const { return catalog_.size(); }

 private:
  friend class MoStore;
  std::uint64_t epoch_ = 0;
  std::map<std::string, std::shared_ptr<const PublishedMo>> catalog_;
};

/// The MVCC publication point of the serving tier (docs/serving.md).
///
/// Readers call Pin() — one shared_ptr copy under a mutex that guards
/// nothing else — and then query the pinned MoSnapshot for as long as
/// they like; everything reachable from it is immutable. Writers are
/// serialized on a single mutex and never touch published state: they
/// clone-or-patch a draft off to the side (forking the fact registry so
/// not even interning is shared), re-seal it (closure memos warmed,
/// rollup snapshots compiled, dimensions publish-frozen, warm
/// pre-aggregates materialized) and exchange the new snapshot in under
/// the pin mutex, whose unlock/lock pair is the only synchronization
/// between writers and readers (docs/serving.md says why it is not a
/// std::atomic<std::shared_ptr>).
///
/// Retired epochs are reclaimed by shared_ptr: when the last pinned
/// reader drops its snapshot, the epoch's memory goes with it. The store
/// keeps weak observers of retired epochs only for CollectStats().
class MoStore {
 public:
  MoStore();

  /// The current snapshot: one shared_ptr copy under pin_mu_, which is
  /// only ever held for one such copy or exchange. Hold the result for
  /// the duration of one query (or one batch) and re-Pin to observe
  /// newer epochs.
  std::shared_ptr<const MoSnapshot> Pin() const {
    std::lock_guard<std::mutex> lock(pin_mu_);
    return current_;
  }

  /// Epoch of the current snapshot.
  std::uint64_t epoch() const { return Pin()->epoch(); }

  /// Publishes `mo` under `name` in a new epoch. The MO's registry is
  /// copied into a private sealed one (FactRegistry::ForkOf, sharing its
  /// chunks), so the caller's registry is never shared with readers.
  /// Fails if the name is already published.
  Status Publish(std::string name, MdObject mo);

  /// Removes `name` in a new epoch, with its warm specs. Pinned
  /// snapshots still see it.
  Status Drop(const std::string& name);

  /// Applies `mutator` to a draft copy of the published MO and swaps the
  /// re-sealed result in as a new epoch. Mutations are serialized; the
  /// draft's registry is a copy of the published one that shares its
  /// chunks (FactRegistry::ForkOf), so concurrent readers never observe
  /// interning.
  /// If the mutator fails the draft is discarded and no epoch is
  /// published.
  ///
  /// On success `published_epoch` (optional) receives the exact epoch
  /// this mutation produced. Reading `epoch()` after Mutate returns is
  /// not equivalent under concurrent writers — another mutation may have
  /// published in between — and the stress harness's differential oracle
  /// needs the exact write→epoch mapping to replay writes in epoch order.
  Status Mutate(const std::string& name,
                const std::function<Status(MdObject&)>& mutator,
                std::uint64_t* published_epoch = nullptr);

  /// The batched-append fast path of continuous ingestion
  /// (docs/ingestion.md). Like Mutate, but when the applied draft turns
  /// out to be the published MO *plus appended facts only* — the fact
  /// list grew at the tail, every new relation entry references a new
  /// fact, and no dimension changed structurally (new leaf values under
  /// existing categories are fine) — the new epoch is sealed by patching:
  /// rollup snapshots extend in place, the relations' CSR span views
  /// splice the appended tail, and the warm pre-aggregates delta-fold
  /// only the new facts' contributions instead of rescanning. A draft
  /// that fails the gate (structural edits, deletes, touched old facts)
  /// silently takes the full Seal path, so AppendBatch is always safe to
  /// call. The gate demotes an appender that adds relation entries for
  /// already-published facts (every appended entry must reference a fact
  /// past the old tail) or widens a published pair's lifespan in place
  /// (a coalescing re-add); an idempotent re-add keeps the fast path.
  ///
  /// `stats` (optional) accumulates the engine counters of the seal —
  /// rollup_patches, csr_tail_extends, preagg_folds,
  /// preagg_fold_invalidations — for telemetry and tests.
  Status AppendBatch(const std::string& name,
                     const std::function<Status(MdObject&)>& appender,
                     std::uint64_t* published_epoch = nullptr,
                     ExecStats* stats = nullptr);

  /// Registers a warm pre-aggregate for `name` and republishes it (new
  /// epoch) with the spec materialized into the snapshot's cache; all
  /// later epochs of the MO keep it warm too.
  Status WarmAggregate(const std::string& name, const AggFunction& function,
                       std::vector<CategoryTypeIndex> grouping);

  struct Stats {
    std::uint64_t epochs_published = 0;  ///< swaps since construction
    /// Always 0: nothing flattens a registry, since a draft's copy
    /// shares the published one's chunks. Kept because perfbench reads
    /// it (serve.registry_flattens_per_write).
    std::uint64_t registry_flattens = 0;
    std::uint64_t reclaimed_snapshots = 0;  ///< retired epochs fully released
    std::size_t live_snapshots = 0;  ///< current + retired-but-still-pinned
    /// Weak observers of retired epochs the store held when asked,
    /// before this call pruned them: the pinned epochs plus reclaimed
    /// ones since the last prune. Swaps prune once the list doubles, so
    /// it stays within twice the pinned epochs (at least 16).
    std::size_t retired_observers = 0;
    std::uint64_t append_batches = 0;    ///< AppendBatch fast-path seals
    std::uint64_t append_fallbacks = 0;  ///< AppendBatch full-Seal fallbacks
  };

  /// Current stats; prunes the retired-epoch observers as a side effect
  /// (as does every swap that finds the observer list doubled since its
  /// last prune; that is where reclaimed_snapshots advances).
  Stats CollectStats() const;

 private:
  /// Re-seals the draft and publishes it as the new epoch's entry for
  /// `name` (null draft = drop). Caller holds writer_mu_.
  Status SwapLocked(const std::string& name,
                    std::shared_ptr<const PublishedMo> entry);

  /// The writer's draft of a published MO: a copy whose registry is an
  /// unsealed copy of the sealed one, sharing its term and member chunks
  /// (FactRegistry::ForkOf). Caller holds writer_mu_.
  MdObject DraftOf(const MdObject& published);

  /// Mutate() body; caller holds writer_mu_.
  Status MutateLocked(const std::string& name,
                      const std::function<Status(MdObject&)>& mutator);

  /// Builds the immutable PublishedMo bundle from a draft: warms closure
  /// memos, compiles rollup snapshots, materializes the warm specs, then
  /// freezes every dimension for publication. Caller holds writer_mu_.
  Result<std::shared_ptr<const PublishedMo>> Seal(
      MdObject mo, const std::vector<WarmSpec>& specs);

  /// Seal variant for a draft that passed the pure-append gate: patches
  /// the published bundle (`prev`) forward instead of recompiling it.
  /// `delta` is the appended fact tail, ascending. Caller holds
  /// writer_mu_.
  Result<std::shared_ptr<const PublishedMo>> SealAppend(
      MdObject mo, const PublishedMo& prev, const std::vector<FactId>& delta,
      const std::vector<WarmSpec>& specs, ExecStats* stats);

  mutable std::mutex writer_mu_;
  mutable std::mutex pin_mu_;  // guards current_ only; never held for work
  std::shared_ptr<const MoSnapshot> current_;  // pin_mu_
  std::map<std::string, std::vector<WarmSpec>> warm_specs_;  // writer_mu_
  /// Drops the observers of fully released epochs, counting them into
  /// reclaimed_. Caller holds writer_mu_.
  void PruneRetiredLocked() const;

  mutable std::vector<std::weak_ptr<const MoSnapshot>> retired_;  // writer_mu_
  std::size_t retired_after_prune_ = 8;        // writer_mu_
  mutable std::uint64_t reclaimed_ = 0;        // writer_mu_
  std::uint64_t epochs_published_ = 0;         // writer_mu_
  std::uint64_t append_batches_ = 0;           // writer_mu_
  std::uint64_t append_fallbacks_ = 0;         // writer_mu_
};

}  // namespace serve
}  // namespace mddc

#endif  // MDDC_SERVE_MO_STORE_H_
