#include "serve/mo_store.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/fact.h"

namespace mddc {
namespace serve {
namespace {

/// The pure-append gate of AppendBatch: true iff `draft` is `published`
/// plus appended facts only. The published fact list must be a prefix of
/// the draft's (facts are sorted, so the tail is then both ascending and
/// above every published id), every relation entry beyond the published
/// count must reference a tail fact, no published entry may have been
/// edited in place (FactDimRelation::first_edited_entry), and no
/// dimension may have changed structurally — new leaf values and edges
/// under them only bump the append version. On success `delta` receives
/// the appended tail.
bool IsPureAppend(const MdObject& published, const MdObject& draft,
                  std::vector<FactId>* delta) {
  const std::vector<FactId>& old_facts = published.facts();
  const std::vector<FactId>& new_facts = draft.facts();
  if (new_facts.size() < old_facts.size()) return false;
  if (!std::equal(old_facts.begin(), old_facts.end(), new_facts.begin())) {
    return false;
  }
  if (published.dimension_count() != draft.dimension_count()) return false;
  for (std::size_t i = 0; i < draft.dimension_count(); ++i) {
    if (draft.dimension(i).structural_version() !=
        published.dimension(i).structural_version()) {
      return false;
    }
    const FactDimRelation& old_rel = published.relation(i);
    const FactDimRelation& new_rel = draft.relation(i);
    if (new_rel.size() < old_rel.size()) return false;
    // An in-place coalesce on a published pair changed its lifespan; a
    // fold would resume from the stale captured state.
    if (new_rel.first_edited_entry() < old_rel.size()) return false;
    for (std::size_t e = old_rel.size(); e < new_rel.size(); ++e) {
      const FactDimRelation::Entry& entry = new_rel.entries()[e];
      if (old_facts.empty() || !(old_facts.back() < entry.fact)) return false;
    }
  }
  delta->assign(new_facts.begin() +
                    static_cast<std::ptrdiff_t>(old_facts.size()),
                new_facts.end());
  return true;
}

/// Re-enables and warms the closure memo of every dimension the draft
/// does not share with a published epoch. A frozen dimension is shared
/// (MdObject's copy constructor) and already warm; no store may land in
/// it, not even of an equal flag value.
void WarmUnfrozenDimensions(const MdObject& mo) {
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const Dimension& dimension = mo.dimension(i);
    if (dimension.publish_frozen()) continue;
    dimension.set_memoization_enabled(true);
    dimension.WarmClosureMemo();
  }
}

/// Compiles `mo`'s rollup snapshots (cached in the still-unfrozen
/// dimensions' slots) and seals every relation's CSR view and dense-id
/// column under them, so readers of the published epoch build neither.
/// A relation whose column was carried over from the published epoch is
/// extended over its appended tail only.
std::vector<std::shared_ptr<const RollupIndex>> CompileForReaders(
    const MdObject& mo, ExecStats* stats) {
  std::vector<std::shared_ptr<const RollupIndex>> rollups;
  rollups.reserve(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    rollups.push_back(RollupIndex::For(mo.dimension(i), stats));
    mo.relation(i).SealDenseColumn(rollups.back()->numbering());
  }
  return rollups;
}

}  // namespace

const PublishedMo* MoSnapshot::Find(const std::string& name) const {
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MoSnapshot::names() const {
  std::vector<std::string> result;
  result.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) result.push_back(name);
  return result;
}

MoStore::MoStore() : current_(std::make_shared<MoSnapshot>()) {}

Result<std::shared_ptr<const PublishedMo>> MoStore::Seal(
    MdObject draft, const PublishedMo* prev, const std::vector<FactId>& delta,
    const std::vector<WarmSpec>& specs, ExecStats* stats) {
  ExecContext exec;
  // Seal the by-fact CSR span views and drop the relations' tail
  // indexes while the draft is still the writer's own: the view is then
  // each published relation's only by-fact index. A batched fact append
  // lands at the entry tail with fresh (maximal) fact ids, so a layout
  // carried over from the epoch is extended in place rather than
  // re-sorted.
  for (std::size_t i = 0; i < draft.dimension_count(); ++i) {
    if (draft.relation_mutable(i).Compact() ==
        FactDimRelation::SealOutcome::kExtended) {
      ++exec.stats.csr_tail_extends;
    }
  }

  // The sealed MO is shared between the epoch bundle and the warm cache
  // below (its base), so the seal step itself never copies the draft.
  // Every remaining step — memo warming, rollup compilation, the publish
  // freeze — is publication metadata and works on const.
  auto shared = std::make_shared<const MdObject>(std::move(draft));
  const MdObject& mo = *shared;

  // Warm the closure memos first: compilation and every later read then
  // find the reachability of each value precomputed, making concurrent
  // queries pure reads. A dimension the draft shares with its epoch is
  // still the published (frozen) object and is skipped; an appended-to
  // one carried the published memos into its clone, so warming only
  // fills the freshly appended values' entries.
  WarmUnfrozenDimensions(mo);

  // Compile the rollup snapshots while the dimensions are still
  // unfrozen, so For() caches each one into the dimension's slot; after
  // the freeze below, readers serve that slot without the slot mutex. A
  // slot still holding the epoch's snapshot is reused when the dimension
  // is unchanged and patched when it grew by appends (dense remap
  // extended, fresh-value closure rows computed, old rows copied); a
  // patch keeps the numbering, so a carried-over dense column is
  // extended over the appended rows only. The dense columns serve the
  // warm materialization below as well as every reader.
  std::vector<std::shared_ptr<const RollupIndex>> rollups =
      CompileForReaders(mo, &exec.stats);

  std::shared_ptr<const PreAggregateCache> preagg;
  if (!specs.empty()) {
    std::shared_ptr<PreAggregateCache> cache;
    if (prev != nullptr && prev->preagg != nullptr) {
      // Delta-fold the published entries: only the appended facts'
      // contributions are accumulated onto the captured state; entries
      // whose fold gate fails rematerialize with a full scan.
      MDDC_ASSIGN_OR_RETURN(PreAggregateCache folded,
                            prev->preagg->FoldAppend(shared, delta, &exec));
      cache = std::make_shared<PreAggregateCache>(std::move(folded));
    } else {
      cache = std::make_shared<PreAggregateCache>(shared);
    }
    for (const WarmSpec& spec : specs) {
      // Resumable (base-scan) materialization of the specs not folded:
      // the captured accumulator state is what lets a later AppendBatch
      // delta-fold the entry instead of rescanning (docs/ingestion.md).
      MDDC_RETURN_NOT_OK(
          cache->MaterializeResumable(spec.function, spec.grouping));
    }
    // The cached result MOs are published too (readers Peek them), so
    // they get the same treatment as the base MO.
    for (const WarmSpec& spec : specs) {
      if (const MdObject* cached = cache->Peek(spec.function, spec.grouping)) {
        (void)CompileForReaders(*cached, nullptr);
        cached->WarmAndFreezeForPublish();
      }
    }
    preagg = std::move(cache);
  }

  mo.WarmAndFreezeForPublish();
  if (stats != nullptr) stats->MergeFrom(exec.stats);
  return std::shared_ptr<const PublishedMo>(std::make_shared<PublishedMo>(
      PublishedMo{std::move(shared), std::move(rollups), std::move(preagg)}));
}

Status MoStore::SwapLocked(const std::string& name,
                           std::shared_ptr<const PublishedMo> entry) {
  std::shared_ptr<const MoSnapshot> current = Pin();
  auto next = std::make_shared<MoSnapshot>(*current);
  next->epoch_ = current->epoch() + 1;
  if (entry == nullptr) {
    next->catalog_.erase(name);
  } else {
    next->catalog_[name] = std::move(entry);
  }
  retired_.push_back(current);
  // Prune reclaimed observers once the list has doubled since the last
  // prune: amortized O(1) per epoch, and the list stays within twice the
  // epochs still pinned (each expired observer also pins its snapshot's
  // make_shared allocation block).
  if (retired_.size() >= 2 * retired_after_prune_) {
    PruneRetiredLocked();
    retired_after_prune_ = std::max<std::size_t>(retired_.size(), 8);
  }
  ++epochs_published_;
  // Unlocking pin_mu_ publishes every plain write above — including the
  // publish_frozen flags and warmed memos — to the next Pin().
  {
    std::lock_guard<std::mutex> lock(pin_mu_);
    current_ = std::move(next);
  }
  // `current` keeps the retired epoch alive past the lock: when it holds
  // the last reference, the epoch is torn down here, outside pin_mu_, so
  // a teardown never delays a Pin().
  return Status::OK();
}

Status MoStore::Publish(std::string name, MdObject mo) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (Pin()->Find(name) != nullptr) {
    return Status::InvariantViolation(
        StrCat("MO '", name, "' is already published; use Mutate"));
  }
  // Seal a private copy of the registry: it shares the caller's chunks,
  // and the caller's later interning clones the tail chunks it appends
  // to, so none of it is visible to (or racy with) readers of the
  // published epoch. The MO itself is ours: Seal compacts it in place.
  std::shared_ptr<FactRegistry> registry = FactRegistry::ForkOf(mo.registry());
  MDDC_ASSIGN_OR_RETURN(
      std::shared_ptr<const PublishedMo> sealed,
      Seal(std::move(mo).WithRegistry(std::move(registry)), nullptr, {},
           warm_specs_[name], nullptr));
  return SwapLocked(name, std::move(sealed));
}

Status MoStore::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (Pin()->Find(name) == nullptr) {
    return Status::NotFound(StrCat("no MO named '", name, "' is published"));
  }
  // The specs were bound to the dropped MO's dimensions: a later Publish
  // under the name starts cold, whatever its schema.
  warm_specs_.erase(name);
  return SwapLocked(name, nullptr);
}

Status MoStore::Mutate(const std::string& name,
                       const std::function<Status(MdObject&)>& mutator,
                       std::uint64_t* published_epoch) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  MDDC_RETURN_NOT_OK(MutateLocked(name, mutator));
  // Still under the writer mutex, so the current epoch is exactly the
  // one this mutation published.
  if (published_epoch != nullptr) *published_epoch = Pin()->epoch();
  return Status::OK();
}

Status MoStore::AppendBatch(const std::string& name,
                            const std::function<Status(MdObject&)>& appender,
                            std::uint64_t* published_epoch,
                            ExecStats* stats) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::shared_ptr<const MoSnapshot> current = Pin();
  const PublishedMo* entry = current->Find(name);
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no MO named '", name, "' is published"));
  }
  MdObject draft = DraftOf(entry->mo());
  MDDC_RETURN_NOT_OK(appender(draft));

  // A draft that fails the gate seals like a Mutate: no predecessor to
  // fold, and no counters for the caller.
  std::vector<FactId> delta;
  const bool pure = IsPureAppend(entry->mo(), draft, &delta);
  MDDC_ASSIGN_OR_RETURN(
      std::shared_ptr<const PublishedMo> sealed,
      Seal(std::move(draft), pure ? entry : nullptr, delta,
           warm_specs_[name], pure ? stats : nullptr));
  if (pure) {
    ++append_batches_;
  } else {
    ++append_fallbacks_;
  }
  MDDC_RETURN_NOT_OK(SwapLocked(name, std::move(sealed)));
  if (published_epoch != nullptr) *published_epoch = Pin()->epoch();
  return Status::OK();
}

MdObject MoStore::DraftOf(const MdObject& published) {
  // A copy of the sealed registry keeps the writer's interning invisible
  // to readers pinned on any epoch.
  return published.WithRegistry(FactRegistry::ForkOf(published.registry()));
}

Status MoStore::MutateLocked(const std::string& name,
                             const std::function<Status(MdObject&)>& mutator) {
  const std::shared_ptr<const MoSnapshot> current = Pin();
  const PublishedMo* entry = current->Find(name);
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no MO named '", name, "' is published"));
  }
  MdObject draft = DraftOf(entry->mo());
  MDDC_RETURN_NOT_OK(mutator(draft));
  MDDC_ASSIGN_OR_RETURN(
      std::shared_ptr<const PublishedMo> sealed,
      Seal(std::move(draft), nullptr, {}, warm_specs_[name], nullptr));
  return SwapLocked(name, std::move(sealed));
}

Status MoStore::WarmAggregate(const std::string& name,
                              const AggFunction& function,
                              std::vector<CategoryTypeIndex> grouping) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // Idempotent: the warm-aggregate advisor re-runs as the query log
  // grows, and re-registering an already-warm spec must not republish
  // (or duplicate the materialization work on every later seal).
  for (const WarmSpec& spec : warm_specs_[name]) {
    if (spec.function.kind() == function.kind() &&
        spec.function.args() == function.args() &&
        spec.grouping == grouping) {
      return Status::OK();
    }
  }
  warm_specs_[name].push_back(WarmSpec{function, std::move(grouping)});
  // Republish so the new spec is materialized into a fresh epoch. A
  // failing Materialize (e.g. an inapplicable function) surfaces here;
  // the bad spec is withdrawn and the previous epoch stays current.
  Status status = MutateLocked(name, [](MdObject&) { return Status::OK(); });
  if (!status.ok()) warm_specs_[name].pop_back();
  return status;
}

void MoStore::PruneRetiredLocked() const {
  const std::size_t before = retired_.size();
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const std::weak_ptr<const MoSnapshot>& w) {
                                  return w.expired();
                                }),
                 retired_.end());
  reclaimed_ += before - retired_.size();
}

MoStore::Stats MoStore::CollectStats() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Stats stats;
  stats.retired_observers = retired_.size();
  PruneRetiredLocked();

  stats.epochs_published = epochs_published_;
  stats.reclaimed_snapshots = reclaimed_;
  // Every observer left may still be released by its last reader before
  // this returns; those count as live here and as reclaimed next time.
  stats.live_snapshots = retired_.size() + 1;  // retired-but-pinned + current
  stats.append_batches = append_batches_;
  stats.append_fallbacks = append_fallbacks_;
  return stats;
}

}  // namespace serve
}  // namespace mddc
