#include "algebra/operators.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>

#include "common/strings.h"
#include "core/properties.h"
#include "engine/arena.h"
#include "engine/executor.h"
#include "engine/groupby_kernel.h"
#include "engine/rollup_index.h"

namespace mddc {
namespace {

Status RequireSharedRegistry(const MdObject& m1, const MdObject& m2,
                             const char* op) {
  if (m1.registry() != m2.registry()) {
    return Status::InvalidArgument(
        StrCat(op,
               " requires both MOs to share one fact registry so fact "
               "identity is comparable"));
  }
  return Status::OK();
}

/// FNV-1a over one surrogate id; assigns facts (join) and group keys
/// (aggregate formation) to hash partitions on the parallel path.
std::size_t HashUint64(std::uint64_t raw) {
  std::uint64_t h = 1469598103934665603ull;
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (raw >> (8 * byte)) & 0xff;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

/// Query-lifetime scratch container (docs/memory_layout.md): bumps the
/// context's arena.
template <typename T>
using ArenaVec = std::vector<T, ArenaAllocator<T>>;

/// Rewinds the context's arenas when the top-level operator returns:
/// everything arena-backed is operator-local scratch, so reclaiming here
/// keeps repeated queries on one context at a flat memory footprint.
struct ArenaResetGuard {
  ExecContext& exec;
  ~ArenaResetGuard() { exec.ResetQueryArenas(); }
};

}  // namespace

Result<MdObject> Select(const MdObject& mo, const Predicate& predicate) {
  std::vector<Dimension> dimensions;
  dimensions.reserve(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    dimensions.push_back(mo.dimension(i));
  }
  MdObject result(mo.schema().fact_type(), std::move(dimensions),
                  mo.registry(), mo.temporal_type());

  std::vector<FactId> kept;
  for (FactId fact : mo.facts()) {
    MDDC_ASSIGN_OR_RETURN(bool matches, predicate.Evaluate(mo, fact));
    if (matches) kept.push_back(fact);
  }
  for (FactId fact : kept) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    FactDimRelation restricted = mo.relation(i);
    restricted.RestrictToFacts(kept);
    result.relation_mutable(i) = std::move(restricted);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Project(const MdObject& mo,
                         const std::vector<std::size_t>& dims) {
  if (dims.empty()) {
    return Status::InvalidArgument("projection onto zero dimensions");
  }
  std::set<std::size_t> seen;
  std::vector<Dimension> dimensions;
  for (std::size_t dim : dims) {
    if (dim >= mo.dimension_count()) {
      return Status::InvalidArgument(
          StrCat("projection dimension ", dim, " out of range"));
    }
    if (!seen.insert(dim).second) {
      return Status::InvalidArgument(
          StrCat("projection lists dimension ", dim, " twice"));
    }
    dimensions.push_back(mo.dimension(dim));
  }
  MdObject result(mo.schema().fact_type(), std::move(dimensions),
                  mo.registry(), mo.temporal_type());
  for (FactId fact : mo.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    result.relation_mutable(i) = mo.relation(dims[i]);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Rename(const MdObject& mo, const RenameSpec& spec) {
  if (!spec.dimension_names.empty() &&
      spec.dimension_names.size() != mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("rename lists ", spec.dimension_names.size(),
               " dimension names for a ", mo.dimension_count(),
               "-dimensional MO"));
  }
  std::vector<Dimension> dimensions;
  dimensions.reserve(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const std::string* name = spec.dimension_names.empty()
                                  ? nullptr
                                  : &spec.dimension_names[i];
    if (name != nullptr && !name->empty()) {
      dimensions.push_back(mo.dimension(i).RenamedAs(*name));
    } else {
      dimensions.push_back(mo.dimension(i));
    }
  }
  std::string fact_type =
      spec.fact_type.empty() ? mo.schema().fact_type() : spec.fact_type;
  MdObject result(std::move(fact_type), std::move(dimensions), mo.registry(),
                  mo.temporal_type());
  for (FactId fact : mo.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    result.relation_mutable(i) = mo.relation(i);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Union(const MdObject& m1, const MdObject& m2) {
  MDDC_RETURN_NOT_OK(RequireSharedRegistry(m1, m2, "union"));
  if (!m1.schema().EquivalentTo(m2.schema())) {
    return Status::SchemaMismatch(
        "union requires equivalent schemas (use rename to align names)");
  }
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    MDDC_ASSIGN_OR_RETURN(
        Dimension merged,
        Dimension::UnionWith(m1.dimension(i), m2.dimension(i)));
    dimensions.push_back(std::move(merged));
  }
  MdObject result(m1.schema().fact_type(), std::move(dimensions),
                  m1.registry(), m1.temporal_type());
  for (FactId fact : m1.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (FactId fact : m2.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    MDDC_ASSIGN_OR_RETURN(
        FactDimRelation merged,
        FactDimRelation::UnionWith(m1.relation(i), m2.relation(i)));
    result.relation_mutable(i) = std::move(merged);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Difference(const MdObject& m1, const MdObject& m2) {
  MDDC_RETURN_NOT_OK(RequireSharedRegistry(m1, m2, "difference"));
  if (!m1.schema().EquivalentTo(m2.schema())) {
    return Status::SchemaMismatch(
        "difference requires equivalent schemas");
  }
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    dimensions.push_back(m1.dimension(i));  // dimensions of M1 are kept
  }
  MdObject result(m1.schema().fact_type(), std::move(dimensions),
                  m1.registry(), m1.temporal_type());

  if (m1.temporal_type() == TemporalType::kSnapshot) {
    // Snapshot rule: F' = F1 \ F2, relations restricted.
    std::vector<FactId> kept;
    for (FactId fact : m1.facts()) {
      if (!m2.HasFact(fact)) kept.push_back(fact);
    }
    for (FactId fact : kept) MDDC_RETURN_NOT_OK(result.AddFact(fact));
    for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
      FactDimRelation restricted = m1.relation(i);
      restricted.RestrictToFacts(kept);
      result.relation_mutable(i) = std::move(restricted);
    }
    MDDC_RETURN_NOT_OK(result.Validate());
    return result;
  }

  // Temporal rule (Section 4.2): cut each pair's time by the time the
  // corresponding pair has in M2; keep pairs with non-empty remaining
  // time; keep facts that retain a pair in every dimension.
  std::vector<FactDimRelation> cut(m1.dimension_count());
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    for (const FactDimRelation::Entry& entry : m1.relation(i).entries()) {
      TemporalElement other_valid;
      for (const FactDimRelation::Entry* other :
           m2.relation(i).ForFact(entry.fact)) {
        if (other->value == entry.value &&
            other->life.transaction.Overlaps(entry.life.transaction)) {
          other_valid = other_valid.Union(other->life.valid);
        }
      }
      Lifespan remaining{entry.life.valid.Subtract(other_valid),
                         entry.life.transaction};
      if (remaining.Empty()) continue;
      MDDC_RETURN_NOT_OK(
          cut[i].Add(entry.fact, entry.value, remaining, entry.prob));
    }
  }
  // Per-fact coverage over the sorted fact list as a flat rank/flag pass
  // per dimension — no ordered-map nodes and no per-fact HasFact probes
  // (see the BM_TemporalDifference note in bench/bench_algebra_ops.cpp).
  const std::vector<FactId>& facts1 = m1.facts();  // sorted by id
  std::vector<std::size_t> covered(facts1.size(), 0);
  std::vector<char> seen(facts1.size());
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    std::fill(seen.begin(), seen.end(), 0);
    for (const FactDimRelation::Entry& entry : cut[i].entries()) {
      const auto it =
          std::lower_bound(facts1.begin(), facts1.end(), entry.fact);
      if (it != facts1.end() && *it == entry.fact) {
        seen[static_cast<std::size_t>(it - facts1.begin())] = 1;
      }
    }
    for (std::size_t f = 0; f < facts1.size(); ++f) covered[f] += seen[f];
  }
  for (std::size_t f = 0; f < facts1.size(); ++f) {
    if (covered[f] == m1.dimension_count()) {
      MDDC_RETURN_NOT_OK(result.AddFact(facts1[f]));
    }
  }
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    cut[i].RestrictToFacts(result.facts());
    result.relation_mutable(i) = std::move(cut[i]);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Join(const MdObject& m1, const MdObject& m2,
                      JoinPredicate predicate, ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  MDDC_RETURN_NOT_OK(RequireSharedRegistry(m1, m2, "join"));
  // Dimension names must be disjoint; the paper prescribes rename for
  // self-joins.
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
      if (m1.dimension(i).name() == m2.dimension(j).name()) {
        return Status::InvalidArgument(
            StrCat("join operands both have a dimension named '",
                   m1.dimension(i).name(), "'; apply rename first"));
      }
    }
  }
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    dimensions.push_back(m1.dimension(i));
  }
  for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
    dimensions.push_back(m2.dimension(j));
  }
  MdObject result(
      StrCat("(", m1.schema().fact_type(), ",", m2.schema().fact_type(), ")"),
      std::move(dimensions), m1.registry(), m1.temporal_type());

  const std::vector<FactId>& facts1 = m1.facts();  // sorted by id
  const std::vector<FactId>& facts2 = m2.facts();  // sorted by id

  bool parallel = false;
  if (exec->num_threads > 1) {
    if (exec->WantsParallel(facts1.size())) {
      parallel = true;
    } else {
      // The caller asked for parallelism but the input is too small for
      // partitioning to pay off.
      ++exec->stats.sequential_fallbacks;
    }
  }

  // 1. Match lists, one disjoint slot per m1 fact, each in ascending m2
  //    scan order. The equi-join probes m2's sorted fact set instead of
  //    scanning it — identical matches, n1 log n2 instead of n1 * n2.
  //    Lists live in the context's bump arenas, each list in the arena
  //    of the partition that fills it, so workers never share an arena.
  ArenaResetGuard arena_guard{*exec};
  const std::size_t num_partitions = parallel ? exec->num_threads : 1;
  if (parallel) exec->EnsureWorkerArenas(num_partitions);
  std::vector<ArenaVec<FactId>> matches;
  matches.reserve(facts1.size());
  for (std::size_t f = 0; f < facts1.size(); ++f) {
    Arena* arena =
        parallel
            ? &exec->worker_arena(HashUint64(facts1[f].raw()) % num_partitions)
            : &exec->arena;
    matches.emplace_back(ArenaAllocator<FactId>(arena));
  }
  auto match_one = [&](std::size_t f) {
    const FactId f1 = facts1[f];
    switch (predicate) {
      case JoinPredicate::kEqual:
        if (std::binary_search(facts2.begin(), facts2.end(), f1)) {
          matches[f].push_back(f1);
        }
        break;
      case JoinPredicate::kNotEqual:
        matches[f].reserve(facts2.size());
        for (FactId f2 : facts2) {
          if (f2 != f1) matches[f].push_back(f2);
        }
        break;
      case JoinPredicate::kTrue:
        matches[f].assign(facts2.begin(), facts2.end());
        break;
    }
  };
  if (parallel) {
    // Warm the lazily written closure memos of every operand dimension so
    // the fan-out (and any concurrent reader of the operands) only ever
    // reads — the same pure-read discipline aggregate formation follows.
    // Compiling the rollup snapshot here rides on the same pass: the
    // result MO copies the operand dimensions, and copies share the
    // snapshot slot, so downstream aggregates over the join output start
    // with the index already built.
    for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
      m1.dimension(i).WarmClosureMemo();
      (void)RollupIndex::For(m1.dimension(i), &exec->stats);
      ++exec->stats.index_hits;
    }
    for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
      m2.dimension(j).WarmClosureMemo();
      (void)RollupIndex::For(m2.dimension(j), &exec->stats);
      ++exec->stats.index_hits;
    }
    exec->pool().ParallelFor(num_partitions, [&](std::size_t p) {
      for (std::size_t f = 0; f < facts1.size(); ++f) {
        if (HashUint64(facts1[f].raw()) % num_partitions == p) match_one(f);
      }
    });
    exec->stats.tasks += num_partitions;
    exec->stats.partitions += num_partitions;
  } else {
    for (std::size_t f = 0; f < facts1.size(); ++f) match_one(f);
  }

  // 2. Merge in fact order: walking m1's facts ascending and each match
  //    list in m2 scan order reproduces exactly the sequential
  //    nested-loop enumeration, so pair facts intern in the same order
  //    and get the same ids at any thread count.
  FactRegistry& registry = *m1.registry();
  std::vector<std::pair<FactId, std::pair<FactId, FactId>>> pairs;
  const auto merge_start = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < facts1.size(); ++f) {
    for (FactId f2 : matches[f]) {
      FactId pair = registry.Pair(facts1[f], f2);
      MDDC_RETURN_NOT_OK(result.AddFact(pair));
      pairs.emplace_back(pair, std::make_pair(facts1[f], f2));
    }
  }
  if (parallel) {
    exec->stats.merge_nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count());
  }

  // 3. Pair-fact relations. Each output dimension's relation is an
  //    independent slot written in pair order, so dimensions fan out in
  //    parallel; errors land in per-dimension Status slots and the first
  //    one in dimension order is returned.
  const std::size_t n1 = m1.dimension_count();
  const std::size_t n_out = n1 + m2.dimension_count();
  auto populate_dim = [&](std::size_t d) -> Status {
    const FactDimRelation& source =
        d < n1 ? m1.relation(d) : m2.relation(d - n1);
    FactDimRelation& target = result.relation_mutable(d);
    for (const auto& [pair, members] : pairs) {
      const FactId member = d < n1 ? members.first : members.second;
      for (std::size_t e : source.EntryIndexesForFact(member)) {
        const FactDimRelation::Entry& entry = source.entries()[e];
        MDDC_RETURN_NOT_OK(
            target.Add(pair, entry.value, entry.life, entry.prob));
      }
    }
    return Status::OK();
  };
  if (parallel) {
    std::vector<Status> statuses(n_out);
    exec->pool().ParallelFor(n_out,
                             [&](std::size_t d) { statuses[d] = populate_dim(d); });
    exec->stats.tasks += n_out;
    for (const Status& status : statuses) {
      MDDC_RETURN_NOT_OK(status);
    }
    ++exec->stats.parallel_runs;
    ++exec->stats.join_parallel_runs;
  } else {
    for (std::size_t d = 0; d < n_out; ++d) {
      MDDC_RETURN_NOT_OK(populate_dim(d));
    }
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

ResultDimensionSpec ResultDimensionSpec::Auto(std::string name) {
  ResultDimensionSpec spec;
  spec.auto_name_ = std::move(name);
  return spec;
}

ResultDimensionSpec ResultDimensionSpec::Explicit(
    Dimension prototype, std::function<Result<ValueId>(double)> mapper) {
  ResultDimensionSpec spec;
  spec.prototype_ = std::move(prototype);
  spec.mapper_ = std::move(mapper);
  return spec;
}

namespace {

/// The aggregation type of the result dimension's bottom category per the
/// Section 4.1 rule, given the request's summarizability report.
AggregationType ResultBottomAggType(const MdObject& mo,
                                    const AggregateSpec& spec,
                                    const SummarizabilityReport& report) {
  if (!report.summarizable) return AggregationType::kConstant;
  // min over Args(g) of the argument bottoms' aggregation types; an empty
  // argument list (set-count) yields summable counts.
  AggregationType agg_type = AggregationType::kSum;
  for (std::size_t dim : spec.function.args()) {
    const DimensionType& type = mo.dimension(dim).type();
    agg_type = MinAggregationType(agg_type, type.AggType(type.bottom()));
  }
  return agg_type;
}

// ---- The group-by scan ----------------------------------------------------

/// Per fact and live dimension: a grouping-category value characterizing
/// the fact, with lifespan and probability. `dense` is the value's dense
/// id in the dimension's rollup snapshot, set on the indexed path only —
/// the dense-slot engine turns it into a slot digit with one array read.
struct Coordinate {
  ValueId value;
  /// nullopt means AlwaysSpan — the attachment of nontemporal data. The
  /// scan intersects group time with coordinate time per incidence;
  /// spelling Always as nullopt makes the dominant snapshot case
  /// allocation-free (a materialized Lifespan copies two interval
  /// vectors) and lets the scan skip the identity Intersect.
  std::optional<Lifespan> life;
  double prob;
  std::uint32_t dense = RollupIndex::kNone;
};

/// Always-normalizing wrap: spans that cover the whole domain become
/// nullopt so downstream Intersects skip them.
std::optional<Lifespan> OptLife(const Lifespan& life) {
  if (life.IsAlways()) return std::nullopt;
  return life;
}

/// One wanted relation as a scan reads it, aligned with the visited
/// facts: each fact's row in the CSR by-fact view
/// (FactDimRelation::FactSpans) and, when the gather path is on, its
/// dense-id column slot.
struct ScanRelation {
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  const FactDimRelation* relation = nullptr;
  const ChunkedVector<FactDimRelation::FactSpan>* spans = nullptr;
  /// Per visited fact: its CSR row, or kNoRow when it has no pairs here.
  /// Empty when the visited facts are exactly the rows from `first_row`
  /// on (every fact of an MO has pairs in every dimension, so a scan of
  /// all facts, or of an appended tail, usually is).
  std::vector<std::uint32_t> rows;
  std::size_t first_row = 0;
  /// The dense-id column; null when there is no usable one. With `rows`
  /// empty a visited fact's slot is read from the column itself, else
  /// from `dense_storage` (kNoDense without a row).
  const ChunkedVector<std::uint32_t>* column = nullptr;
  std::vector<std::uint32_t> dense_storage;

  bool has_dense() const { return column != nullptr; }

  /// The slots of visited facts [f, f + size()), contiguous: up to the
  /// end of the column chunk holding f's row, at most up to `n`.
  std::span<const std::uint32_t> DenseRun(std::size_t f, std::size_t n) const {
    if (!rows.empty()) return {dense_storage.data() + f, n - f};
    const std::span<const std::uint32_t> run = column->RunFrom(first_row + f);
    return run.first(std::min(run.size(), n - f));
  }

  FactDimRelation::EntrySpan EntriesOf(std::size_t f) const {
    const std::size_t row = rows.empty() ? first_row + f : rows[f];
    if (row == kNoRow) return {};
    return relation->SpanEntries((*spans)[row]);
  }
};

/// Visits the visited facts [0, n) in blocks on which every relation's
/// dense slots are one contiguous run — columns are chunked, and the
/// chunks of an MO's relations break at the same rows — so the gather
/// loops stay pointer sweeps: `fn(begin, end, slots)` gets, per
/// relation, a pointer to the slot of visited fact `begin` (null
/// without a column), to be read as slots[i][f - begin].
template <typename Fn>
void ForEachDenseBlock(const std::vector<ScanRelation>& relations,
                       std::size_t n, const Fn& fn) {
  std::vector<const std::uint32_t*> slots(relations.size(), nullptr);
  for (std::size_t begin = 0; begin < n;) {
    std::size_t end = n;
    for (std::size_t i = 0; i < relations.size(); ++i) {
      if (!relations[i].has_dense()) continue;
      const std::span<const std::uint32_t> run =
          relations[i].DenseRun(begin, n);
      slots[i] = run.data();
      end = std::min(end, begin + run.size());
    }
    fn(begin, end, slots);
    begin = end;
  }
}

/// Builds the ScanRelation of each dimension with a snapshot in
/// `numberings`. When the visited facts are a tail of mo.facts() (all of
/// them, or an appended delta, as a span into mo.facts()) and the
/// relation has one CSR row per fact, the facts are its last rows: a
/// relation holds only facts of its MO (MdObject::Validate), so equal
/// counts mean every fact has its row (the end rows are checked, O(1)).
/// Otherwise one sweep of the CSR rows, chunk by chunk, in lockstep with
/// the ascending visited facts from the first visited fact on, finds each
/// fact's row. With `gather` the relation's dense column is read too;
/// `gather` turns false when some relation has no column under its
/// snapshot's numbering.
std::vector<ScanRelation> BuildScanRelations(
    const MdObject& mo, std::span<const FactId> facts,
    const std::vector<std::shared_ptr<const RollupIndex>>& numberings,
    bool* gather) {
  using FactSpan = FactDimRelation::FactSpan;
  const std::vector<FactId>& all = mo.facts();
  const bool tail = !facts.empty() && facts.size() <= all.size() &&
                    facts.data() + facts.size() == all.data() + all.size();
  std::vector<ScanRelation> relations(mo.dimension_count());
  std::vector<const ChunkedVector<std::uint32_t>*> columns(
      mo.dimension_count(), nullptr);
  for (std::size_t i = 0; i < mo.dimension_count() && *gather; ++i) {
    if (numberings[i] == nullptr) continue;
    columns[i] = mo.relation(i).DenseColumn(numberings[i]->numbering());
    *gather = columns[i] != nullptr;
  }
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    if (numberings[i] == nullptr) continue;
    const FactDimRelation& relation = mo.relation(i);
    const ChunkedVector<FactSpan>& spans = relation.FactSpans();
    ScanRelation& out = relations[i];
    out.relation = &relation;
    out.spans = &spans;
    out.column = *gather ? columns[i] : nullptr;
    if (tail && spans.size() == all.size() &&
        spans[all.size() - facts.size()].fact == facts.front() &&
        spans.back().fact == facts.back()) {
      out.first_row = all.size() - facts.size();
      continue;
    }
    out.first_row =
        facts.empty()
            ? spans.size()
            : static_cast<std::size_t>(
                  std::lower_bound(spans.begin(), spans.end(), facts.front(),
                                   [](const FactSpan& s, FactId f) {
                                     return s.fact < f;
                                   }) -
                  spans.begin());
    bool contiguous = spans.size() - out.first_row >= facts.size();
    for (std::size_t f = 0; contiguous && f < facts.size();) {
      const std::span<const FactSpan> run = spans.RunFrom(out.first_row + f);
      const std::size_t m = std::min(run.size(), facts.size() - f);
      for (std::size_t k = 0; k < m && contiguous; ++k) {
        contiguous = run[k].fact == facts[f + k];
      }
      f += m;
    }
    if (contiguous) continue;
    out.rows.assign(facts.size(), ScanRelation::kNoRow);
    if (out.column != nullptr) {
      out.dense_storage.assign(facts.size(), FactDimRelation::kNoDense);
    }
    std::size_t f = 0;
    for (std::size_t row = out.first_row;
         row < spans.size() && f < facts.size();) {
      // The column chunks at the same rows as the spans.
      const std::span<const FactSpan> run = spans.RunFrom(row);
      const std::uint32_t* column =
          out.column != nullptr ? out.column->RunFrom(row).data() : nullptr;
      for (std::size_t k = 0; k < run.size() && f < facts.size(); ++k) {
        while (f < facts.size() && facts[f] < run[k].fact) ++f;
        if (f < facts.size() && facts[f] == run[k].fact) {
          out.rows[f] = static_cast<std::uint32_t>(row + k);
          if (column != nullptr) out.dense_storage[f] = column[k];
        }
      }
      row += run.size();
    }
  }
  return relations;
}

/// A fact's per-live-dimension coordinate lists, bump-allocated in the
/// context's arenas (a scan's dominant allocation source is exactly these
/// little per-fact vectors).
using CoordList = ArenaVec<Coordinate>;
using CoordLists = ArenaVec<CoordList>;

/// Appends `fact`'s coordinates in `category` of dimension `i` to `list`.
/// With a compiled `index` the fact's CSR entry run `span` is resolved
/// through the flat table — per relation entry the unique ancestor at the
/// grouping category is one array lookup; under the snapshot's gate every
/// closure lifespan is Always, so the coordinate lifespan is the entry
/// lifespan and the probability the entry probability times the closure
/// probability, accumulated per value in entry order with the
/// union/noisy-or CharacterizedBy applies and kept sorted by ValueId like
/// the filtered characterization list. Without one the memoized
/// characterization walk runs. The two are bit-identical.
void AppendDimCoordinates(const MdObject& mo, std::size_t i,
                          CategoryTypeIndex category, Chronon prob_at,
                          const RollupIndex* index, FactId fact,
                          FactDimRelation::EntrySpan span, CoordList& list) {
  if (index == nullptr) {
    const Dimension& dimension = mo.dimension(i);
    for (const MdObject::Characterization& c :
         mo.CharacterizedBy(fact, i, prob_at)) {
      auto value_category = dimension.CategoryOf(c.value);
      if (value_category.ok() && *value_category == category) {
        list.push_back(Coordinate{c.value, OptLife(c.life), c.prob});
      }
    }
    return;
  }
  const FactDimRelation& relation = mo.relation(i);
  for (std::size_t e : span) {
    const FactDimRelation::Entry& entry = relation.entries()[e];
    const std::uint32_t dense = index->DenseOf(entry.value);
    if (dense == RollupIndex::kNone) continue;
    const std::uint32_t ancestor = index->AncestorAt(dense, category);
    if (ancestor == RollupIndex::kNone) continue;
    const double prob = entry.prob * index->AncestorProbAt(dense, category);
    const ValueId value = index->ValueOf(ancestor);
    auto it = std::lower_bound(
        list.begin(), list.end(), value,
        [](const Coordinate& c, ValueId v) { return c.value < v; });
    if (it != list.end() && it->value == value) {
      // Always (nullopt) is absorbing under component-wise Union.
      if (it->life.has_value()) {
        it->life = OptLife(it->life->Union(entry.life));
      }
      it->prob = 1.0 - (1.0 - it->prob) * (1.0 - prob);
    } else {
      list.insert(it, Coordinate{value, OptLife(entry.life), prob, ancestor});
    }
  }
}

/// An accumulator class: functions sharing an argument dimension and
/// pair-vs-value reading share one contribution pass, one accumulator per
/// group, one sticky error and one result lifespan — the Accumulator
/// keeps count/sum/min/max regardless of which Finish will read it, so
/// the shared state is exactly what each function alone would build.
struct AccumClass {
  std::size_t dim = 0;
  bool counts = false;   // COUNT reads pairs; SUM/AVG/MIN/MAX read values
  bool bad_dim = false;  // dim >= dimension_count: an error iff groups exist
};

/// The class `function` folds into; nullopt for SetCount, which reads
/// only the member set.
std::optional<AccumClass> ClassOf(const MdObject& mo,
                                  const AggFunction& function) {
  if (function.args().empty()) return std::nullopt;
  const std::size_t dim = function.args().front();
  return AccumClass{dim, function.kind() == AggregateFunctionKind::kCount,
                    dim >= mo.dimension_count()};
}

/// One visited fact's input to a class, computed once per fact and folded
/// into every group the fact joins, in member order — the per-member
/// entry scan AggFunction::Evaluate performs.
struct FactContribution {
  FactContribution() = default;
  explicit FactContribution(Arena* arena)
      : values(ArenaAllocator<double>(arena)) {}

  /// Known (non-top) numeric entry values of the argument dimension, in
  /// relation scan order; empty for COUNT, which never reads values.
  ArenaVec<double> values;
  /// Known pairs, for COUNT.
  std::size_t counted = 0;
  /// First NumericValueOf failure, sticky — a group inheriting it reports
  /// it exactly as Evaluate would.
  Status error;
  bool failed = false;
  /// Section 4.2 member time: the union of the member's entry spans in
  /// the argument dimension. nullopt means AlwaysSpan, so nontemporal
  /// facts carry no interval vectors at all.
  std::optional<Lifespan> arg_life;
};

/// Numeric values of one argument dimension for one scan. Gathered facts
/// read the argument snapshot's numeric column by dense id
/// (RollupIndex::Numeric); `by_value` holds what the column leaves to
/// NumericValueOf — the timed and failing values gathered facts read, at
/// the scan's prob_at, and every value a walked fact reads — so a sticky
/// error is NumericValueOf's own Status. Filled sequentially before the
/// fan-out; each NumericValueOf call counts one stats.numeric_lookups.
struct NumericValueCache {
  const RollupIndex::NumericColumn* column = nullptr;
  std::unordered_map<std::uint64_t, Result<double>> by_value;

  void FillValue(const Dimension& dimension, ValueId value, Chronon at,
                 ExecStats& stats) {
    if (value == dimension.top_value() || by_value.contains(value.raw())) {
      return;
    }
    by_value.emplace(value.raw(), dimension.NumericValueOf(value, at));
    ++stats.numeric_lookups;
  }
};

FactContribution ContributionOf(const MdObject& mo, const AccumClass& cls,
                                Chronon prob_at,
                                FactDimRelation::EntrySpan entries,
                                const NumericValueCache& numeric,
                                Arena* arena) {
  FactContribution c(arena);
  const FactDimRelation& relation = mo.relation(cls.dim);
  // Fast path for nontemporal data: a nonempty union of Always spans is
  // Always, and intersecting with Always is the identity.
  bool all_always = !entries.empty();
  for (std::size_t e : entries) {
    if (!relation.entries()[e].life.IsAlways()) {
      all_always = false;
      break;
    }
  }
  if (!all_always) {
    TemporalElement member_valid;
    TemporalElement member_transaction;
    for (std::size_t e : entries) {
      const FactDimRelation::Entry& entry = relation.entries()[e];
      member_valid = member_valid.Union(entry.life.valid);
      member_transaction = member_transaction.Union(entry.life.transaction);
    }
    c.arg_life =
        Lifespan{std::move(member_valid), std::move(member_transaction)};
  }
  const Dimension& dimension = mo.dimension(cls.dim);
  for (std::size_t e : entries) {
    const FactDimRelation::Entry& entry = relation.entries()[e];
    if (entry.value == dimension.top_value()) continue;  // unknown
    if (cls.counts) {
      ++c.counted;
      continue;
    }
    auto cached = numeric.by_value.find(entry.value.raw());
    const Result<double> value =
        cached != numeric.by_value.end()
            ? cached->second
            : dimension.NumericValueOf(entry.value, prob_at);
    if (!value.ok()) {
      c.failed = true;
      c.error = value.status();
      break;  // Evaluate stops at the first failing entry
    }
    c.values.push_back(*value);
  }
  return c;
}

/// One group of the scan. Everything a result MO needs is here: the
/// fused read path uses only the key, the members and the accumulators.
struct ScanGroup {
  /// The grouping values of the live (non-top-grouped) dimensions, in
  /// ascending dimension-index order.
  std::vector<ValueId> key;
  /// Distinct member facts, ascending (each fact joins a key at most once);
  /// built only when the request asks for them or two groups may share a
  /// member set (ScanResult::shared). A resumed group's members are
  /// `base_fact`'s followed by these: the seed's set fact and member count
  /// carry over, the scan adds only the members it visits.
  std::vector<FactId> members;
  /// The visited facts that joined: members.size() when they are built.
  std::size_t visited = 0;
  FactId base_fact;
  std::size_t base_count = 0;
  std::size_t member_count() const { return base_count + visited; }
  /// Per accumulator class: the raw left-fold over the members' values,
  /// and the first contribution error (OK when none).
  std::vector<AggFunction::Accumulator> accums;
  std::vector<Status> errors;
  /// Per live dimension: the intersection of the members' coordinate
  /// lifespans (nullopt = AlwaysSpan, untouched) and the product of their
  /// coordinate probabilities.
  std::vector<std::optional<Lifespan>> life;
  std::vector<double> prob;
  /// Sum over members of the product of their coordinate probabilities —
  /// the expected group size.
  double expected = 0.0;
  /// Per accumulator class: the Section 4.2 result lifespan, the
  /// intersection of the members' argument lifespans (nullopt = Always).
  std::vector<std::optional<Lifespan>> result_life;
};

/// What one scan visits and folds.
struct ScanRequest {
  /// The facts to visit, ascending: all of mo.facts(), or a fold's delta —
  /// as a span into mo.facts() when it is the MO's last facts, which
  /// BuildScanRelations aligns with the relations' rows without a sweep.
  std::span<const FactId> facts;
  /// Optional mask aligned with `facts`; false entries are skipped.
  const std::vector<bool>* keep = nullptr;
  /// Build each group's member list: set facts need it, a fused read only
  /// under StreamSpec::collect_members.
  bool members = true;
  const std::vector<CategoryTypeIndex>* grouping = nullptr;
  Chronon prob_at = kNowChronon;
  std::vector<AccumClass> classes;
  /// Take the partitioned path; the caller has applied the Section 3.4
  /// summarizability gate.
  bool parallel = false;
  /// Groups to resume (unique keys, members below every visited fact);
  /// each output group of a seed carries the seed's base fact and count.
  std::vector<ScanGroup> seeds;
};

/// Per-partition scan state. The dense engine owns a contiguous slot
/// range: group_of_slot is the range-local slot -> group indirection (4
/// bytes per owned slot, so untouched slots cost only the sentinel);
/// the flat-hash engine interns keys into one fixed-stride buffer probed
/// through the open-addressing index. Per-group state lives in strided
/// arrays, all bump-allocated in the partition's own arena (each
/// partition is scanned by exactly one task, so arenas never race).
struct ScanPartition {
  ScanPartition(Arena* a, std::size_t live_dims, std::size_t class_count)
      : nl(live_dims),
        nclasses(class_count),
        group_of_slot(ArenaAllocator<std::uint32_t>(a)),
        slot_of_group(ArenaAllocator<std::uint64_t>(a)),
        key_storage(ArenaAllocator<ValueId>(a)),
        seed_of_group(ArenaAllocator<std::uint32_t>(a)),
        hits(ArenaAllocator<std::size_t>(a)),
        accums(ArenaAllocator<AggFunction::Accumulator>(a)),
        result_life(ArenaAllocator<std::optional<Lifespan>>(a)),
        life(ArenaAllocator<std::optional<Lifespan>>(a)),
        prob(ArenaAllocator<double>(a)),
        expected(ArenaAllocator<double>(a)),
        incidences(ArenaAllocator<std::uint64_t>(a)) {}

  /// Appends a group, fresh or resuming `seeds[seed]`; returns its ordinal.
  std::uint32_t AddGroup(const std::vector<ScanGroup>& seeds,
                         std::uint32_t seed) {
    const auto g = static_cast<std::uint32_t>(expected.size());
    seed_of_group.push_back(seed);
    hits.push_back(0);
    if (seed == FlatHashGroupIndex::kNoGroup) {
      accums.insert(accums.end(), nclasses, AggFunction::Accumulator{});
      errors.resize(errors.size() + nclasses);
      result_life.resize(result_life.size() + nclasses);
      life.resize(life.size() + nl);
      prob.insert(prob.end(), nl, 1.0);
      expected.push_back(0.0);
    } else {
      const ScanGroup& s = seeds[seed];
      accums.insert(accums.end(), s.accums.begin(), s.accums.end());
      errors.insert(errors.end(), s.errors.begin(), s.errors.end());
      for (const Status& error : s.errors) failed = failed || !error.ok();
      result_life.insert(result_life.end(), s.result_life.begin(),
                         s.result_life.end());
      life.insert(life.end(), s.life.begin(), s.life.end());
      prob.insert(prob.end(), s.prob.begin(), s.prob.end());
      expected.push_back(s.expected);
    }
    return g;
  }

  std::size_t nl;
  std::size_t nclasses;
  std::uint64_t slot_begin = 0;
  std::uint64_t slot_end = 0;
  ArenaVec<std::uint32_t> group_of_slot;
  ArenaVec<std::uint64_t> slot_of_group;
  FlatHashGroupIndex index;
  ArenaVec<ValueId> key_storage;     // stride nl
  ArenaVec<std::uint32_t> seed_of_group;
  ArenaVec<std::size_t> hits;        // incidences scanned per group
  ArenaVec<AggFunction::Accumulator> accums;         // stride nclasses
  std::vector<Status> errors;                        // stride nclasses
  ArenaVec<std::optional<Lifespan>> result_life;     // stride nclasses
  ArenaVec<std::optional<Lifespan>> life;            // stride nl
  ArenaVec<double> prob;                             // stride nl
  ArenaVec<double> expected;
  /// Membership incidences in scan order (ascending fact within each
  /// group, since the scan walks facts ascending), each the group ordinal
  /// in the high half and the fact's position among the visited facts in
  /// the low half; scattered into per-group member lists at emission.
  /// Recorded only under `record_members`; `hits` counts them regardless.
  ArenaVec<std::uint64_t> incidences;
  bool record_members = false;
  /// Some group of this partition holds an error: until then the scan
  /// skips the per-class error probes.
  bool failed = false;
  /// Kept facts visited without a route pass: every one is gathered.
  std::size_t kept = 0;
  void AddIncidence(std::uint32_t group, std::size_t f) {
    ++hits[group];
    if (record_members) incidences.push_back(std::uint64_t{group} << 32 | f);
  }
};

/// Intersects `life` (nullopt = an untouched AlwaysSpan) with `with`,
/// replaying exactly the AlwaysSpan().Intersect(...) chain a
/// materialized accumulator would run.
void IntersectInto(std::optional<Lifespan>& life, const Lifespan& with) {
  life = life.has_value() ? life->Intersect(with)
                          : Lifespan::AlwaysSpan().Intersect(with);
}

/// What one scan returns.
struct ScanResult {
  std::vector<ScanGroup> groups;
  /// Some visited fact joined two groups (a walked fact with two
  /// coordinates in a live dimension). Only then can two groups have one
  /// member set, and the scan builds every member list even when the
  /// request did not ask for them.
  bool shared = false;
};

/// The one group-by scan behind AggregateFormation, FoldAggregateAppend
/// and AggregateStream (docs/groupby_kernel.md). Groups come back in
/// canonical lexicographic key order with members accumulated in
/// ascending fact order, so a result assembled from them is identical
/// for either engine and any thread count:
///   - dense slots: every live dimension has a flat rollup table and the
///     slot cross-product fits exec.max_dense_groupby_slots; ascending
///     slots ARE canonical order;
///   - flat hash otherwise, with one final key sort.
/// On the parallel path the dense engine partitions the slot space into
/// contiguous ranges and the flat-hash engine partitions keys by hash;
/// every worker scans all visited facts and accumulates only the groups
/// it owns, so each group is built whole by one worker.
Result<ScanResult> GroupByScan(const MdObject& mo, ScanRequest& request,
                               ExecContext& exec) {
  const std::span<const FactId> facts = request.facts;
  const std::vector<CategoryTypeIndex>& grouping = *request.grouping;
  const std::vector<AccumClass>& classes = request.classes;
  const std::size_t n = mo.dimension_count();
  const std::size_t nclasses = classes.size();
  const bool parallel = request.parallel;
  using NumericState = RollupIndex::NumericState;

  // Dead-dimension pruning: a top-grouped dimension contributes one fixed
  // coordinate (top value, Always, probability 1) to every fact, so the
  // scan drops it and keys carry only the live axes.
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < n; ++i) {
    if (grouping[i] != mo.dimension(i).type().top()) live.push_back(i);
  }
  const std::size_t nl = live.size();

  // 0. Compiled rollup snapshots. A live dimension resolves coordinates
  //    through its flat table; one whose snapshot fails the
  //    strictness/non-temporal gate takes the memoized characterization
  //    walk instead. An argument dimension needs only the dense numbering.
  std::vector<std::shared_ptr<const RollupIndex>> indexes(n);
  for (std::size_t i : live) {
    std::shared_ptr<const RollupIndex> index =
        RollupIndex::For(mo.dimension(i), &exec.stats);
    if (index->has_flat_table()) {
      indexes[i] = std::move(index);
      ++exec.stats.index_hits;
    } else {
      ++exec.stats.index_fallbacks;
    }
  }
  std::vector<std::shared_ptr<const RollupIndex>> numberings = indexes;
  for (const AccumClass& cls : classes) {
    if (!cls.bad_dim && numberings[cls.dim] == nullptr) {
      numberings[cls.dim] =
          RollupIndex::For(mo.dimension(cls.dim), &exec.stats);
    }
  }
  // 1. Engine selection over the live axes (dead dimensions never widen
  //    the slot product).
  bool dense = false;
  DenseSlotSpace space;
  {
    std::vector<DenseSlotSpace::GroupingDim> dims;
    bool all_indexed = true;
    for (std::size_t i : live) {
      if (indexes[i] == nullptr) {
        all_indexed = false;
        break;
      }
      dims.push_back({indexes[i].get(), grouping[i]});
    }
    if (all_indexed) {
      switch (DenseSlotSpace::Build(dims, exec.max_dense_groupby_slots,
                                    &space)) {
        case DenseSlotSpace::Plan::kDense:
          dense = true;
          break;
        case DenseSlotSpace::Plan::kTooManySlots:
          ++exec.stats.dense_slot_fallbacks;
          break;
        case DenseSlotSpace::Plan::kNotIndexed:
          break;
      }
    }
  }
  ++(dense ? exec.stats.dense_groupby_runs : exec.stats.flat_hash_runs);

  // 2. The gather path (docs/groupby_kernel.md): when every live
  //    dimension has a flat table and every wanted relation a dense column
  //    under the pinned snapshot's numbering, a visited fact with a column
  //    hit in each wanted dimension is resolved by array gathers — no
  //    coordinate list, no contribution. Every other visited fact is
  //    walked through coordinate lists; both meet in the one scan loop.
  bool gather = std::all_of(live.begin(), live.end(), [&](std::size_t i) {
    return indexes[i] != nullptr;
  });
  const std::vector<ScanRelation> relations =
      BuildScanRelations(mo, facts, numberings, &gather);
  // Per live dimension, what a dense id contributes to a gathered fact,
  // tabulated once over the snapshot's ids: its slot digit
  // OrdinalOf(AncestorAt(d, category)) (0 under flat hash; kNone when it
  // has no ancestor there, so the fact joins no group, exactly as its
  // empty coordinate list would), its key value (flat hash), and its
  // coordinate probability AncestorProbAt (= 1.0 x p).
  struct GatherAxis {
    std::vector<std::uint32_t> digit;
    std::vector<ValueId> key;
    std::vector<double> prob;
  };
  std::vector<GatherAxis> axes(nl);
  // True when every coordinate probability is 1.0: x 1.0 is exact, so the
  // probability folds can be skipped.
  bool unit_prob = true;
  for (std::size_t j = 0; j < nl && gather; ++j) {
    const RollupIndex& index = *indexes[live[j]];
    const CategoryTypeIndex category = grouping[live[j]];
    GatherAxis& axis = axes[j];
    axis.digit.assign(index.value_count(), RollupIndex::kNone);
    if (!dense) axis.key.resize(index.value_count());
    axis.prob.resize(index.value_count());
    for (std::uint32_t d = 0; d < index.value_count(); ++d) {
      const std::uint32_t ancestor = index.AncestorAt(d, category);
      if (ancestor == RollupIndex::kNone) continue;
      axis.digit[d] = dense ? space.OrdinalOf(j, ancestor) : 0;
      if (!dense) axis.key[d] = index.ValueOf(ancestor);
      axis.prob[d] = index.AncestorProbAt(d, category);
      unit_prob = unit_prob && axis.prob[d] == 1.0;
    }
  }
  // When every wanted column (the relations with one) hits on every
  // visited row — the rows are in place and the columns count no misses —
  // every kept fact is gathered and the scan reads the columns directly.
  // Otherwise a route pass sorts the kept facts first. route[f]: kSkipped
  // (not kept, or gathered into no group), kGathered, or the fact's index
  // among the walked facts.
  constexpr std::uint32_t kSkipped = 0xffffffffu;
  constexpr std::uint32_t kGathered = 0xfffffffeu;
  std::vector<std::size_t> wanted;
  bool all_hit = gather;
  for (std::size_t i = 0; i < relations.size(); ++i) {
    if (!relations[i].has_dense()) continue;
    wanted.push_back(i);
    all_hit = all_hit && relations[i].rows.empty() &&
              relations[i].relation->dense_misses() == 0;
  }
  std::vector<std::uint32_t> route;
  std::vector<std::uint32_t> walked;
  // Without a route pass the scan counts the gathered (= kept) facts, and
  // the visited facts bound those that join.
  std::size_t gathered = 0;
  std::size_t gathered_joins = facts.size();
  if (!all_hit) {
    route.assign(facts.size(), kSkipped);
    gathered_joins = 0;
    std::vector<const std::uint32_t*> wanted_slots(wanted.size());
    std::vector<const std::uint32_t*> axis_slots(nl);
    ForEachDenseBlock(relations, facts.size(), [&](std::size_t begin,
                                                   std::size_t end,
                                                   const auto& slots) {
      for (std::size_t k = 0; k < wanted.size(); ++k) {
        wanted_slots[k] = slots[wanted[k]];
      }
      for (std::size_t j = 0; j < nl; ++j) axis_slots[j] = slots[live[j]];
      for (std::size_t f = begin; f < end; ++f) {
        if (request.keep != nullptr && !(*request.keep)[f]) continue;
        const std::size_t o = f - begin;
        bool hit = gather;
        for (const std::uint32_t* slot : wanted_slots) {
          hit &= slot[o] != FactDimRelation::kNoDense;
        }
        if (!hit) {
          route[f] = static_cast<std::uint32_t>(walked.size());
          walked.push_back(static_cast<std::uint32_t>(f));
          continue;
        }
        bool joins = true;
        for (std::size_t j = 0; j < nl; ++j) {
          joins &= axes[j].digit[axis_slots[j][o]] != RollupIndex::kNone;
        }
        route[f] = joins ? kGathered : kSkipped;
        ++gathered;
        gathered_joins += joins ? 1 : 0;
      }
    });
  }
  exec.stats.facts_walked += walked.size();
  // True when visited fact f, at offset o of the dense block whose slots
  // are `slots`, is gathered into a group.
  auto gathered_into_group = [&](std::size_t f, std::size_t o,
                                 const auto& slots) {
    if (!all_hit) return route[f] == kGathered;
    if (request.keep != nullptr && !(*request.keep)[f]) return false;
    for (std::size_t j = 0; j < nl; ++j) {
      if (axes[j].digit[slots[live[j]][o]] == RollupIndex::kNone) {
        return false;
      }
    }
    return true;
  };

  // Per-walked-fact passes fan out over chunks, each chunk bumping its
  // own worker arena.
  auto for_walked_chunks = [&](const auto& fill) {
    if (!parallel || walked.empty()) {
      fill(std::size_t{0}, walked.size(), &exec.arena);
      return;
    }
    const std::size_t chunks = std::min(walked.size(), exec.num_threads * 4);
    exec.EnsureWorkerArenas(chunks);
    exec.pool().ParallelFor(chunks, [&](std::size_t chunk) {
      fill(chunk * walked.size() / chunks,
           (chunk + 1) * walked.size() / chunks, &exec.worker_arena(chunk));
    });
    exec.stats.tasks += chunks;
  };

  // 3. Live coordinates per walked fact. A fact with an empty list in
  //    some live dimension joins no group.
  if (parallel) {
    // The fan-out only ever reads the dimensions.
    for (std::size_t i : live) mo.dimension(i).WarmClosureMemo();
  }
  std::vector<std::optional<CoordLists>> coords(walked.size());
  for_walked_chunks([&](std::size_t begin, std::size_t end, Arena* arena) {
    for (std::size_t w = begin; w < end; ++w) {
      const std::size_t f = walked[w];
      CoordLists per_dim{ArenaAllocator<CoordList>(arena)};
      per_dim.reserve(nl);
      bool joins = true;
      for (std::size_t j = 0; j < nl && joins; ++j) {
        const std::size_t i = live[j];
        per_dim.emplace_back(ArenaAllocator<Coordinate>(arena));
        AppendDimCoordinates(
            mo, i, grouping[i], request.prob_at, indexes[i].get(), facts[f],
            indexes[i] != nullptr ? relations[i].EntriesOf(f)
                                  : FactDimRelation::EntrySpan{},
            per_dim[j]);
        joins = !per_dim[j].empty();
      }
      if (joins) coords[w] = std::move(per_dim);
    }
  });
  bool shared = false;
  for (const std::optional<CoordLists>& per_dim : coords) {
    if (!per_dim.has_value()) continue;
    for (const CoordList& list : *per_dim) shared = shared || list.size() > 1;
  }
  const bool build_members = request.members || shared;

  // 4. Per-class numeric values: gathered facts read the argument
  //    snapshot's numeric column, and what it leaves to NumericValueOf
  //    among the values the joining facts read is resolved here; then the
  //    walked facts' contributions.
  std::vector<std::vector<FactContribution>> contribs(nclasses);
  std::vector<NumericValueCache> caches(nclasses);
  for (std::size_t c = 0; c < nclasses; ++c) {
    const AccumClass& cls = classes[c];
    if (cls.bad_dim) continue;
    const ScanRelation& relation = relations[cls.dim];
    if (!cls.counts) {
      const Dimension& dimension = mo.dimension(cls.dim);
      const RollupIndex& numbering = *numberings[cls.dim];
      NumericValueCache& cache = caches[c];
      if (gathered_joins > 0) {
        cache.column = &numbering.Numeric(dimension);
      }
      if (cache.column != nullptr && !cache.column->numbers_only) {
        ForEachDenseBlock(relations, facts.size(), [&](std::size_t begin,
                                                       std::size_t end,
                                                       const auto& slots) {
          const std::uint32_t* dense = slots[cls.dim];
          for (std::size_t f = begin; f < end; ++f) {
            if (!gathered_into_group(f, f - begin, slots)) continue;
            const std::uint32_t d = dense[f - begin];
            if (cache.column->state[d] != NumericState::kNumber) {
              cache.FillValue(dimension, numbering.ValueOf(d),
                              request.prob_at, exec.stats);
            }
          }
        });
      }
      const ChunkedVector<FactDimRelation::Entry>& entries =
          mo.relation(cls.dim).entries();
      for (std::size_t w = 0; w < walked.size(); ++w) {
        if (!coords[w].has_value()) continue;
        for (std::size_t e : relation.EntriesOf(walked[w])) {
          cache.FillValue(dimension, entries[e].value, request.prob_at,
                          exec.stats);
        }
      }
    }
    contribs[c].resize(walked.size());
    for_walked_chunks([&](std::size_t begin, std::size_t end, Arena* arena) {
      for (std::size_t w = begin; w < end; ++w) {
        if (coords[w].has_value()) {
          contribs[c][w] =
              ContributionOf(mo, cls, request.prob_at,
                             relation.EntriesOf(walked[w]), caches[c], arena);
        }
      }
    });
  }

  // 5. Partitions: contiguous dense-slot ranges, or keys by hash.
  const std::size_t num_partitions = parallel ? exec.num_threads : 1;
  if (parallel) exec.EnsureWorkerArenas(num_partitions);
  std::vector<ScanPartition> parts;
  parts.reserve(num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    parts.emplace_back(parallel ? &exec.worker_arena(p) : &exec.arena, nl,
                       nclasses);
    parts.back().record_members = build_members;
  }
  if (dense) {
    const std::uint64_t slots = space.slot_count();
    std::uint64_t begin = 0;
    for (std::size_t p = 0; p < num_partitions; ++p) {
      const std::uint64_t width =
          slots / num_partitions + (p < slots % num_partitions ? 1 : 0);
      parts[p].slot_begin = begin;
      parts[p].slot_end = begin + width;
      begin += width;
      parts[p].group_of_slot.assign(static_cast<std::size_t>(width),
                                    FlatHashGroupIndex::kNoGroup);
    }
  }

  // The group of partition p owning `slot` (dense) or the key in
  // `scratch` (flat hash), created on first touch — resuming `seed` if
  // given; kNoGroup when another partition owns it. Two lambdas, so the
  // dense scan's per-fact lookup stays a few inlined instructions.
  auto slot_group = [&](ScanPartition& part, std::uint64_t slot,
                        std::uint32_t seed) -> std::uint32_t {
    // One partition owns every slot.
    if (num_partitions > 1 &&
        (slot < part.slot_begin || slot >= part.slot_end)) {
      return FlatHashGroupIndex::kNoGroup;
    }
    std::uint32_t& mapped =
        part.group_of_slot[static_cast<std::size_t>(slot - part.slot_begin)];
    if (mapped == FlatHashGroupIndex::kNoGroup) {
      mapped = part.AddGroup(request.seeds, seed);
      part.slot_of_group.push_back(slot);
    }
    return mapped;
  };
  auto key_group = [&](std::size_t p, const std::vector<ValueId>& scratch,
                       std::uint32_t seed) -> std::uint32_t {
    const std::uint64_t hash = HashValueIds(scratch.data(), nl);
    if (num_partitions > 1 && hash % num_partitions != p) {
      return FlatHashGroupIndex::kNoGroup;
    }
    ScanPartition& part = parts[p];
    bool inserted = false;
    const std::uint32_t g = part.index.FindOrInsert(
        hash, static_cast<std::uint32_t>(part.expected.size()),
        [&](std::uint32_t ordinal) {
          return std::equal(
              scratch.begin(), scratch.end(),
              part.key_storage.begin() +
                  static_cast<std::ptrdiff_t>(ordinal * nl));
        },
        &inserted);
    if (inserted) {
      part.key_storage.insert(part.key_storage.end(), scratch.begin(),
                              scratch.end());
      part.AddGroup(request.seeds, seed);
    }
    return g;
  };

  // 6. Seed groups (a fold's captured state) enter their owning partition
  //    before the scan, so the scan resumes each exactly where the
  //    captured run stopped.
  for (std::size_t s = 0; s < request.seeds.size(); ++s) {
    const std::vector<ValueId>& key = request.seeds[s].key;
    std::uint64_t slot = 0;
    if (dense) {
      for (std::size_t j = 0; j < nl; ++j) {
        const std::uint32_t value_dense = indexes[live[j]]->DenseOf(key[j]);
        const std::uint32_t ordinal = value_dense == RollupIndex::kNone
                                          ? RollupIndex::kNone
                                          : space.OrdinalOf(j, value_dense);
        if (ordinal == RollupIndex::kNone) {
          return Status::InvalidArgument(
              "seed group key lies outside the grouping categories");
        }
        slot = slot * space.cardinality(j) + ordinal;
      }
    }
    const auto seed = static_cast<std::uint32_t>(s);
    bool inserted = false;
    for (std::size_t p = 0; p < num_partitions; ++p) {
      const std::size_t before = parts[p].expected.size();
      const std::uint32_t g = dense ? slot_group(parts[p], slot, seed)
                                    : key_group(p, key, seed);
      if (g != FlatHashGroupIndex::kNoGroup) {
        inserted = parts[p].expected.size() > before;
        break;
      }
    }
    if (!inserted) {
      return Status::InvalidArgument("seed groups have duplicate keys");
    }
  }

  // 7. The partitioned scan. A gathered fact replays exactly the
  //    operations its one-coordinate lists would: digit or key from the
  //    flat table, probability AncestorProbAt (= 1.0 x p), Always
  //    lifespans (the identity), and its one value from the numeric
  //    column (by_value where the column says kFails or kTimed).
  if (!parallel && build_members) {
    parts[0].incidences.reserve(gathered_joins + walked.size());
  }
  auto scan_partition = [&](std::size_t p) {
    ScanPartition& part = parts[p];
    std::vector<std::size_t> cursor(nl);
    std::vector<ValueId> scratch(nl);
    std::vector<std::uint32_t> base(nl);  // a gathered fact's dense ids
    std::vector<const std::uint32_t*> live_slots(nl);
    std::vector<const std::uint32_t*> class_slots(nclasses, nullptr);
    ForEachDenseBlock(relations, facts.size(), [&](std::size_t begin,
                                                   std::size_t end,
                                                   const auto& slots) {
      for (std::size_t j = 0; j < nl; ++j) live_slots[j] = slots[live[j]];
      for (std::size_t c = 0; c < nclasses; ++c) {
        if (!classes[c].bad_dim) class_slots[c] = slots[classes[c].dim];
      }
      for (std::size_t f = begin; f < end; ++f) {
        std::uint32_t r = kGathered;
        if (all_hit) {
          if (request.keep != nullptr && !(*request.keep)[f]) continue;
          ++part.kept;
        } else {
          r = route[f];
          if (r == kSkipped) continue;
        }
        if (r == kGathered) {
          std::uint64_t slot = 0;
          bool joins = true;
          for (std::size_t j = 0; j < nl; ++j) {
            base[j] = live_slots[j][f - begin];
            const std::uint32_t digit = axes[j].digit[base[j]];
            joins &= digit != RollupIndex::kNone;
            if (dense) {
              slot = slot * space.cardinality(j) + digit;
            } else {
              scratch[j] = axes[j].key[base[j]];
            }
          }
          if (!joins) continue;
          const std::uint32_t g =
              dense ? slot_group(part, slot, FlatHashGroupIndex::kNoGroup)
                    : key_group(p, scratch, FlatHashGroupIndex::kNoGroup);
          if (g == FlatHashGroupIndex::kNoGroup) continue;
          part.AddIncidence(g, f);
          double member_prob = 1.0;
          for (std::size_t j = 0; j < nl && !unit_prob; ++j) {
            const double prob = axes[j].prob[base[j]];
            part.prob[g * nl + j] *= prob;
            member_prob *= prob;
          }
          part.expected[g] += member_prob;
          for (std::size_t c = 0; c < nclasses; ++c) {
            const std::size_t slot_c = g * nclasses + c;
            if (classes[c].bad_dim ||
                (part.failed && !part.errors[slot_c].ok())) {
              continue;
            }
            if (classes[c].counts) {
              part.accums[slot_c].AddCounted(1);
              continue;
            }
            const std::uint32_t d = class_slots[c][f - begin];
            const NumericValueCache& cache = caches[c];
            if (cache.column->state[d] == NumericState::kNumber) {
              part.accums[slot_c].Add(cache.column->value[d]);
              continue;
            }
            const Result<double>& value = cache.by_value.at(
                numberings[classes[c].dim]->ValueOf(d).raw());
            if (value.ok()) {
              part.accums[slot_c].Add(*value);
            } else {
              part.errors[slot_c] = value.status();
              part.failed = true;
            }
          }
          continue;
        }
        if (!coords[r].has_value()) continue;
        const CoordLists& per_dim = *coords[r];
        std::fill(cursor.begin(), cursor.end(), 0);
        // Enumerate the cross product of the fact's live coordinate lists
        // (one iteration — the single global group — when nl == 0).
        while (true) {
          // Row-major slot, lowest dimension index most significant; each
          // digit is the coordinate's rank in its grouping category.
          std::uint64_t slot = 0;
          if (dense) {
            for (std::size_t j = 0; j < nl; ++j) {
              slot = slot * space.cardinality(j) +
                     space.OrdinalOf(j, per_dim[j][cursor[j]].dense);
            }
          } else {
            for (std::size_t j = 0; j < nl; ++j) {
              scratch[j] = per_dim[j][cursor[j]].value;
            }
          }
          const std::uint32_t g =
              dense ? slot_group(part, slot, FlatHashGroupIndex::kNoGroup)
                    : key_group(p, scratch, FlatHashGroupIndex::kNoGroup);
          if (g != FlatHashGroupIndex::kNoGroup) {
            part.AddIncidence(g, f);
            double member_prob = 1.0;
            for (std::size_t j = 0; j < nl; ++j) {
              const Coordinate& c = per_dim[j][cursor[j]];
              if (c.life.has_value()) {
                IntersectInto(part.life[g * nl + j], *c.life);
              }
              part.prob[g * nl + j] *= c.prob;
              member_prob *= c.prob;
            }
            part.expected[g] += member_prob;
            for (std::size_t c = 0; c < nclasses; ++c) {
              if (classes[c].bad_dim) continue;
              const FactContribution& fc = contribs[c][r];
              const std::size_t slot_c = g * nclasses + c;
              if (fc.arg_life.has_value()) {
                IntersectInto(part.result_life[slot_c], *fc.arg_life);
              }
              if (part.failed && !part.errors[slot_c].ok()) continue;
              if (fc.failed) {
                part.errors[slot_c] = fc.error;
                part.failed = true;
              } else if (classes[c].counts) {
                part.accums[slot_c].AddCounted(fc.counted);
              } else {
                for (double value : fc.values) part.accums[slot_c].Add(value);
              }
            }
          }
          // Advance the cross-product cursor.
          std::size_t j = 0;
          while (j < nl && ++cursor[j] == per_dim[j].size()) {
            cursor[j] = 0;
            ++j;
          }
          if (j == nl) break;
        }
      }
    });
  };
  if (parallel) {
    exec.pool().ParallelFor(num_partitions, scan_partition);
    exec.stats.tasks += num_partitions;
    exec.stats.partitions += num_partitions;
    ++exec.stats.parallel_runs;
  } else {
    scan_partition(0);
  }
  exec.stats.facts_gathered += all_hit ? parts[0].kept : gathered;

  // 8. Canonical group order: ascending slot for the dense engine (the
  //    partitions own ascending disjoint ranges), one lexicographic key
  //    sort for the flat-hash engine.
  struct GroupRef {
    std::uint32_t partition;
    std::uint32_t ordinal;
  };
  std::vector<GroupRef> order;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::uint32_t g = 0; g < parts[p].expected.size(); ++g) {
      order.push_back({static_cast<std::uint32_t>(p), g});
    }
  }
  const auto merge_start = std::chrono::steady_clock::now();
  std::sort(order.begin(), order.end(),
            [&](const GroupRef& a, const GroupRef& b) {
              if (dense) {
                return parts[a.partition].slot_of_group[a.ordinal] <
                       parts[b.partition].slot_of_group[b.ordinal];
              }
              const ValueId* ka =
                  parts[a.partition].key_storage.data() + a.ordinal * nl;
              const ValueId* kb =
                  parts[b.partition].key_storage.data() + b.ordinal * nl;
              return std::lexicographical_compare(ka, ka + nl, kb, kb + nl);
            });
  if (parallel) {
    exec.stats.merge_nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count());
  }

  // 9. Emission. A group's members are its seed's members (kept as the
  //    seed's set fact) followed by the scanned incidences — every
  //    visited fact follows every seed member, and each worker walked the
  //    facts ascending.
  std::vector<ScanGroup> out(order.size());
  std::vector<std::vector<std::uint32_t>> out_of(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    out_of[p].resize(parts[p].expected.size());
  }
  for (std::size_t t = 0; t < order.size(); ++t) {
    const auto [p, g] = order[t];
    const ScanPartition& part = parts[p];
    ScanGroup& group = out[t];
    out_of[p][g] = static_cast<std::uint32_t>(t);
    if (dense) {
      space.KeyOf(part.slot_of_group[g], group.key);
    } else {
      const ValueId* key = part.key_storage.data() + g * nl;
      group.key.assign(key, key + nl);
    }
    if (part.seed_of_group[g] != FlatHashGroupIndex::kNoGroup) {
      const ScanGroup& seed = request.seeds[part.seed_of_group[g]];
      group.base_fact = seed.base_fact;
      group.base_count = seed.base_count;
    }
    group.visited = part.hits[g];
    if (build_members) group.members.reserve(group.visited);
    const auto row = [g](const auto& strided, std::size_t stride) {
      return std::span(strided.data() + g * stride, stride);
    };
    const auto accums = row(part.accums, nclasses);
    const auto errors = row(part.errors, nclasses);
    const auto result_life = row(part.result_life, nclasses);
    const auto life = row(part.life, nl);
    const auto prob = row(part.prob, nl);
    group.accums.assign(accums.begin(), accums.end());
    group.errors.assign(errors.begin(), errors.end());
    group.result_life.assign(result_life.begin(), result_life.end());
    group.life.assign(life.begin(), life.end());
    group.prob.assign(prob.begin(), prob.end());
    group.expected = part.expected[g];
  }
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const ScanPartition& part = parts[p];
    for (std::uint64_t incidence : part.incidences) {
      out[out_of[p][incidence >> 32]].members.push_back(
          facts[incidence & 0xffffffffu]);
    }
  }
  return ScanResult{std::move(out), shared};
}

/// Steps 4-6 of aggregate formation, shared by AggregateFormation and
/// FoldAggregateAppend: settle g per group in canonical order (the first
/// error surfaces exactly as evaluating group by group would), restrict
/// the argument dimensions, build the result dimension under the Section
/// 4.1 typing rule, and populate facts and relations. Each top-grouped
/// dimension is re-expanded as (top value, Always, probability 1), which
/// is exact: x 1.0 and intersection with Always are identities of the
/// scan's folds. Under spec.capture the raw per-group state is recorded
/// so FoldAggregateAppend can resume it.
Result<MdObject> AssembleAggregateResult(
    const MdObject& mo, const AggregateSpec& spec,
    const SummarizabilityReport& summarizability,
    std::vector<ScanGroup>& groups) {
  const std::size_t n = mo.dimension_count();
  const AggFunction& function = spec.function;
  const bool has_class = !function.args().empty();
  if (has_class && function.args().front() >= n && !groups.empty()) {
    return Status::InvalidArgument(
        StrCat(function.name(), " references dimension ",
               function.args().front(), " of a ", n, "-dimensional MO"));
  }
  std::vector<double> values;
  values.reserve(groups.size());
  for (const ScanGroup& group : groups) {
    if (!has_class) {
      values.push_back(spec.expected_counts
                           ? group.expected
                           : static_cast<double>(group.member_count()));
      continue;
    }
    if (!group.errors.front().ok()) return group.errors.front();
    MDDC_ASSIGN_OR_RETURN(double value, function.Finish(group.accums.front()));
    values.push_back(value);
  }

  // 4. Argument dimensions restricted to the categories at or above the
  //    grouping categories.
  std::vector<Dimension> dimensions;
  dimensions.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(Dimension restricted,
                          mo.dimension(i).RestrictAbove(spec.grouping[i]));
    dimensions.push_back(std::move(restricted));
  }

  // 5. The result dimension.
  AggregationType bottom_agg =
      ResultBottomAggType(mo, spec, summarizability);
  std::optional<Dimension> result_dimension;
  CategoryTypeIndex result_bottom = 0;
  if (spec.result.is_auto()) {
    DimensionTypeBuilder builder(spec.result.auto_name());
    builder.AddCategory("Value", bottom_agg);
    MDDC_ASSIGN_OR_RETURN(auto type, builder.Build());
    result_dimension.emplace(type);
    result_bottom = type->bottom();
  } else {
    // Apply the typing rule to the prototype: bottom gets the rule's
    // type; higher categories get min(existing, bottom).
    const Dimension& prototype = spec.result.prototype();
    auto type = prototype.type_ptr();
    auto adjusted = type->WithAggType(type->bottom(), bottom_agg);
    for (CategoryTypeIndex c = 0; c < adjusted->category_count(); ++c) {
      if (c == adjusted->bottom()) continue;
      adjusted = adjusted->WithAggType(
          c, MinAggregationType(adjusted->AggType(c), bottom_agg));
    }
    // Rebuild the prototype's content under the adjusted type: the
    // lattice is unchanged, so value/edge structure carries over.
    Dimension rebuilt(adjusted);
    for (ValueId value : prototype.AllValues()) {
      if (value == prototype.top_value()) continue;
      auto category = prototype.CategoryOf(value);
      auto membership = prototype.MembershipOf(value);
      MDDC_RETURN_NOT_OK(rebuilt.AddValue(*category, value, *membership));
    }
    for (const Dimension::Edge& edge : prototype.edges()) {
      MDDC_RETURN_NOT_OK(
          rebuilt.AddOrder(edge.child, edge.parent, edge.life, edge.prob));
    }
    for (const auto& [category, rep_name, rep] :
         prototype.AllRepresentations()) {
      Representation& target = rebuilt.RepresentationFor(category, rep_name);
      for (ValueId value : prototype.ValuesIn(category)) {
        for (const auto& [text, life] : rep->GetAll(value)) {
          MDDC_RETURN_NOT_OK(target.Set(value, text, life));
        }
      }
    }
    result_bottom = adjusted->bottom();
    result_dimension.emplace(std::move(rebuilt));
  }
  dimensions.push_back(*result_dimension);

  MdObject result(StrCat("Set-of-", mo.schema().fact_type()),
                  std::move(dimensions), mo.registry(), mo.temporal_type());

  AggregateFoldState* capture = spec.capture;
  if (capture != nullptr) {
    capture->groups.clear();
    capture->groups.reserve(groups.size());
    capture->summarizability = summarizability;
    capture->dim_versions.clear();
    capture->dim_structural_versions.clear();
    for (std::size_t i = 0; i < n; ++i) {
      capture->dim_versions.push_back(mo.dimension(i).version());
      capture->dim_structural_versions.push_back(
          mo.dimension(i).structural_version());
    }
    // Explicit result specs route results through a caller mapper whose
    // interning order a fold cannot reproduce; only auto captures resume.
    capture->valid = spec.result.is_auto();
  }

  // 6. Populate facts and relations in canonical group order.
  FactRegistry& registry = *mo.registry();
  Dimension& out_result_dim = result.dimension_mutable(n);
  // Result values are interned by the double's bit pattern, not its
  // formatted text: FormatDouble is injective for finite doubles but
  // collapses NaN payloads, and two distinct results must never share a
  // result value. The formatted text is display-only.
  std::map<std::uint64_t, ValueId> auto_values;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ScanGroup& group = groups[g];
    // A resumed group extends its previous set fact by the members the
    // fold visited (an untouched group keeps its fact), so a fold interns
    // O(delta) member ids, not the group's whole history.
    const std::size_t member_count = group.member_count();
    const FactId group_fact =
        group.base_fact.valid()
            ? registry.SetExtending(group.base_fact, std::move(group.members))
            : registry.Set(std::move(group.members));
    MDDC_RETURN_NOT_OK(result.AddFact(group_fact));
    const double value = values[g];

    // Re-expand the live-dimension state over all n dimensions.
    AggregateFoldState::Group state;
    state.key.reserve(n);
    state.life_per_dim.reserve(n);
    state.prob_per_dim.reserve(n);
    std::size_t j = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (spec.grouping[i] == mo.dimension(i).type().top()) {
        state.key.push_back(mo.dimension(i).top_value());
        state.life_per_dim.push_back(Lifespan::AlwaysSpan());
        state.prob_per_dim.push_back(1.0);
        continue;
      }
      state.key.push_back(group.key[j]);
      state.life_per_dim.push_back(
          group.life[j].value_or(Lifespan::AlwaysSpan()));
      state.prob_per_dim.push_back(group.prob[j]);
      ++j;
    }
    state.result_life = has_class ? group.result_life.front().value_or(
                                        Lifespan::AlwaysSpan())
                                  : Lifespan::AlwaysSpan();

    // Argument-dimension relations: group fact -> grouping value.
    for (std::size_t i = 0; i < n; ++i) {
      // Members whose spans do not overlap still group atemporally (each
      // was characterized at its own time): record the link with the
      // union-of-members semantics instead.
      const Lifespan& life = state.life_per_dim[i];
      MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(
          group_fact, state.key[i],
          life.Empty() ? Lifespan::AlwaysSpan() : life,
          state.prob_per_dim[i]));
    }

    // Result-dimension relation: group fact -> g(group), at the Section
    // 4.2 result lifespan.
    ValueId result_value;
    if (spec.result.is_auto()) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
      auto it = auto_values.find(bits);
      if (it == auto_values.end()) {
        MDDC_ASSIGN_OR_RETURN(result_value,
                              out_result_dim.AddValueAuto(result_bottom));
        Representation& rep =
            out_result_dim.RepresentationFor(result_bottom, "Value");
        MDDC_RETURN_NOT_OK(rep.Set(result_value, FormatDouble(value)));
        auto_values.emplace(bits, result_value);
      } else {
        result_value = it->second;
      }
    } else {
      MDDC_ASSIGN_OR_RETURN(result_value, spec.result.Map(value));
      if (!out_result_dim.HasValue(result_value)) {
        return Status::InvalidArgument(
            StrCat("result mapper returned value ", result_value,
                   " not present in the result dimension prototype"));
      }
    }
    MDDC_RETURN_NOT_OK(result.relation_mutable(n).Add(
        group_fact, result_value,
        state.result_life.Empty() ? Lifespan::AlwaysSpan()
                                  : state.result_life));

    if (capture != nullptr && capture->valid) {
      state.group_fact = group_fact;
      state.member_count = member_count;
      if (has_class) state.accumulator = group.accums.front();
      state.expected = group.expected;
      capture->groups.push_back(std::move(state));
    }
  }

  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

/// Grouping arity and category range, with AggregateStream's and
/// AggregateFormation's shared messages.
Status CheckGrouping(const MdObject& mo,
                     const std::vector<CategoryTypeIndex>& grouping,
                     const char* op) {
  if (grouping.size() != mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat(op, " got ", grouping.size(), " grouping categories for a ",
               mo.dimension_count(), "-dimensional MO"));
  }
  for (std::size_t i = 0; i < grouping.size(); ++i) {
    if (grouping[i] >= mo.dimension(i).type().category_count()) {
      return Status::InvalidArgument(
          StrCat("grouping category ", grouping[i],
                 " out of range for dimension '", mo.dimension(i).name(),
                 "'"));
    }
  }
  return Status::OK();
}

/// The parallel path's safety gate: per-worker partial groups combine
/// exactly when the Section 3.4 preconditions hold (the rule under which
/// PreAggregateCache reuses materialized partials); a context that
/// wants parallelism but fails the gate counts a sequential_fallback.
bool ParallelGate(ExecContext& exec, std::size_t input_size,
                  bool summarizable) {
  if (!exec.WantsParallel(input_size)) return false;
  if (!summarizable) ++exec.stats.sequential_fallbacks;
  return summarizable;
}

}  // namespace

Result<MdObject> AggregateFormation(const MdObject& mo,
                                    const AggregateSpec& spec,
                                    ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  MDDC_RETURN_NOT_OK(CheckGrouping(mo, spec.grouping, "aggregate formation"));
  if (spec.enforce_aggregation_types) {
    MDDC_RETURN_NOT_OK(spec.function.CheckApplicable(mo));
  }
  // The grouping collects characterizations across all time, so the
  // strictness/partitioning conditions are checked atemporally. The
  // report drives both the Section 4.1 typing rule and the parallel gate.
  const SummarizabilityReport summarizability =
      CheckSummarizability(mo, spec.function.kind(), spec.grouping);

  ArenaResetGuard arena_guard{*exec};
  ScanRequest request;
  request.facts = mo.facts();
  request.grouping = &spec.grouping;
  request.prob_at = spec.prob_at;
  if (auto cls = ClassOf(mo, spec.function)) request.classes.push_back(*cls);
  request.parallel = ParallelGate(*exec, mo.facts().size(),
                                  summarizability.summarizable);
  MDDC_ASSIGN_OR_RETURN(ScanResult scan, GroupByScan(mo, request, *exec));
  return AssembleAggregateResult(mo, spec, summarizability, scan.groups);
}

Result<MdObject> FoldAggregateAppend(const MdObject& mo,
                                     const AggregateSpec& spec,
                                     const AggregateFoldState& state,
                                     const std::vector<FactId>& delta_facts,
                                     ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  const std::size_t n = mo.dimension_count();
  if (!state.valid) {
    return Status::InvalidArgument("fold state is not resumable");
  }
  if (spec.grouping.size() != n || state.dim_versions.size() != n ||
      state.dim_structural_versions.size() != n ||
      state.summarizability.strict_path.size() != n ||
      state.summarizability.partitioning.size() != n) {
    return Status::InvalidArgument(
        StrCat("fold state shape does not match the ", n,
               "-dimensional MO"));
  }
  if (!spec.result.is_auto()) {
    return Status::InvalidArgument(
        "fold supports auto result dimensions only");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (mo.dimension(i).structural_version() !=
        state.dim_structural_versions[i]) {
      return Status::InvalidArgument(
          StrCat("dimension '", mo.dimension(i).name(),
                 "' changed structurally since the fold state was captured"));
    }
  }
  if (spec.enforce_aggregation_types) {
    MDDC_RETURN_NOT_OK(spec.function.CheckApplicable(mo));
  }

  // Recompose the atemporal summarizability report. Strict-path is a
  // per-fact universal, so it factorizes: the captured verdict covers the
  // old facts (whose upward closures appends cannot change — appended
  // edges only ever hang fresh children) and only the delta is scanned.
  // Partitioning is dimension-local and CAN flip under a value/edge
  // append, so it is recomputed whenever the dimension's version moved.
  SummarizabilityReport summarizability;
  summarizability.distributive = IsDistributive(spec.function.kind());
  summarizability.summarizable = summarizability.distributive;
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.grouping[i] == mo.dimension(i).type().top()) {
      summarizability.strict_path.push_back(true);
      summarizability.partitioning.push_back(true);
      continue;
    }
    const bool strict =
        state.summarizability.strict_path[i] &&
        HasStrictPath(mo, i, spec.grouping[i], std::nullopt, &delta_facts);
    const bool partitioning =
        mo.dimension(i).version() == state.dim_versions[i]
            ? state.summarizability.partitioning[i]
            : IsPartitioningUpTo(mo.dimension(i), spec.grouping[i]);
    summarizability.strict_path.push_back(strict);
    summarizability.partitioning.push_back(partitioning);
    summarizability.summarizable =
        summarizability.summarizable && strict && partitioning;
  }

  // Seed the scan with the captured groups: raw accumulators, lifespans,
  // probabilities and expected counts resume exactly where the captured
  // run stopped, so folding the delta replays the floating-point and
  // temporal operation sequence a full old-then-new run performs. A seed
  // carries its group's set fact and member count, never the member list:
  // the registry answers count and largest member in O(1) (every copy of
  // the registry resolves the same ids), so seeding costs O(groups).
  const bool has_class = !spec.function.args().empty();
  const FactRegistry& registry = *mo.registry();
  std::vector<ScanGroup> seeds;
  seeds.reserve(state.groups.size());
  FactId max_old_member;  // invalid = no captured members at all
  for (const AggregateFoldState::Group& old_group : state.groups) {
    if (old_group.key.size() != n || old_group.life_per_dim.size() != n ||
        old_group.prob_per_dim.size() != n) {
      return Status::InvalidArgument("fold state group shape mismatch");
    }
    const std::optional<FactRegistry::SetShape> shape =
        registry.ShapeOfSet(old_group.group_fact);
    if (!shape.has_value() || shape->count != old_group.member_count) {
      return Status::InvalidArgument("fold state group members drifted");
    }
    ScanGroup seed;
    for (std::size_t i = 0; i < n; ++i) {
      if (spec.grouping[i] == mo.dimension(i).type().top()) continue;
      seed.key.push_back(old_group.key[i]);
      seed.life.emplace_back(old_group.life_per_dim[i]);
      seed.prob.push_back(old_group.prob_per_dim[i]);
    }
    if (shape->largest.valid() &&
        (!max_old_member.valid() || max_old_member < shape->largest)) {
      max_old_member = shape->largest;
    }
    seed.base_fact = old_group.group_fact;
    seed.base_count = shape->count;
    if (has_class) {
      seed.accums.push_back(old_group.accumulator);
      seed.errors.emplace_back();
      seed.result_life.emplace_back(old_group.result_life);
    }
    seed.expected = old_group.expected;
    seeds.push_back(std::move(seed));
  }
  // The byte-identity argument needs every delta fact to sort after every
  // captured member and the delta itself to ascend — the natural shape of
  // registry appends. Anything else must take the full re-run.
  for (std::size_t f = 0; f < delta_facts.size(); ++f) {
    if (f > 0 && !(delta_facts[f - 1] < delta_facts[f])) {
      return Status::InvalidArgument("delta facts are not ascending");
    }
    if (max_old_member.valid() && !(max_old_member < delta_facts[f])) {
      return Status::InvalidArgument(
          "delta facts do not all follow the captured members");
    }
  }

  ArenaResetGuard arena_guard{*exec};
  ScanRequest request;
  // An append's delta is the MO's last facts: scanned as that tail of
  // mo.facts(), it lines up with the relations' last rows.
  const std::vector<FactId>& all = mo.facts();
  const bool tail =
      delta_facts.size() <= all.size() &&
      std::equal(delta_facts.begin(), delta_facts.end(),
                 all.end() - static_cast<std::ptrdiff_t>(delta_facts.size()));
  request.facts = tail ? std::span(all).last(delta_facts.size())
                       : std::span<const FactId>(delta_facts);
  request.grouping = &spec.grouping;
  request.prob_at = spec.prob_at;
  if (auto cls = ClassOf(mo, spec.function)) request.classes.push_back(*cls);
  request.parallel = ParallelGate(*exec, delta_facts.size(),
                                  summarizability.summarizable);
  request.seeds = std::move(seeds);
  MDDC_ASSIGN_OR_RETURN(ScanResult scan, GroupByScan(mo, request, *exec));
  return AssembleAggregateResult(mo, spec, summarizability, scan.groups);
}

StreamProbe AggregateStreamProbe(const MdObject& mo,
                                 const std::vector<CategoryTypeIndex>& grouping,
                                 const std::vector<std::size_t>& arg_dims,
                                 ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  StreamProbe probe;
  const std::size_t n = mo.dimension_count();
  if (grouping.size() != n) return probe;
  for (std::size_t i = 0; i < n; ++i) {
    if (grouping[i] >= mo.dimension(i).type().category_count()) return probe;
    if (grouping[i] != mo.dimension(i).type().top()) probe.live.push_back(i);
  }
  // The probe never touches stats: EXPLAIN must not perturb the counters
  // of the statements it describes.
  auto has_column = [&](std::size_t i, const RollupIndex& index) {
    return mo.relation(i).DenseColumn(index.numbering()) != nullptr;
  };
  for (std::size_t i : arg_dims) {
    if (i < n && has_column(i, *RollupIndex::For(mo.dimension(i)))) {
      probe.arg_columns.push_back(i);
    }
  }
  std::vector<std::shared_ptr<const RollupIndex>> hold;
  std::vector<DenseSlotSpace::GroupingDim> dims;
  hold.reserve(probe.live.size());
  dims.reserve(probe.live.size());
  probe.all_indexed = true;
  for (std::size_t i : probe.live) {
    std::shared_ptr<const RollupIndex> index =
        RollupIndex::For(mo.dimension(i));
    if (!index->has_flat_table()) {
      probe.all_indexed = false;
      return probe;
    }
    if (has_column(i, *index)) probe.live_columns.push_back(i);
    hold.push_back(std::move(index));
    dims.push_back({hold.back().get(), grouping[i]});
  }
  DenseSlotSpace space;
  switch (DenseSlotSpace::Build(dims, exec->max_dense_groupby_slots, &space)) {
    case DenseSlotSpace::Plan::kDense:
      probe.dense = true;
      probe.slot_product = space.slot_count();
      break;
    case DenseSlotSpace::Plan::kTooManySlots: {
      // Rebuild unbounded so EXPLAIN can still print the product (stays 0
      // when it overflows 64 bits).
      DenseSlotSpace wide;
      if (DenseSlotSpace::Build(dims,
                                std::numeric_limits<std::uint64_t>::max(),
                                &wide) == DenseSlotSpace::Plan::kDense) {
        probe.slot_product = wide.slot_count();
      }
      break;
    }
    case DenseSlotSpace::Plan::kNotIndexed:
      probe.all_indexed = false;
      break;
  }
  return probe;
}

Result<std::vector<StreamGroup>> AggregateStream(const MdObject& mo,
                                                 const StreamSpec& spec,
                                                 ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  const std::size_t n = mo.dimension_count();
  MDDC_RETURN_NOT_OK(CheckGrouping(mo, spec.grouping, "aggregate stream"));
  const std::vector<FactId>& facts = mo.facts();
  if (spec.keep != nullptr && spec.keep->size() != facts.size()) {
    return Status::InvalidArgument(
        StrCat("aggregate stream keep mask covers ", spec.keep->size(),
               " facts of ", facts.size()));
  }

  // The accumulator classes behind spec.functions.
  ScanRequest request;
  request.facts = facts;
  request.keep = spec.keep;
  request.grouping = &spec.grouping;
  request.prob_at = spec.prob_at;
  std::vector<std::size_t> class_of(spec.functions.size());
  for (std::size_t k = 0; k < spec.functions.size(); ++k) {
    const std::optional<AccumClass> cls = ClassOf(mo, spec.functions[k]);
    if (!cls.has_value()) continue;  // SetCount reads the member count
    std::size_t c = 0;
    while (c < request.classes.size() &&
           !(request.classes[c].dim == cls->dim &&
             request.classes[c].counts == cls->counts)) {
      ++c;
    }
    if (c == request.classes.size()) request.classes.push_back(*cls);
    class_of[k] = c;
  }

  ArenaResetGuard arena_guard{*exec};
  // Only the parallel gate reads the kept count, and a mask count is a
  // pass over it: count only where the gate can open.
  std::size_t kept = facts.size();
  if (spec.keep != nullptr && exec->WantsParallel(kept)) {
    kept = static_cast<std::size_t>(
        std::count(spec.keep->begin(), spec.keep->end(), true));
  }
  bool summarizable = true;
  if (exec->WantsParallel(kept)) {
    for (const AggFunction& fn : spec.functions) {
      summarizable = summarizable &&
          CheckSummarizability(mo, fn.kind(), spec.grouping).summarizable;
    }
  }
  request.parallel = ParallelGate(*exec, kept, summarizable);
  request.members = spec.collect_members;
  MDDC_ASSIGN_OR_RETURN(ScanResult scan, GroupByScan(mo, request, *exec));
  std::vector<ScanGroup>& groups = scan.groups;

  // Emission, function-major: function k's errors (CheckApplicable, then
  // each group's sticky class error or Finish failure, in canonical
  // group order) surface before function k+1 computes anything — exactly
  // the order running the functions one AggregateFormation at a time
  // produces.
  std::vector<StreamGroup> out(groups.size());
  for (std::size_t k = 0; k < spec.functions.size(); ++k) {
    const AggFunction& fn = spec.functions[k];
    if (spec.enforce_aggregation_types) {
      MDDC_RETURN_NOT_OK(fn.CheckApplicable(mo));
    }
    if (fn.args().empty()) {
      for (std::size_t t = 0; t < groups.size(); ++t) {
        out[t].values.push_back(static_cast<double>(groups[t].member_count()));
      }
      continue;
    }
    if (fn.args().front() >= n) {
      // Every group's evaluation would fail identically; surface it
      // exactly as AggregateFormation does (and stay silent when there
      // are no groups, as it does).
      if (!groups.empty()) {
        return Status::InvalidArgument(
            StrCat(fn.name(), " references dimension ", fn.args().front(),
                   " of a ", n, "-dimensional MO"));
      }
      continue;
    }
    const std::size_t c = class_of[k];
    for (std::size_t t = 0; t < groups.size(); ++t) {
      if (!groups[t].errors[c].ok()) return groups[t].errors[c];
      MDDC_ASSIGN_OR_RETURN(double value, fn.Finish(groups[t].accums[c]));
      out[t].values.push_back(value);
    }
  }
  // The formation interns every group as a set fact, so groups with one
  // member set are ONE result fact, rendered once under the first key in
  // canonical order. Their values are identical (same members, same fold
  // order); only the group count changes. Member sets can coincide only
  // when a fact joined two groups, and then the scan built the lists.
  std::vector<bool> first_of_set(groups.size(), true);
  if (scan.shared) {
    auto less = [](const std::vector<FactId>* a,
                   const std::vector<FactId>* b) { return *a < *b; };
    std::set<const std::vector<FactId>*, decltype(less)> seen(less);
    for (std::size_t t = 0; t < groups.size(); ++t) {
      first_of_set[t] = seen.insert(&groups[t].members).second;
    }
  }
  std::size_t emitted = 0;
  for (std::size_t t = 0; t < groups.size(); ++t) {
    if (!first_of_set[t]) continue;
    StreamGroup& group = out[emitted++];
    if (&group != &out[t]) group.values = std::move(out[t].values);
    group.key = std::move(groups[t].key);
    if (spec.collect_members) group.member_facts = std::move(groups[t].members);
  }
  out.resize(emitted);
  return out;
}

}  // namespace mddc
