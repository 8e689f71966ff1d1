#include "algebra/timeslice.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"

namespace mddc {
namespace {

enum class Axis { kValid, kTransaction };

const TemporalElement& Component(const Lifespan& life, Axis axis) {
  return axis == Axis::kValid ? life.valid : life.transaction;
}

/// Clears the sliced component (the slice "has no valid time attached").
Lifespan Residual(const Lifespan& life, Axis axis) {
  Lifespan result = life;
  if (axis == Axis::kValid) {
    result.valid = TemporalElement::Always();
  } else {
    result.transaction = TemporalElement::Always();
  }
  return result;
}

/// `index` is a compiled snapshot of `dimension`: the value scan walks
/// its dense value/category/membership arrays, laid out in ascending
/// ValueId order, instead of paying two map lookups per value.
Result<Dimension> TimesliceDimension(const Dimension& dimension, Chronon t,
                                     Axis axis, const RollupIndex& index) {
  Dimension result(dimension.type_ptr());
  for (std::uint32_t d = 0; d < index.value_count(); ++d) {
    if (d == index.top_dense()) continue;
    const Lifespan& membership = index.MembershipOfDense(d);
    if (!Component(membership, axis).Contains(t)) continue;
    MDDC_RETURN_NOT_OK(result.AddValue(index.CategoryOfDense(d),
                                       index.ValueOf(d),
                                       Residual(membership, axis)));
  }
  for (const Dimension::Edge& edge : dimension.edges()) {
    if (!Component(edge.life, axis).Contains(t)) continue;
    if (!result.HasValue(edge.child) || !result.HasValue(edge.parent)) {
      continue;  // an endpoint was not a member at t
    }
    MDDC_RETURN_NOT_OK(result.AddOrder(edge.child, edge.parent,
                                       Residual(edge.life, axis), edge.prob));
  }
  for (const auto& [category, rep_name, rep] :
       dimension.AllRepresentations()) {
    Representation& target = result.RepresentationFor(category, rep_name);
    for (ValueId value : dimension.ValuesInView(category)) {
      if (!result.HasValue(value)) continue;
      for (const auto& [text, life] : rep->GetAll(value)) {
        if (!Component(life, axis).Contains(t)) continue;
        MDDC_RETURN_NOT_OK(target.Set(value, text, Residual(life, axis)));
      }
    }
  }
  return result;
}

Result<MdObject> Timeslice(const MdObject& mo, Chronon t, Axis axis,
                           TemporalType new_type, ExecContext& exec) {
  const std::size_t n = mo.dimension_count();
  // No summarizability gate: every output cell depends only on one input
  // cell and `t`, so slicing is always safely parallel. A context asking
  // for parallelism on too small an input counts a fallback, like Join.
  bool parallel = false;
  if (exec.num_threads > 1) {
    if (exec.WantsParallel(mo.fact_count())) {
      parallel = true;
    } else {
      ++exec.stats.sequential_fallbacks;
    }
  }
  if (parallel) {
    // Pure-read discipline: warm the lazily written closure memos before
    // any fan-out so workers (and concurrent readers of the operand)
    // never write into the dimensions.
    for (std::size_t i = 0; i < n; ++i) mo.dimension(i).WarmClosureMemo();
  }

  // Compiled snapshots for the dense value scan. Obtained on the query
  // thread — For() may write the snapshot slot — so the fan-out below
  // only reads them. The dense path needs no strictness gate (it uses
  // only the value/category/membership arrays).
  std::vector<std::shared_ptr<const RollupIndex>> indexes(n);
  for (std::size_t i = 0; i < n; ++i) {
    indexes[i] = RollupIndex::For(mo.dimension(i), &exec.stats);
    ++exec.stats.index_hits;
  }

  // 1. Slice the dimensions, one independent result slot each; the first
  //    error in dimension order — the one the sequential loop would hit —
  //    is returned.
  std::vector<Dimension> dimensions;
  dimensions.reserve(n);
  if (parallel) {
    std::vector<std::optional<Result<Dimension>>> slots(n);
    exec.pool().ParallelFor(n, [&](std::size_t i) {
      slots[i].emplace(
          TimesliceDimension(mo.dimension(i), t, axis, *indexes[i]));
    });
    exec.stats.tasks += n;
    for (std::size_t i = 0; i < n; ++i) {
      MDDC_RETURN_NOT_OK(slots[i]->status());
      dimensions.push_back(std::move(*slots[i]).ValueOrDie());
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      MDDC_ASSIGN_OR_RETURN(
          Dimension sliced,
          TimesliceDimension(mo.dimension(i), t, axis, *indexes[i]));
      dimensions.push_back(std::move(sliced));
    }
  }
  MdObject result(mo.schema().fact_type(), std::move(dimensions),
                  mo.registry(), new_type);

  // 2. Slice the fact-dimension relations. The surviving entries of one
  //    relation must be appended in entry order, but deciding survival
  //    (and computing the residual lifespan) is a pure read — so the
  //    parallel path filters contiguous entry chunks into per-chunk
  //    slots and appends them in chunk order: byte-identical, no merge.
  std::vector<FactDimRelation> sliced(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ChunkedVector<FactDimRelation::Entry>& entries =
        mo.relation(i).entries();
    const Dimension& dimension = result.dimension(i);
    if (parallel && !entries.empty()) {
      const std::size_t chunks =
          std::min(entries.size(), exec.num_threads * 4);
      std::vector<std::vector<std::pair<std::size_t, Lifespan>>> kept(chunks);
      exec.pool().ParallelFor(chunks, [&](std::size_t chunk) {
        const std::size_t begin = chunk * entries.size() / chunks;
        const std::size_t end = (chunk + 1) * entries.size() / chunks;
        for (std::size_t e = begin; e < end; ++e) {
          const FactDimRelation::Entry& entry = entries[e];
          if (!Component(entry.life, axis).Contains(t)) continue;
          if (!dimension.HasValue(entry.value)) continue;
          kept[chunk].emplace_back(e, Residual(entry.life, axis));
        }
      });
      exec.stats.tasks += chunks;
      for (const auto& chunk : kept) {
        for (const auto& [e, life] : chunk) {
          MDDC_RETURN_NOT_OK(
              sliced[i].Add(entries[e].fact, entries[e].value, life,
                            entries[e].prob));
        }
      }
    } else {
      for (const FactDimRelation::Entry& entry : entries) {
        if (!Component(entry.life, axis).Contains(t)) continue;
        if (!dimension.HasValue(entry.value)) continue;
        MDDC_RETURN_NOT_OK(sliced[i].Add(entry.fact, entry.value,
                                         Residual(entry.life, axis),
                                         entry.prob));
      }
    }
  }

  // 3. Keep facts that retain at least one pair in every dimension at t
  //    (otherwise they would violate the no-missing-values rule). The
  //    coverage check is a pure read of the sliced relations, one flag
  //    slot per fact; facts are then added sequentially in fact order.
  const std::vector<FactId>& facts = mo.facts();
  if (parallel && !facts.empty()) {
    std::vector<unsigned char> covered(facts.size(), 0);
    const std::size_t chunks = std::min(facts.size(), exec.num_threads * 4);
    exec.pool().ParallelFor(chunks, [&](std::size_t chunk) {
      const std::size_t begin = chunk * facts.size() / chunks;
      const std::size_t end = (chunk + 1) * facts.size() / chunks;
      for (std::size_t f = begin; f < end; ++f) {
        bool all = true;
        for (std::size_t i = 0; i < n; ++i) {
          if (!sliced[i].HasFact(facts[f])) {
            all = false;
            break;
          }
        }
        covered[f] = all ? 1 : 0;
      }
    });
    exec.stats.tasks += chunks;
    for (std::size_t f = 0; f < facts.size(); ++f) {
      if (covered[f] != 0) MDDC_RETURN_NOT_OK(result.AddFact(facts[f]));
    }
    ++exec.stats.parallel_runs;
    ++exec.stats.timeslice_parallel_runs;
  } else {
    for (FactId fact : facts) {
      bool all = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (!sliced[i].HasFact(fact)) {
          all = false;
          break;
        }
      }
      if (all) MDDC_RETURN_NOT_OK(result.AddFact(fact));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    sliced[i].RestrictToFacts(result.facts());
    result.relation_mutable(i) = std::move(sliced[i]);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

}  // namespace

Result<MdObject> ValidTimeslice(const MdObject& mo, Chronon t,
                                ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  TemporalType new_type;
  switch (mo.temporal_type()) {
    case TemporalType::kValidTime:
      new_type = TemporalType::kSnapshot;
      break;
    case TemporalType::kBitemporal:
      new_type = TemporalType::kTransactionTime;
      break;
    default:
      return Status::TemporalTypeMismatch(
          StrCat("valid-timeslice applies to valid-time or bitemporal MOs; "
                 "this MO is ",
                 TemporalTypeName(mo.temporal_type())));
  }
  return Timeslice(mo, t, Axis::kValid, new_type, *exec);
}

Result<MdObject> TransactionTimeslice(const MdObject& mo, Chronon t,
                                      ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  TemporalType new_type;
  switch (mo.temporal_type()) {
    case TemporalType::kTransactionTime:
      new_type = TemporalType::kSnapshot;
      break;
    case TemporalType::kBitemporal:
      new_type = TemporalType::kValidTime;
      break;
    default:
      return Status::TemporalTypeMismatch(
          StrCat("transaction-timeslice applies to transaction-time or "
                 "bitemporal MOs; this MO is ",
                 TemporalTypeName(mo.temporal_type())));
  }
  return Timeslice(mo, t, Axis::kTransaction, new_type, *exec);
}

}  // namespace mddc
