#include "relational/algebra.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <set>

#include "common/strings.h"
#include "engine/executor.h"
#include "engine/groupby_kernel.h"

namespace mddc {
namespace relational {
namespace {

Status RequireUnionCompatible(const Relation& r, const Relation& s,
                              const char* op) {
  if (r.attributes() != s.attributes()) {
    return Status::SchemaMismatch(
        StrCat(op, " requires union-compatible relations"));
  }
  return Status::OK();
}

}  // namespace

Result<Relation> Select(const Relation& r, const Condition& condition) {
  MDDC_ASSIGN_OR_RETURN(std::size_t index,
                        r.AttributeIndex(condition.attribute));
  Relation result(r.attributes());
  for (const Tuple& tuple : r.tuples()) {
    const Value& value = tuple[index];
    bool keep = false;
    switch (condition.op) {
      case Condition::Op::kEq:
        keep = value == condition.constant;
        break;
      case Condition::Op::kNe:
        keep = value != condition.constant;
        break;
      case Condition::Op::kLt:
        keep = value < condition.constant;
        break;
      case Condition::Op::kLe:
        keep = value < condition.constant || value == condition.constant;
        break;
      case Condition::Op::kGt:
        keep = condition.constant < value;
        break;
      case Condition::Op::kGe:
        keep = condition.constant < value || value == condition.constant;
        break;
    }
    if (keep) MDDC_RETURN_NOT_OK(result.Insert(tuple));
  }
  return result;
}

Result<Relation> SelectAttrEq(const Relation& r, const std::string& a,
                              const std::string& b) {
  MDDC_ASSIGN_OR_RETURN(std::size_t ia, r.AttributeIndex(a));
  MDDC_ASSIGN_OR_RETURN(std::size_t ib, r.AttributeIndex(b));
  Relation result(r.attributes());
  for (const Tuple& tuple : r.tuples()) {
    if (!tuple[ia].is_null() && tuple[ia] == tuple[ib]) {
      MDDC_RETURN_NOT_OK(result.Insert(tuple));
    }
  }
  return result;
}

Result<Relation> SelectWhere(
    const Relation& r,
    const std::function<Result<bool>(const Relation&, const Tuple&)>& p) {
  Relation result(r.attributes());
  for (const Tuple& tuple : r.tuples()) {
    MDDC_ASSIGN_OR_RETURN(bool keep, p(r, tuple));
    if (keep) MDDC_RETURN_NOT_OK(result.Insert(tuple));
  }
  return result;
}

Result<Relation> Project(const Relation& r,
                         const std::vector<std::string>& attributes) {
  std::vector<std::size_t> indexes;
  for (const std::string& name : attributes) {
    MDDC_ASSIGN_OR_RETURN(std::size_t index, r.AttributeIndex(name));
    indexes.push_back(index);
  }
  Relation result(attributes);
  for (const Tuple& tuple : r.tuples()) {
    Tuple projected;
    projected.reserve(indexes.size());
    for (std::size_t index : indexes) projected.push_back(tuple[index]);
    MDDC_RETURN_NOT_OK(result.Insert(std::move(projected)));
  }
  return result;
}

Result<Relation> RenameAttributes(const Relation& r,
                                  const std::vector<std::string>& names) {
  if (names.size() != r.arity()) {
    return Status::InvalidArgument(
        StrCat("rename got ", names.size(), " names for arity ", r.arity()));
  }
  Relation result(names);
  for (const Tuple& tuple : r.tuples()) {
    MDDC_RETURN_NOT_OK(result.Insert(tuple));
  }
  return result;
}

Result<Relation> Union(const Relation& r, const Relation& s) {
  MDDC_RETURN_NOT_OK(RequireUnionCompatible(r, s, "union"));
  Relation result = r;
  for (const Tuple& tuple : s.tuples()) {
    MDDC_RETURN_NOT_OK(result.Insert(tuple));
  }
  return result;
}

Result<Relation> Difference(const Relation& r, const Relation& s) {
  MDDC_RETURN_NOT_OK(RequireUnionCompatible(r, s, "difference"));
  Relation result(r.attributes());
  for (const Tuple& tuple : r.tuples()) {
    if (!s.Contains(tuple)) MDDC_RETURN_NOT_OK(result.Insert(tuple));
  }
  return result;
}

Result<Relation> Product(const Relation& r, const Relation& s) {
  std::vector<std::string> attributes = r.attributes();
  for (const std::string& name : s.attributes()) {
    if (std::find(attributes.begin(), attributes.end(), name) !=
        attributes.end()) {
      return Status::InvalidArgument(
          StrCat("product operands share attribute '", name,
                 "'; rename first"));
    }
    attributes.push_back(name);
  }
  Relation result(std::move(attributes));
  for (const Tuple& left : r.tuples()) {
    for (const Tuple& right : s.tuples()) {
      Tuple combined = left;
      combined.insert(combined.end(), right.begin(), right.end());
      MDDC_RETURN_NOT_OK(result.Insert(std::move(combined)));
    }
  }
  return result;
}

Result<Relation> EquiJoin(
    const Relation& r, const Relation& s,
    const std::vector<std::pair<std::string, std::string>>& on) {
  std::vector<std::pair<std::size_t, std::size_t>> indexes;
  for (const auto& [left, right] : on) {
    MDDC_ASSIGN_OR_RETURN(std::size_t li, r.AttributeIndex(left));
    MDDC_ASSIGN_OR_RETURN(std::size_t ri, s.AttributeIndex(right));
    indexes.emplace_back(li, ri);
  }
  std::vector<std::string> attributes = r.attributes();
  for (const std::string& name : s.attributes()) {
    std::string out = name;
    if (std::find(attributes.begin(), attributes.end(), out) !=
        attributes.end()) {
      out += "'";
    }
    attributes.push_back(out);
  }
  Relation result(std::move(attributes));

  // Hash the right side on its join key.
  std::map<std::vector<Value>, std::vector<const Tuple*>> index;
  for (const Tuple& right : s.tuples()) {
    std::vector<Value> key;
    key.reserve(indexes.size());
    for (const auto& [li, ri] : indexes) {
      (void)li;
      key.push_back(right[ri]);
    }
    index[std::move(key)].push_back(&right);
  }
  for (const Tuple& left : r.tuples()) {
    std::vector<Value> key;
    key.reserve(indexes.size());
    for (const auto& [li, ri] : indexes) {
      (void)ri;
      key.push_back(left[li]);
    }
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (const Tuple* right : it->second) {
      Tuple combined = left;
      combined.insert(combined.end(), right->begin(), right->end());
      MDDC_RETURN_NOT_OK(result.Insert(std::move(combined)));
    }
  }
  return result;
}

Result<Relation> NaturalJoin(const Relation& r, const Relation& s) {
  std::vector<std::pair<std::string, std::string>> on;
  for (const std::string& name : r.attributes()) {
    if (s.AttributeIndex(name).ok()) on.emplace_back(name, name);
  }
  if (on.empty()) return Product(r, s);
  MDDC_ASSIGN_OR_RETURN(Relation joined, EquiJoin(r, s, on));
  // Drop the duplicated right-side join attributes (renamed with ').
  std::vector<std::string> keep;
  for (const std::string& name : joined.attributes()) {
    if (name.size() > 1 && name.back() == '\'') {
      std::string base = name.substr(0, name.size() - 1);
      bool is_join_attribute = false;
      for (const auto& [left, right] : on) {
        (void)left;
        if (right == base) is_join_attribute = true;
      }
      if (is_join_attribute) continue;
    }
    keep.push_back(name);
  }
  return Project(joined, keep);
}

namespace {

using GroupMembers = std::vector<const Tuple*>;

std::uint64_t GroupKeyHash(const std::vector<Value>& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Value& value : key) {
    h ^= value.Hash();
    h *= 1099511628211ull;
  }
  return h;
}

/// One worker's share of a flat-hash group-by run: keys intern through the
/// open-addressing index into dense ordinals; `keys` and `members` grow in
/// lockstep with the assigned ordinals.
struct FlatPartition {
  FlatHashGroupIndex index;
  std::vector<std::vector<Value>> keys;
  std::vector<GroupMembers> members;
};

/// One output tuple: the group key extended with the aggregate results,
/// computed over the members in scan order (so floating-point sums
/// accumulate identically on either execution path). Pure — safe to
/// evaluate distinct groups concurrently.
Result<Tuple> GroupRow(const std::vector<Value>& key,
                       const GroupMembers& members,
                       const std::vector<AggregateTerm>& terms,
                       const std::vector<std::size_t>& term_indexes) {
  Tuple out = key;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const AggregateTerm& term = terms[t];
    const std::size_t index = term_indexes[t];
    switch (term.func) {
      case AggregateTerm::Func::kCountStar:
        out.push_back(Value(static_cast<std::int64_t>(members.size())));
        break;
      case AggregateTerm::Func::kCount: {
        std::int64_t count = 0;
        for (const Tuple* tuple : members) {
          if (!(*tuple)[index].is_null()) ++count;
        }
        out.push_back(Value(count));
        break;
      }
      case AggregateTerm::Func::kCountDistinct: {
        std::set<Value> distinct;
        for (const Tuple* tuple : members) {
          if (!(*tuple)[index].is_null()) distinct.insert((*tuple)[index]);
        }
        out.push_back(Value(static_cast<std::int64_t>(distinct.size())));
        break;
      }
      case AggregateTerm::Func::kSum:
      case AggregateTerm::Func::kAvg: {
        double sum = 0.0;
        std::int64_t count = 0;
        for (const Tuple* tuple : members) {
          if ((*tuple)[index].is_null()) continue;
          MDDC_ASSIGN_OR_RETURN(double value, (*tuple)[index].AsDouble());
          sum += value;
          ++count;
        }
        if (term.func == AggregateTerm::Func::kSum) {
          out.push_back(Value(sum));
        } else {
          out.push_back(count == 0 ? Value::Null() : Value(sum / count));
        }
        break;
      }
      case AggregateTerm::Func::kMin:
      case AggregateTerm::Func::kMax: {
        bool first = true;
        Value best;
        for (const Tuple* tuple : members) {
          const Value& value = (*tuple)[index];
          if (value.is_null()) continue;
          if (first || (term.func == AggregateTerm::Func::kMin
                            ? value < best
                            : best < value)) {
            best = value;
            first = false;
          }
        }
        out.push_back(first ? Value::Null() : best);
        break;
      }
    }
  }
  return out;
}

}  // namespace

Result<Relation> Aggregate(const Relation& r,
                           const std::vector<std::string>& group_by,
                           const std::vector<AggregateTerm>& terms,
                           ExecContext* exec) {
  ExecContext sequential;
  if (exec == nullptr) exec = &sequential;
  std::vector<std::size_t> group_indexes;
  for (const std::string& name : group_by) {
    MDDC_ASSIGN_OR_RETURN(std::size_t index, r.AttributeIndex(name));
    group_indexes.push_back(index);
  }
  std::vector<std::size_t> term_indexes;
  for (const AggregateTerm& term : terms) {
    if (term.func == AggregateTerm::Func::kCountStar) {
      term_indexes.push_back(0);
      continue;
    }
    MDDC_ASSIGN_OR_RETURN(std::size_t index,
                          r.AttributeIndex(term.attribute));
    term_indexes.push_back(index);
  }

  const bool parallel = exec->WantsParallel(r.tuples().size());

  // Group the tuples with the flat-hash engine (docs/groupby_kernel.md),
  // then present the groups as one key-ordered view. Relational group-by
  // has no summarizability precondition (every Klug aggregate here is
  // computed from the whole member list, never merged from partials), so
  // the parallel path only needs groups built whole: workers share a scan
  // of the tuples, each interning only the keys of its hash partition, so
  // the partitions are disjoint and one final key sort restores key
  // order.
  using OrderedGroup = std::pair<const std::vector<Value>*,
                                 const GroupMembers*>;
  ++exec->stats.flat_hash_runs;
  const std::size_t num_partitions = parallel ? exec->num_threads : 1;
  std::vector<FlatPartition> partitions(num_partitions);
  auto scan_partition = [&](std::size_t p) {
    FlatPartition& part = partitions[p];
    std::vector<Value> key;
    for (const Tuple& tuple : r.tuples()) {
      key.clear();
      for (std::size_t index : group_indexes) key.push_back(tuple[index]);
      const std::uint64_t hash = GroupKeyHash(key);
      if (num_partitions > 1 && hash % num_partitions != p) continue;
      bool inserted = false;
      const std::uint32_t g = part.index.FindOrInsert(
          hash, static_cast<std::uint32_t>(part.keys.size()),
          [&](std::uint32_t ordinal) { return part.keys[ordinal] == key; },
          &inserted);
      if (inserted) {
        part.keys.push_back(key);
        part.members.emplace_back();
      }
      part.members[g].push_back(&tuple);
    }
  };
  if (parallel) {
    exec->pool().ParallelFor(num_partitions, scan_partition);
    exec->stats.tasks += num_partitions;
    exec->stats.partitions += num_partitions;
  } else {
    scan_partition(0);
  }
  std::size_t total = 0;
  for (const FlatPartition& part : partitions) total += part.keys.size();
  std::vector<OrderedGroup> ordered;
  ordered.reserve(total);
  const auto merge_start = std::chrono::steady_clock::now();
  for (const FlatPartition& part : partitions) {
    for (std::size_t g = 0; g < part.keys.size(); ++g) {
      ordered.push_back({&part.keys[g], &part.members[g]});
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const OrderedGroup& a, const OrderedGroup& b) {
              return *a.first < *b.first;
            });
  if (parallel) {
    exec->stats.merge_nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count());
  }

  std::vector<std::string> attributes = group_by;
  for (const AggregateTerm& term : terms) {
    attributes.push_back(term.result_name);
  }
  Relation result(std::move(attributes));

  if (parallel) {
    // Evaluate groups concurrently into per-group slots (first error in
    // group order wins — no exceptions cross the pool boundary), then
    // insert sequentially in key order.
    std::vector<Tuple> rows(ordered.size());
    std::vector<Status> statuses(ordered.size());
    const std::size_t chunks =
        std::min(std::max<std::size_t>(ordered.size(), 1),
                 exec->num_threads * 4);
    exec->pool().ParallelFor(chunks, [&](std::size_t chunk) {
      const std::size_t begin = chunk * ordered.size() / chunks;
      const std::size_t end = (chunk + 1) * ordered.size() / chunks;
      for (std::size_t g = begin; g < end; ++g) {
        Result<Tuple> row = GroupRow(*ordered[g].first, *ordered[g].second,
                                     terms, term_indexes);
        if (row.ok()) {
          rows[g] = std::move(*row);
        } else {
          statuses[g] = row.status();
        }
      }
    });
    exec->stats.tasks += chunks;
    for (const Status& status : statuses) {
      MDDC_RETURN_NOT_OK(status);
    }
    ++exec->stats.parallel_runs;
    for (Tuple& row : rows) {
      MDDC_RETURN_NOT_OK(result.Insert(std::move(row)));
    }
  } else {
    for (const OrderedGroup& group : ordered) {
      MDDC_ASSIGN_OR_RETURN(
          Tuple row, GroupRow(*group.first, *group.second, terms,
                              term_indexes));
      MDDC_RETURN_NOT_OK(result.Insert(std::move(row)));
    }
  }
  return result;
}

}  // namespace relational
}  // namespace mddc
