#include "reference/relational_reference.h"

#include <cstdint>
#include <map>
#include <set>

namespace mddc {
namespace reference {

using relational::AggregateTerm;
using relational::Relation;
using relational::Tuple;
using relational::Value;

Result<Relation> RelationalAggregate(const Relation& r,
                                     const std::vector<std::string>& group_by,
                                     const std::vector<AggregateTerm>& terms) {
  std::vector<std::size_t> group_indexes;
  for (const std::string& name : group_by) {
    MDDC_ASSIGN_OR_RETURN(std::size_t index, r.AttributeIndex(name));
    group_indexes.push_back(index);
  }
  std::vector<std::size_t> term_indexes;
  for (const AggregateTerm& term : terms) {
    std::size_t index = 0;
    if (term.func != AggregateTerm::Func::kCountStar) {
      MDDC_ASSIGN_OR_RETURN(index, r.AttributeIndex(term.attribute));
    }
    term_indexes.push_back(index);
  }

  std::map<std::vector<Value>, std::vector<const Tuple*>> groups;
  for (const Tuple& tuple : r.tuples()) {
    std::vector<Value> key;
    for (std::size_t index : group_indexes) key.push_back(tuple[index]);
    groups[std::move(key)].push_back(&tuple);
  }

  std::vector<std::string> attributes = group_by;
  for (const AggregateTerm& term : terms) {
    attributes.push_back(term.result_name);
  }
  Relation result(std::move(attributes));
  for (const auto& [key, members] : groups) {
    Tuple row = key;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      const std::size_t index = term_indexes[t];
      // The non-null values of the term's attribute, in relation order.
      std::vector<Value> values;
      for (const Tuple* tuple : members) {
        if (!(*tuple)[index].is_null()) values.push_back((*tuple)[index]);
      }
      switch (terms[t].func) {
        case AggregateTerm::Func::kCountStar:
          row.push_back(Value(static_cast<std::int64_t>(members.size())));
          break;
        case AggregateTerm::Func::kCount:
          row.push_back(Value(static_cast<std::int64_t>(values.size())));
          break;
        case AggregateTerm::Func::kCountDistinct:
          row.push_back(Value(static_cast<std::int64_t>(
              std::set<Value>(values.begin(), values.end()).size())));
          break;
        case AggregateTerm::Func::kSum:
        case AggregateTerm::Func::kAvg: {
          double sum = 0.0;
          for (const Value& value : values) {
            MDDC_ASSIGN_OR_RETURN(double number, value.AsDouble());
            sum += number;
          }
          if (terms[t].func == AggregateTerm::Func::kSum) {
            row.push_back(Value(sum));
          } else {
            row.push_back(values.empty()
                              ? Value::Null()
                              : Value(sum / static_cast<std::int64_t>(
                                                values.size())));
          }
          break;
        }
        case AggregateTerm::Func::kMin:
        case AggregateTerm::Func::kMax: {
          if (values.empty()) {
            row.push_back(Value::Null());
            break;
          }
          Value best = values.front();
          for (const Value& value : values) {
            if (terms[t].func == AggregateTerm::Func::kMin ? value < best
                                                           : best < value) {
              best = value;
            }
          }
          row.push_back(best);
          break;
        }
      }
    }
    MDDC_RETURN_NOT_OK(result.Insert(std::move(row)));
  }
  return result;
}

}  // namespace reference
}  // namespace mddc
