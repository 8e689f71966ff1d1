#ifndef MDDC_ALGEBRA_PREDICATE_H_
#define MDDC_ALGEBRA_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/md_object.h"

namespace mddc {

struct ExecStats;

/// A predicate on the dimension values characterizing a fact, used by the
/// selection operator (paper Section 4.1): sigma[p](M) keeps the facts f
/// for which there exist characterizing values e_1..e_n with p(e_1..e_n).
///
/// Predicates are composable trees. Leaves existentially quantify over a
/// fact's characterizing values in one dimension ("f is characterized by
/// some value of category C whose Code representation is 'E10'");
/// combinators are And/Or/Not. Temporal leaves restrict the time at which
/// a characterization must hold, supporting the paper's "predicates that
/// refer to time" (Section 4.2); probabilistic leaves threshold the
/// characterization probability (Section 3.3).
class Predicate {
 public:
  /// Always true (selection degenerates to identity).
  static Predicate True();

  /// f ~> value in dimension `dim` at some time.
  static Predicate CharacterizedBy(std::size_t dim, ValueId value);

  /// f ~> value in dimension `dim` at valid chronon `at`.
  static Predicate CharacterizedByAt(std::size_t dim, ValueId value,
                                     Chronon at);

  /// f ~> value during every chronon of `element`.
  static Predicate CharacterizedThroughout(std::size_t dim, ValueId value,
                                           TemporalElement element);

  /// f is characterized by some non-top value of category `category` in
  /// dimension `dim`.
  static Predicate HasValueInCategory(std::size_t dim,
                                      CategoryTypeIndex category);

  /// f ~> the value of category `category` whose representation
  /// `rep_name` equals `text` (at chronon `at` for the name lookup).
  static Predicate RepresentationEquals(std::size_t dim,
                                        CategoryTypeIndex category,
                                        std::string rep_name,
                                        std::string text,
                                        Chronon at = kNowChronon);

  enum class Comparison { kLess, kLessEq, kEq, kGreaterEq, kGreater };

  /// Some directly related value of dimension `dim` has a numeric
  /// interpretation satisfying `comparison` against `bound` (e.g.
  /// "Age >= 65").
  static Predicate NumericCompare(std::size_t dim, Comparison comparison,
                                  double bound);

  /// f ~> value with probability at least `threshold` (uncertainty
  /// selection, e.g. "at least 95% certain diabetics").
  static Predicate MinProbability(std::size_t dim, ValueId value,
                                  double threshold,
                                  Chronon at = kNowChronon);

  /// Some directly related value of dimension `dim_a` and some of
  /// dimension `dim_b` share the same `rep_name` representation text at
  /// chronon `at` (an attribute = attribute comparison in relational
  /// terms; enables equi-join simulation for Theorem 2). Top values never
  /// match.
  static Predicate SameRepresentedValue(std::size_t dim_a, std::size_t dim_b,
                                        std::string rep_name = "Value",
                                        Chronon at = kNowChronon);

  Predicate And(Predicate other) const;
  Predicate Or(Predicate other) const;
  Predicate Not() const;

  /// Evaluates the predicate for one fact of `mo`.
  Result<bool> Evaluate(const MdObject& mo, FactId fact) const;

  /// Evaluates the predicate for every fact of `mo`: a keep mask aligned
  /// with mo.facts(), equal to calling Evaluate per fact (the first error
  /// included). Atoms that are properties of a value are decided once per
  /// distinct value and swept over each relation's dense column
  /// (docs/mdql_compiler.md): an any-time characterization or category
  /// test on a dimension with a flat rollup table becomes a bitmap over
  /// dense ids, a numeric comparison reads the snapshot's numeric column
  /// (RollupIndex::Numeric) and calls NumericValueOf only for timed
  /// values, once each, and for values outside the snapshot. PROB,
  /// time-restricted, representation-resolved and flat-table-less atoms
  /// run per fact; NOT, AND and OR combine masks. A predicate that could
  /// fail runs the per-fact loop whole. `stats` (nullable) counts the
  /// numeric atoms' NumericValueOf calls in numeric_lookups.
  Result<std::vector<bool>> EvaluateMask(const MdObject& mo,
                                         ExecStats* stats = nullptr) const;

  /// EvaluateMask's plan for `mo`, for EXPLAIN: which atoms are value
  /// masks and which run per fact, e.g.
  /// "value masks [char(1,42)], per fact [prob(0,7 >= 0.8)]".
  std::string DescribeMask(const MdObject& mo) const;

  /// Human-readable form, e.g. "(char(0,9) AND NOT num(1 >= 65))".
  std::string ToString() const;

  /// Implementation detail (defined in predicate.cc); public only so the
  /// evaluation helpers there can name it.
  struct Node;

 private:
  explicit Predicate(std::shared_ptr<const Node> root)
      : root_(std::move(root)) {}

  std::shared_ptr<const Node> root_;
};

}  // namespace mddc

#endif  // MDDC_ALGEBRA_PREDICATE_H_
