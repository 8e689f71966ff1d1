#ifndef MDDC_CORE_REPRESENTATION_H_
#define MDDC_CORE_REPRESENTATION_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/id.h"
#include "common/interner.h"
#include "common/result.h"
#include "temporal/lifespan.h"

namespace mddc {

/// A representation of a category (paper Section 3.1): a bijective,
/// possibly time-varying mapping between dimension values and external
/// names, Rep(e) =Tv v. A diagnosis value, for example, has a Code and a
/// Text representation, and the code "D1" maps to value 8 only during
/// [01/01/70-31/12/79] (Example 9). Bijectivity is enforced per chronon:
/// at any time, a value has at most one representation string and a string
/// denotes at most one value.
///
/// Texts live in a StringInterner (docs/memory_layout.md): each distinct
/// string is stored once, both directions of the mapping hold StringId
/// handles, and Lookup/Set probe by hash without materializing a key, so
/// string-keyed resolution allocates nothing.
class Representation {
 public:
  explicit Representation(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds the mapping Rep(value) = text during `life`. Fails with
  /// InvariantViolation if it would make the mapping non-bijective at some
  /// chronon (either endpoint already mapped during an overlapping time).
  Status Set(ValueId value, std::string_view text,
             const Lifespan& life = Lifespan::AlwaysSpan());

  /// The representation of `value` at valid chronon `at` (and current
  /// transaction time). NotFound when unmapped at that time.
  Result<std::string> Get(ValueId value, Chronon at = kNowChronon) const;

  /// All timed representations of `value`.
  std::vector<std::pair<std::string, Lifespan>> GetAll(ValueId value) const;

  /// The value denoted by `text` at valid chronon `at` (the inverse
  /// mapping; representations are alternate keys). Allocation-free: the
  /// probe hashes `text` against the interner and walks the per-string
  /// entry list.
  Result<ValueId> Lookup(std::string_view text,
                         Chronon at = kNowChronon) const;

  /// Interprets the representation of `value` at `at` as a number, for
  /// use by SUM/AVG/MIN/MAX aggregate functions over measure-like
  /// dimensions such as Age. Parses straight out of the interner pool
  /// (every interned string is NUL-terminated) — no string copy.
  Result<double> GetNumeric(ValueId value, Chronon at = kNowChronon) const;

  /// True when every entry of `value` is valid at all times (vacuously
  /// when it has none): Get and GetNumeric then answer the same at every
  /// chronon of the time domain.
  bool TimelessFor(ValueId value) const;

  /// Number of (value, text, lifespan) entries.
  std::size_t size() const;

 private:
  /// One timed mapping, from the value side.
  struct Entry {
    StringId text;
    Lifespan life;
  };
  /// One timed mapping, from the text side.
  struct TextEntry {
    ValueId value;
    Lifespan life;
  };

  /// The entries of `value`, nullptr when it has none.
  const std::vector<Entry>* EntriesFor(ValueId value) const;
  /// The timed entry of `value` live at `at`, nullptr when unmapped.
  const Entry* EntryAt(ValueId value, Chronon at) const;

  std::string name_;

  /// Distinct texts, stored once; StringIds are dense, so the text side
  /// of the mapping is a plain vector indexed by StringId.
  StringInterner interner_;

  /// Value side: open-addressing table over dense parallel
  /// (value, entry-list) arrays — the FlatListIndex shape of
  /// FactDimRelation, with ValueId keys.
  FlatHashIndex value_index_;
  std::vector<ValueId> value_keys_;
  std::vector<std::vector<Entry>> value_entries_;

  /// Text side, indexed by StringId.
  std::vector<std::vector<TextEntry>> by_text_;
};

}  // namespace mddc

#endif  // MDDC_CORE_REPRESENTATION_H_
