#include "core/representation.h"

#include <cstdlib>

#include "common/strings.h"

namespace mddc {

const std::vector<Representation::Entry>* Representation::EntriesFor(
    ValueId value) const {
  const std::uint32_t ordinal = value_index_.Find(
      Fnv1a64Word(value.raw()),
      [&](std::uint32_t o) { return value_keys_[o] == value; });
  return ordinal == FlatHashIndex::kNone ? nullptr : &value_entries_[ordinal];
}

const Representation::Entry* Representation::EntryAt(ValueId value,
                                                     Chronon at) const {
  const std::vector<Entry>* entries = EntriesFor(value);
  if (entries == nullptr) return nullptr;
  for (const Entry& entry : *entries) {
    // NOW-ending valid times contain every concrete chronon at or after
    // their begin because the NOW sentinel exceeds all concrete values.
    if (entry.life.valid.Contains(at)) return &entry;
  }
  return nullptr;
}

Status Representation::Set(ValueId value, std::string_view text,
                           const Lifespan& life) {
  if (!value.valid()) {
    return Status::InvalidArgument("representation for invalid value id");
  }
  if (life.Empty()) {
    return Status::InvalidArgument(
        StrCat("empty lifespan for representation '", name_, "' of value ",
               value));
  }
  const StringId known_text = interner_.Find(text);
  // Re-asserting the same mapping coalesces lifespans (the attached time
  // is always the maximal chronon set). Distinct overlapping mappings
  // violate bijectivity.
  bool inserted = false;
  const std::uint32_t ordinal = value_index_.FindOrInsert(
      Fnv1a64Word(value.raw()),
      static_cast<std::uint32_t>(value_keys_.size()),
      [&](std::uint32_t o) { return value_keys_[o] == value; }, &inserted);
  if (inserted) {
    value_keys_.push_back(value);
    value_entries_.emplace_back();
  }
  for (Entry& entry : value_entries_[ordinal]) {
    if (entry.text == known_text && known_text != kInvalidStringId) {
      entry.life = entry.life.Union(life);
      for (TextEntry& other : by_text_[known_text]) {
        if (other.value == value) other.life = entry.life;
      }
      return Status::OK();
    }
    if (entry.life.valid.Overlaps(life.valid) &&
        entry.life.transaction.Overlaps(life.transaction)) {
      return Status::InvariantViolation(
          StrCat("representation '", name_, "': value ", value,
                 " already maps to '", interner_.View(entry.text),
                 "' during ", entry.life.ToString()));
    }
  }
  if (known_text != kInvalidStringId) {
    for (const TextEntry& other : by_text_[known_text]) {
      if (other.value != value && other.life.valid.Overlaps(life.valid) &&
          other.life.transaction.Overlaps(life.transaction)) {
        return Status::InvariantViolation(
            StrCat("representation '", name_, "': text '", text,
                   "' already denotes value ", other.value, " during ",
                   other.life.ToString()));
      }
    }
  }
  const StringId text_id =
      known_text != kInvalidStringId ? known_text : interner_.Intern(text);
  if (by_text_.size() < interner_.size()) by_text_.resize(interner_.size());
  value_entries_[ordinal].push_back(Entry{text_id, life});
  by_text_[text_id].push_back(TextEntry{value, life});
  return Status::OK();
}

Result<std::string> Representation::Get(ValueId value, Chronon at) const {
  if (const Entry* entry = EntryAt(value, at); entry != nullptr) {
    return std::string(interner_.View(entry->text));
  }
  return Status::NotFound(StrCat("representation '", name_,
                                 "' has no mapping for value ", value,
                                 " at the requested time"));
}

std::vector<std::pair<std::string, Lifespan>> Representation::GetAll(
    ValueId value) const {
  std::vector<std::pair<std::string, Lifespan>> result;
  const std::vector<Entry>* entries = EntriesFor(value);
  if (entries == nullptr) return result;
  result.reserve(entries->size());
  for (const Entry& entry : *entries) {
    result.emplace_back(std::string(interner_.View(entry.text)), entry.life);
  }
  return result;
}

Result<ValueId> Representation::Lookup(std::string_view text,
                                       Chronon at) const {
  const StringId text_id = interner_.Find(text);
  if (text_id != kInvalidStringId) {
    for (const TextEntry& entry : by_text_[text_id]) {
      if (entry.life.valid.Contains(at)) return entry.value;
    }
  }
  return Status::NotFound(StrCat("representation '", name_,
                                 "' has no value named '", text,
                                 "' at the requested time"));
}

Result<double> Representation::GetNumeric(ValueId value, Chronon at) const {
  const Entry* entry = EntryAt(value, at);
  if (entry == nullptr) {
    return Status::NotFound(StrCat("representation '", name_,
                                   "' has no mapping for value ", value,
                                   " at the requested time"));
  }
  const char* text = interner_.CStr(entry->text);
  char* end = nullptr;
  double parsed = std::strtod(text, &end);
  if (end == text || (end != nullptr && *end != '\0')) {
    return Status::InvalidArgument(
        StrCat("representation '", name_, "' value '",
               interner_.View(entry->text), "' is not numeric"));
  }
  return parsed;
}

bool Representation::TimelessFor(ValueId value) const {
  const std::vector<Entry>* entries = EntriesFor(value);
  if (entries == nullptr) return true;
  for (const Entry& entry : *entries) {
    if (!entry.life.valid.IsAlways()) return false;
  }
  return true;
}

std::size_t Representation::size() const {
  std::size_t total = 0;
  for (const std::vector<Entry>& entries : value_entries_) {
    total += entries.size();
  }
  return total;
}

}  // namespace mddc
