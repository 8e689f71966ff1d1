#ifndef MDDC_COMMON_FLAT_HASH_H_
#define MDDC_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mddc {

/// The FNV-1a offset basis — the seed of an unchained hash, and the hash
/// of an empty key.
inline constexpr std::uint64_t kFnv1a64Offset = 1469598103934665603ull;

/// FNV-1a over `n` raw bytes. The one hash function shared by every flat
/// index in the system (group-by keys, fact-term interning, string
/// interning, per-fact entry lists), so a key's partition and its table
/// slot always derive from the same computation.
inline std::uint64_t Fnv1a64(const void* data, std::size_t n,
                             std::uint64_t seed = kFnv1a64Offset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over one 64-bit word, byte by byte — identical to hashing its
/// little-endian byte image regardless of host endianness, and identical
/// to the group-key hash for a single surrogate id.
inline std::uint64_t Fnv1a64Word(std::uint64_t word,
                                 std::uint64_t seed = kFnv1a64Offset) {
  std::uint64_t h = seed;
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// An open-addressing (linear-probe, power-of-two capacity) map from a
/// key's hash to a caller-assigned dense ordinal. The table stores only
/// (hash, ordinal) pairs; the caller owns key storage and supplies the
/// equality probe, so keys of any shape — a fixed-stride run of ValueIds,
/// an interned string span, a fact term — intern without per-key heap
/// nodes. Not thread-safe; concurrent consumers give each partition (or
/// each frozen snapshot) its own index.
class FlatHashIndex {
 public:
  /// Sentinel ordinal: "slot empty" / "not found".
  static constexpr std::uint32_t kNone = 0xffffffffu;

  FlatHashIndex() { Rehash(16); }

  std::size_t size() const { return size_; }

  /// Drops every entry but keeps the current capacity (arena-style reuse).
  void Clear() {
    ordinals_.assign(ordinals_.size(), kNone);
    size_ = 0;
  }

  /// Looks up `hash`; `eq(ordinal)` must return true iff the caller's key
  /// equals the key it stored under `ordinal`. Returns kNone on a miss.
  template <typename Eq>
  std::uint32_t Find(std::uint64_t hash, const Eq& eq) const {
    std::size_t pos = static_cast<std::size_t>(hash) & mask_;
    while (true) {
      if (ordinals_[pos] == kNone) return kNone;
      if (hashes_[pos] == hash && eq(ordinals_[pos])) return ordinals_[pos];
      pos = (pos + 1) & mask_;
    }
  }

  /// Records `ordinal` under `hash` without an equality probe, for a key
  /// the caller knows is absent (it just missed a Find, or it copies the
  /// distinct keys of another table).
  void Insert(std::uint64_t hash, std::uint32_t ordinal) {
    if ((size_ + 1) * 10 >= hashes_.size() * 7) Rehash(hashes_.size() * 2);
    std::size_t pos = static_cast<std::size_t>(hash) & mask_;
    while (ordinals_[pos] != kNone) pos = (pos + 1) & mask_;
    ordinals_[pos] = ordinal;
    hashes_[pos] = hash;
    ++size_;
  }

  /// Calls `fn(hash, ordinal)` on every recorded key, in slot order.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (std::size_t pos = 0; pos < ordinals_.size(); ++pos) {
      if (ordinals_[pos] != kNone) fn(hashes_[pos], ordinals_[pos]);
    }
  }

  /// Looks up `hash`; on a miss the key is recorded under `next_ordinal`
  /// and `*inserted` is set; the caller then appends the key (and any
  /// payload) to its own storage so the ordinal stays dense.
  template <typename Eq>
  std::uint32_t FindOrInsert(std::uint64_t hash, std::uint32_t next_ordinal,
                             const Eq& eq, bool* inserted) {
    if ((size_ + 1) * 10 >= hashes_.size() * 7) Rehash(hashes_.size() * 2);
    std::size_t pos = static_cast<std::size_t>(hash) & mask_;
    while (true) {
      if (ordinals_[pos] == kNone) {
        ordinals_[pos] = next_ordinal;
        hashes_[pos] = hash;
        ++size_;
        *inserted = true;
        return next_ordinal;
      }
      if (hashes_[pos] == hash && eq(ordinals_[pos])) {
        *inserted = false;
        return ordinals_[pos];
      }
      pos = (pos + 1) & mask_;
    }
  }

 private:
  void Rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    std::vector<std::uint32_t> old_ordinals = std::move(ordinals_);
    hashes_.assign(capacity, 0);
    ordinals_.assign(capacity, kNone);
    mask_ = capacity - 1;
    for (std::size_t i = 0; i < old_ordinals.size(); ++i) {
      if (old_ordinals[i] == kNone) continue;
      std::size_t pos = static_cast<std::size_t>(old_hashes[i]) & mask_;
      while (ordinals_[pos] != kNone) pos = (pos + 1) & mask_;
      ordinals_[pos] = old_ordinals[i];
      hashes_[pos] = old_hashes[i];
    }
  }

  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> ordinals_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mddc

#endif  // MDDC_COMMON_FLAT_HASH_H_
