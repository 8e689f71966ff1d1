#ifndef MDDC_ENGINE_ARENA_H_
#define MDDC_ENGINE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace mddc {

/// A bump allocator for query-lifetime temporaries (docs/memory_layout.md).
/// Chunks are retained across `Reset`, so after the first (warm-up)
/// statement a steady-state query performs no heap allocation at all for
/// its arena-backed scratch: every Allocate is a pointer bump into an
/// already-owned chunk.
///
/// Not thread-safe. Parallel operators give each worker chunk its own
/// arena (ExecContext::worker_arena) and only the owning task allocates
/// from it.
class Arena {
 public:
  static constexpr std::size_t kMinChunkBytes = 1u << 16;  // 64 KiB

  void* Allocate(std::size_t bytes, std::size_t align) {
    allocated_ += bytes;
    while (current_ < chunks_.size()) {
      Chunk& chunk = chunks_[current_];
      std::size_t head = (cursor_ + (align - 1)) & ~(align - 1);
      if (head + bytes <= chunk.size) {
        cursor_ = head + bytes;
        return chunk.data.get() + head;
      }
      ++current_;
      cursor_ = 0;
    }
    return AllocateSlow(bytes, align);
  }

  /// Rewinds to empty while keeping every chunk — the capacity earned by
  /// the warm-up statement is what makes later statements allocation-free.
  void Reset() {
    current_ = 0;
    cursor_ = 0;
    allocated_ = 0;
    ++resets_;
  }

  /// Bytes handed out since the last Reset (the per-statement footprint).
  std::size_t allocated_bytes() const { return allocated_; }

  /// Total chunk capacity owned (the high-water mark across statements).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

  std::size_t resets() const { return resets_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  void* AllocateSlow(std::size_t bytes, std::size_t align) {
    std::size_t want = chunks_.empty() ? kMinChunkBytes
                                       : chunks_.back().size * 2;
    if (want < bytes + align) want = bytes + align;
    Chunk chunk;
    chunk.data = std::make_unique<char[]>(want);
    chunk.size = want;
    chunks_.push_back(std::move(chunk));
    current_ = chunks_.size() - 1;
    std::uintptr_t base =
        reinterpret_cast<std::uintptr_t>(chunks_.back().data.get());
    std::size_t head = ((base + (align - 1)) & ~(align - 1)) - base;
    cursor_ = head + bytes;
    return chunks_.back().data.get() + head;
  }

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;
  std::size_t cursor_ = 0;
  std::size_t allocated_ = 0;
  std::size_t resets_ = 0;
};

/// A std-allocator adapter over Arena. Deallocation into an arena is a
/// no-op; memory is reclaimed wholesale by Arena::Reset at end of
/// statement. A default-constructed adapter (null arena) is the plain
/// heap allocator.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (arena_ == nullptr) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T* p, std::size_t) {
    if (arena_ == nullptr) ::operator delete(p);
  }

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  Arena* arena_ = nullptr;
};

}  // namespace mddc

#endif  // MDDC_ENGINE_ARENA_H_
