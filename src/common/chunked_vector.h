#ifndef MDDC_COMMON_CHUNKED_VECTOR_H_
#define MDDC_COMMON_CHUNKED_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace mddc {

/// A growable array stored as fixed-size chunks behind shared_ptr, so
/// copies share storage (docs/memory_layout.md). Element i lives at
/// offset i % kChunkSize of chunk i / kChunkSize; every chunk but the
/// last is full.
///
///  * A copy shares every chunk: O(chunks) refcount bumps, no element
///    copies. Destroying a copy releases its references and frees only
///    the chunks no other copy holds.
///  * Writes are explicit (Mut, MutableRun, push_back, Append, resize)
///    and clone the one chunk they land in when another copy shares it —
///    an append into a shared tail chunk included. Const access never
///    writes: a reader of a shared chunk can never see a writer's store.
///  * Readers get each chunk as one contiguous span (Chunk, RunFrom), so
///    hot loops sweep a pointer per chunk instead of resolving the chunk
///    per element.
///
/// Sharing is decided by shared_ptr::use_count(), which libstdc++ reads
/// with a relaxed load: the count may be stale, so it proves a chunk
/// private only when no other thread can be adding references to it.
/// That holds for the serving tier's drafts (src/serve): a draft copies
/// the current epoch's MO, and that epoch stays current — so its copy of
/// every shared chunk stays alive and the count stays at least 2 — until
/// the draft is sealed and swapped in under the writer mutex. Concurrent
/// readers that copy the published MO only raise the count. A chunk the
/// draft cloned is reachable from the draft alone until publication.
/// The same holds for a reader's private copy of a published fact
/// registry (FactRegistry::ForkOf, which the MDQL tree walk interns
/// into): the reader pinned the epoch, so the published registry keeps
/// every chunk the copy shares alive, and the copy's own reference,
/// taken on the reader's thread before any load of the count there,
/// keeps what that thread reads at 2 or more. A chunk the copy cloned is
/// the reader's alone. Any other use must give a writer the same
/// guarantee.
template <typename T>
class ChunkedVector {
 public:
  /// Elements per chunk: one compile-time constant for every element
  /// type, so arrays indexed alike (a relation's CSR rows and its dense
  /// column) break into chunks at the same indexes.
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector& other) = default;
  ChunkedVector(ChunkedVector&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        data_(std::move(other.data_)),
        size_(std::exchange(other.size_, 0)) {
    other.chunks_.clear();
    other.data_.clear();
  }
  ChunkedVector& operator=(const ChunkedVector& other) = default;
  ChunkedVector& operator=(ChunkedVector&& other) noexcept {
    if (this != &other) {
      chunks_ = std::move(other.chunks_);
      data_ = std::move(other.data_);
      size_ = std::exchange(other.size_, 0);
      other.chunks_.clear();
      other.data_.clear();
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const {
    return data_[i >> kChunkShift][i & kChunkMask];
  }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Chunks, and chunk k's elements as one contiguous span.
  std::size_t chunk_count() const { return chunks_.size(); }
  std::span<const T> Chunk(std::size_t k) const {
    return {data_[k], std::min(kChunkSize, size_ - (k << kChunkShift))};
  }
  /// The contiguous run from element i to the end of its chunk.
  std::span<const T> RunFrom(std::size_t i) const {
    return {&(*this)[i], std::min(kChunkSize - (i & kChunkMask), size_ - i)};
  }

  /// A writable reference to element i; clones its chunk when shared.
  T& Mut(std::size_t i) {
    return Unshare(i >> kChunkShift)[i & kChunkMask];
  }
  T& MutBack() { return Mut(size_ - 1); }
  /// The writable run from element i to the end of its chunk; clones the
  /// chunk when shared.
  std::span<T> MutableRun(std::size_t i) {
    T* data = Unshare(i >> kChunkShift);
    return {data + (i & kChunkMask),
            std::min(kChunkSize - (i & kChunkMask), size_ - i)};
  }

  void push_back(T value) {
    Storage& tail = Tail();
    tail.push_back(std::move(value));
    data_.back() = tail.data();
    ++size_;
  }

  /// Appends `values` in order, one chunk run at a time: what fits in
  /// the tail chunk (cloned first when shared, as for push_back), then
  /// fresh chunks.
  void Append(std::span<const T> values) {
    for (std::size_t done = 0; done < values.size();) {
      Storage& tail = Tail();
      const std::span<const T> run = values.subspan(
          done,
          std::min(values.size() - done, kChunkSize - (size_ & kChunkMask)));
      tail.insert(tail.end(), run.begin(), run.end());
      data_.back() = tail.data();
      size_ += run.size();
      done += run.size();
    }
  }

  /// Pads with value-initialized elements so that a run of `n` elements
  /// appended next fits in one chunk, and returns the index it will start
  /// at. A run longer than a chunk cannot fit one and is not padded for.
  std::size_t AlignForRun(std::size_t n) {
    const std::size_t used = size_ & kChunkMask;
    if (used != 0 && n <= kChunkSize && used + n > kChunkSize) {
      resize(size_ + (kChunkSize - used));
    }
    return size_;
  }

  /// Grows with value-initialized elements or truncates to `n`.
  void resize(std::size_t n) {
    if (n < size_) {
      const std::size_t keep = (n + kChunkMask) >> kChunkShift;
      chunks_.resize(keep);
      data_.resize(keep);
      if ((n & kChunkMask) != 0) {
        Unshare(keep - 1);
        chunks_.back()->resize(n & kChunkMask);
      }
      size_ = n;
      return;
    }
    while (size_ < n) {
      Storage& tail = Tail();
      const std::size_t fill =
          std::min(n - size_, kChunkSize - (size_ & kChunkMask));
      tail.resize(tail.size() + fill);
      data_.back() = tail.data();
      size_ += fill;
    }
  }

  void clear() {
    chunks_.clear();
    data_.clear();
    size_ = 0;
  }

  /// How many chunks this vector holds by the very same pointer as
  /// `other` at the same position — the sharing a copy and its later
  /// writes leave (tests and docs/memory_layout.md measure it).
  std::size_t SharedChunksWith(const ChunkedVector& other) const {
    std::size_t shared = 0;
    for (std::size_t k = 0; k < std::min(chunks_.size(), other.chunks_.size());
         ++k) {
      shared += chunks_[k] == other.chunks_[k] ? 1 : 0;
    }
    return shared;
  }

  /// Random-access read-only iteration (std algorithms, range-for). Each
  /// step resolves the chunk; hot loops sweep Chunk/RunFrom spans instead.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const ChunkedVector* owner, std::size_t i)
        : owner_(owner), i_(i) {}

    reference operator*() const { return (*owner_)[i_]; }
    pointer operator->() const { return &(*owner_)[i_]; }
    reference operator[](difference_type n) const {
      return (*owner_)[i_ + static_cast<std::size_t>(n)];
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++i_;
      return before;
    }
    const_iterator& operator--() {
      --i_;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator before = *this;
      --i_;
      return before;
    }
    const_iterator& operator+=(difference_type n) {
      i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) { return *this += -n; }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const const_iterator& a, const const_iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const ChunkedVector* owner_ = nullptr;
    std::size_t i_ = 0;
  };

  using value_type = T;
  using iterator = const_iterator;

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  friend bool operator==(const ChunkedVector& a, const ChunkedVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  /// A chunk's elements. Every chunk but the first reserves kChunkSize
  /// up front; the first grows like a std::vector, so a small array
  /// costs its size, not a chunk. A chunk's storage moves only on a write
  /// to a private chunk, which refreshes its data_ pointer.
  using Storage = std::vector<T>;

  void AddChunk() {
    auto chunk = std::make_shared<Storage>();
    if (!chunks_.empty()) chunk->reserve(kChunkSize);
    data_.push_back(chunk->data());
    chunks_.push_back(std::move(chunk));
  }

  /// The chunk the next element goes to, private to this vector: a new
  /// one when the last is full, else the last, cloned when shared.
  Storage& Tail() {
    if ((size_ & kChunkMask) == 0) {
      AddChunk();
    } else {
      Unshare(chunks_.size() - 1);
    }
    return *chunks_.back();
  }

  /// Chunk k's writable data, cloned first when another copy shares it.
  T* Unshare(std::size_t k) {
    if (chunks_[k].use_count() > 1) {
      auto copy = std::make_shared<Storage>();
      copy->reserve(chunks_[k]->capacity());
      copy->assign(chunks_[k]->begin(), chunks_[k]->end());
      data_[k] = copy->data();
      chunks_[k] = std::move(copy);
    }
    return data_[k];
  }

  std::vector<std::shared_ptr<Storage>> chunks_;
  /// data_[k] == chunks_[k]->data(): one load per element access.
  std::vector<T*> data_;
  std::size_t size_ = 0;
};

}  // namespace mddc

#endif  // MDDC_COMMON_CHUNKED_VECTOR_H_
