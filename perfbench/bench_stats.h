#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

// Sample statistics and span bookkeeping of the repo benchmark
// (perfbench/README.md): nearest-rank percentiles with the
// ten-samples-beyond rule, and in-memory spans whose self time is their
// duration minus what their children cover.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is trusted only when at least this many samples rank
/// above it; below that the metric is flagged in the result.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples ranked strictly above the percentile's rank.
  std::size_t beyond = 0;
  /// True when `beyond` < kMinSamplesBeyond (or there are no samples).
  bool flagged = true;
};

/// Nearest-rank percentile: the sample at rank ceil(percent/100 * n) of
/// the sorted samples. Integer rank arithmetic, so p95 of 200 samples is
/// exactly rank 190 with 10 samples beyond it.
inline Percentile NearestRank(std::vector<double> samples, unsigned percent) {
  Percentile result;
  result.samples = samples.size();
  if (samples.empty() || percent == 0 || percent > 100) return result;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = (static_cast<std::size_t>(percent) * n + 99) / 100;
  result.value = samples[rank - 1];
  result.beyond = n - rank;
  result.flagged = result.beyond < kMinSamplesBeyond;
  return result;
}

/// Median by nearest rank (the lower middle of an even count).
inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50).value;
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// tracer (-1 for a request root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children may overlap each
/// other; the covered part is counted once.
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union covered so far
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Records spans in memory; nothing is written until the caller dumps
/// `spans()` at the end of the run. Spans nest by a stack, so one tracer
/// serves one thread.
class Tracer {
 public:
  /// Closes the span it opened when it leaves scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), index_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Starts a new request: later spans carry this id.
  void SetRequest(std::uint64_t request) { request_ = request; }

  int Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request_;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void End(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = Now();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Nanoseconds since the tracer was created.
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
