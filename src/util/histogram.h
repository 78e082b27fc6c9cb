// Fixed-memory latency histogram with power-of-two-ish buckets, in the style
// of HdrHistogram/rocksdb::HistogramImpl: constant-time record, approximate
// percentiles, exact count/sum/min/max.

#ifndef SEEMORE_UTIL_HISTOGRAM_H_
#define SEEMORE_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace seemore {

class Histogram {
 public:
  Histogram();

  /// Record a non-negative sample (e.g. latency in nanoseconds).
  void Record(int64_t value);

  void Clear();

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double Mean() const;

  /// Approximate value at percentile p in [0, 100]. Linear interpolation
  /// within the containing bucket.
  double Percentile(double p) const;

  double Median() const { return Percentile(50.0); }

  /// The named percentiles every report emits (RunResult, scenario reports,
  /// BENCH JSON) — one spelling so callers cannot drift.
  double P50() const { return Percentile(50.0); }
  double P90() const { return Percentile(90.0); }
  double P99() const { return Percentile(99.0); }

  /// Merge another histogram into this one.
  void Merge(const Histogram& other);

 private:
  static constexpr int kNumBuckets = 154;  // covers [0, ~9.2e18]

  /// Index of the bucket holding `value`.
  static int BucketFor(int64_t value);
  /// Inclusive upper bound of bucket `index`.
  static int64_t BucketLimit(int index);

  std::vector<int64_t> buckets_;
  int64_t count_;
  int64_t sum_;
  int64_t min_;
  int64_t max_;
};

}  // namespace seemore

#endif  // SEEMORE_UTIL_HISTOGRAM_H_
