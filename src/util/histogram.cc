#include "util/histogram.h"

#include <algorithm>
#include <limits>

namespace seemore {

namespace {

// Bucket limits: 1, 2, 3, 4, 6, 8, 12, 16, ... (two buckets per octave).
// Generated once; BucketLimit() reads from this table.
struct BucketTable {
  int64_t limits[160];
  int size;

  BucketTable() {
    size = 0;
    int64_t value = 1;
    limits[size++] = 0;
    while (value < std::numeric_limits<int64_t>::max() / 2 && size < 158) {
      limits[size++] = value;
      int64_t mid = value + value / 2;
      if (mid > value) limits[size++] = mid;
      value *= 2;
    }
    limits[size++] = std::numeric_limits<int64_t>::max();
  }
};

const BucketTable& Table() {
  static const BucketTable* table = new BucketTable();
  return *table;
}

}  // namespace

Histogram::Histogram() : buckets_(Table().size, 0) { Clear(); }

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<int64_t>::max();
  max_ = 0;
}

int Histogram::BucketFor(int64_t value) {
  const BucketTable& table = Table();
  // Binary search for the first limit >= value.
  int lo = 0, hi = table.size - 1;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (table.limits[mid] >= value) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

int64_t Histogram::BucketLimit(int index) { return Table().limits[index]; }

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketFor(value)] += 1;
  count_ += 1;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Histogram::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max_);
  const double threshold = static_cast<double>(count_) * (p / 100.0);
  double accumulated = 0.0;
  for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
    if (buckets_[i] == 0) continue;
    double next = accumulated + static_cast<double>(buckets_[i]);
    if (next >= threshold) {
      const int64_t left = i == 0 ? 0 : BucketLimit(i - 1);
      const int64_t right = BucketLimit(i);
      const double frac =
          (threshold - accumulated) / static_cast<double>(buckets_[i]);
      double value = static_cast<double>(left) +
                     frac * static_cast<double>(right - left);
      value = std::max(value, static_cast<double>(min()));
      value = std::min(value, static_cast<double>(max_));
      return value;
    }
    accumulated = next;
  }
  return static_cast<double>(max_);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace seemore
