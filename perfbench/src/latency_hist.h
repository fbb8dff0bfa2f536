#pragma once
// Log-linear latency histogram with a bounded relative error.
//
// Values below 128 are counted exactly; above that every power of two is
// split into 128 equal sub-buckets, so a bucket spans at most 1/128 of its
// lower bound and the reported bucket midpoint is within 0.4% of every
// value in it. The library's obs::Histogram uses log2 buckets, where one
// bucket spans a factor of two and a quantile is mostly interpolation;
// the benchmark needs percentiles it can compare run against run.

#include <bit>
#include <cstdint>
#include <vector>

namespace bref_bench {

class LatencyHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 40;  // ~18 minutes in ns; larger values clamp

  LatencyHist() : counts_(index(~uint64_t{0}) + 1, 0) {}

  void record(uint64_t v) {
    ++counts_[index(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  LatencyHist& operator+=(const LatencyHist& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
    return *this;
  }

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// The value at rank ceil(q * count), as its bucket's midpoint.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return static_cast<double>(max_);
  }

 private:
  static size_t index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int e = 63 - std::countl_zero(v);
    if (e > kMaxExp) {
      e = kMaxExp;
      v = (uint64_t{2} << kMaxExp) - 1;
    }
    const uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<size_t>(e - kSubBits + 1) * kSub +
           static_cast<size_t>(sub);
  }

  static double midpoint(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    const uint64_t sub = i % kSub;
    const uint64_t width = uint64_t{1} << (e - kSubBits);
    return static_cast<double>((kSub + sub) * width) +
           static_cast<double>(width - 1) / 2.0;
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace bref_bench
