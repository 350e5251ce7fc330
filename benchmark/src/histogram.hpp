// Mergeable log-linear latency histogram.
//
// Fixed buckets, no allocation, no dependencies: values below 32 get one
// bucket each; above that every power of two [2^e, 2^(e+1)) is cut into
// 32 equal-width buckets. A bucket is at most 1/32 of its lower edge wide
// and a quantile is placed inside its bucket by linear interpolation on
// the rank, so it is within 1/32 (relative) of the exact order statistic
// and moves smoothly instead of in bucket-sized steps. Each client thread
// records into its own histograms; merging is element-wise addition, so
// the merged result does not depend on merge order.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace bench {

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  void record(std::uint64_t v) noexcept {
    ++counts_[bucket_of(v)];
    ++n_;
  }

  void merge(const LatencyHistogram& o) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    n_ += o.n_;
  }

  std::uint64_t count() const noexcept { return n_; }

  /// The value of rank max(1, ceil(q * n)) in sorted order (q in [0, 1]),
  /// interpolated within the bucket holding it; 0 when empty.
  double quantile(double q) const noexcept {
    if (n_ == 0) return 0.0;
    const double want = std::ceil(q * static_cast<double>(n_));
    std::uint64_t rank = want < 1.0 ? 1 : static_cast<std::uint64_t>(want);
    if (rank > n_) rank = n_;
    std::uint64_t seen = 0;
    std::size_t b = 0;
    while (seen + counts_[b] < rank) seen += counts_[b++];
    const double lo = static_cast<double>(bucket_lo(b));
    if (bucket_width(b) == 1) return lo;  // exact-value bucket
    const double within = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(counts_[b]);
    return lo + within * static_cast<double>(bucket_width(b));
  }

  bool operator==(const LatencyHistogram&) const = default;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return static_cast<std::size_t>(kSub + shift * kSub + ((v >> shift) - kSub));
  }

  static std::uint64_t bucket_lo(std::size_t b) noexcept {
    if (b < kSub) return b;
    const std::uint64_t shift = (b - kSub) / kSub;
    return (kSub + (b - kSub) % kSub) << shift;
  }

  static std::uint64_t bucket_width(std::size_t b) noexcept {
    return b < kSub ? 1 : std::uint64_t{1} << ((b - kSub) / kSub);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

}  // namespace bench
