/**
 * @file
 * Sample distributions: moments plus a fixed-width bucket histogram.
 * Scalar counters are plain struct fields in each component (HtmStats,
 * mem::MemStats, vm::VmStats), so they copy with the component's state.
 */

#ifndef HINTM_COMMON_STATS_HH
#define HINTM_COMMON_STATS_HH

#include <cstdint>
#include <vector>

#include "logging.hh"

namespace hintm
{
namespace stats
{

/**
 * Sample distribution tracking count/sum/min/max plus a fixed-width bucket
 * histogram; supports quantile queries and CDF export for Fig. 6-style
 * plots.
 */
class Distribution
{
  public:
    /**
     * @param bucket_width width of each histogram bucket (>=1)
     * @param num_buckets number of buckets before the overflow bucket
     */
    explicit Distribution(std::uint64_t bucket_width = 1,
                          std::size_t num_buckets = 128);

    void sample(std::uint64_t v);
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }

    /** Fraction of samples with value <= v (exact for bucket boundaries). */
    double cdfAt(std::uint64_t v) const;

    /** Smallest bucket upper bound b such that cdfAt(b) >= q. */
    std::uint64_t quantile(double q) const;

    std::uint64_t bucketWidth() const { return bucketWidth_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Exact internal state, including the raw min sentinel (~0 when the
     * distribution is empty, which the min() accessor masks). Used by the
     * on-disk result store, which needs bit-identical round trips.
     */
    struct Image
    {
        std::uint64_t bucketWidth = 1;
        std::vector<std::uint64_t> buckets;
        std::uint64_t overflow = 0;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t minRaw = ~std::uint64_t(0);
        std::uint64_t max = 0;
    };

    Image image() const
    {
        return {bucketWidth_, buckets_, overflow_, count_, sum_, min_,
                max_};
    }

    void setImage(const Image &img)
    {
        bucketWidth_ = img.bucketWidth;
        buckets_ = img.buckets;
        overflow_ = img.overflow;
        count_ = img.count;
        sum_ = img.sum;
        min_ = img.minRaw;
        max_ = img.max;
    }

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

} // namespace stats
} // namespace hintm

#endif // HINTM_COMMON_STATS_HH
