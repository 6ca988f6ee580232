// Online statistics and histograms for benchmark reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hpcsec::sim {

/// Welford online mean/variance accumulator.
class RunningStats {
public:
    void add(double x);
    void merge(const RunningStats& other);
    void reset();

    [[nodiscard]] std::size_t count() const { return n_; }
    [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
    [[nodiscard]] double variance() const;       ///< sample variance (n-1)
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
    [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
    [[nodiscard]] double sum() const { return sum_; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Exact-percentile sample set (stores all values; fine at benchmark scale).
class Sample {
public:
    void add(double x) { values_.push_back(x); sorted_ = false; }
    [[nodiscard]] std::size_t count() const { return values_.size(); }
    /// p is clamped to [0,100]; returns 0.0 on an empty sample. The
    /// non-const overload sorts in place (and caches); the const overload
    /// never mutates, so reporting loops can't invalidate iterators.
    [[nodiscard]] double percentile(double p);
    [[nodiscard]] double percentile(double p) const;
    [[nodiscard]] double median() { return percentile(50.0); }
    [[nodiscard]] double median() const { return percentile(50.0); }
    [[nodiscard]] const std::vector<double>& values() const { return values_; }
    [[nodiscard]] RunningStats stats() const;

private:
    std::vector<double> values_;
    bool sorted_ = false;
};

/// Log-scaled histogram for latency distributions (detour durations etc.).
class LogHistogram {
public:
    /// Buckets are powers of `base` starting at `lo`: a value x > lo lands in
    /// bucket floor(log(x / lo) / log(base)) + 1, capped at the last one,
    /// and anything else (NaN too) in bucket 0.
    LogHistogram(double lo, double base, std::size_t nbuckets);

    void add(double x);
    /// Zero every count; the shape stays.
    void reset();
    [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
    [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
    [[nodiscard]] double bucket_lo(std::size_t i) const;
    [[nodiscard]] std::uint64_t total() const { return total_; }
    [[nodiscard]] std::string format(const std::string& unit) const;

private:
    double lo_;
    double base_;
    double log_base_;  ///< std::log(base_), taken once: add() runs per chunk
    bool binary_;      ///< base 2: add() reads the bucket off an exponent
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

}  // namespace hpcsec::sim
