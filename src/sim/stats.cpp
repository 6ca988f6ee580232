#include "sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace hpcsec::sim {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    mean_ += delta * nb / total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {
double sorted_percentile(const std::vector<double>& sorted, double p) {
    p = std::clamp(p, 0.0, 100.0);
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}
}  // namespace

double Sample::percentile(double p) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    return sorted_percentile(values_, p);
}

double Sample::percentile(double p) const {
    if (values_.empty()) return 0.0;
    if (sorted_) return sorted_percentile(values_, p);
    std::vector<double> copy(values_);
    std::sort(copy.begin(), copy.end());
    return sorted_percentile(copy, p);
}

RunningStats Sample::stats() const {
    RunningStats s;
    for (double v : values_) s.add(v);
    return s;
}

namespace {
/// floor(log2(r)) + 1 for r in [1, 2^64), read off r's binary exponent, or
/// 0 where that may differ from the log formula's rounded result: within
/// 2^-40 (relative, 4096 ULPs) of a power of two, where the formula
/// misrounds up to 65 ULPs away, and outside that range, where its
/// rounding error grows with the exponent.
std::size_t exponent_bucket(double r) {
    constexpr int kMantissaBits = 52;
    constexpr std::uint64_t kMantissa = (std::uint64_t{1} << kMantissaBits) - 1;
    constexpr std::uint64_t kEdge = std::uint64_t{1} << (kMantissaBits - 40);
    const auto bits = std::bit_cast<std::uint64_t>(r);
    const std::uint64_t mantissa = bits & kMantissa;
    const std::uint64_t exponent = (bits >> kMantissaBits) - 1023;  // wraps below 1
    if (exponent >= 64 || mantissa < kEdge || mantissa > kMantissa - kEdge) return 0;
    return static_cast<std::size_t>(exponent) + 1;
}
}  // namespace

LogHistogram::LogHistogram(double lo, double base, std::size_t nbuckets)
    : lo_(lo),
      base_(base),
      log_base_(std::log(base)),
      binary_(base == 2.0),
      counts_(nbuckets, 0) {}

void LogHistogram::add(double x) {
    ++total_;
    std::size_t i = 0;
    if (x > lo_) {
        // Both paths take the same rounded quotient, so the exponent read
        // agrees with the formula wherever it decides.
        const double r = x / lo_;
        if (binary_) i = exponent_bucket(r);
        if (i == 0) i = static_cast<std::size_t>(std::log(r) / log_base_) + 1;
        i = std::min(i, counts_.size() - 1);
    }
    ++counts_[i];
}

void LogHistogram::reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

double LogHistogram::bucket_lo(std::size_t i) const {
    return i == 0 ? 0.0 : lo_ * std::pow(base_, static_cast<double>(i - 1));
}

std::string LogHistogram::format(const std::string& unit) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0) continue;
        os << "  >= " << bucket_lo(i) << " " << unit << ": " << counts_[i] << "\n";
    }
    return os.str();
}

}  // namespace hpcsec::sim
