// common.hpp — small shared pieces of the silibench harness: the clock,
// the seeded generator, the reply hash, quantiles and the metric sink.
//
// Everything here is deliberately independent of the silicon library, so
// a change to the program under test can never change what the benchmark
// generates or how it summarises a sample.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace silibench {

using steady = std::chrono::steady_clock;

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               steady::now().time_since_epoch())
        .count();
}

/// SplitMix64: the benchmark's only source of randomness.
class rng {
public:
    explicit rng(std::uint64_t seed) : state_{seed} {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1).
    double uniform() {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    /// Log-uniform in [lo, hi).
    double log_uniform(double lo, double hi) {
        return lo * std::exp(uniform() * std::log(hi / lo));
    }
    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /// Exponential with the given mean.
    double exponential(double mean) { return -mean * std::log1p(-uniform()); }

private:
    std::uint64_t state_;
};

/// Independent stream for one named purpose of one seed.
inline rng stream(std::uint64_t seed, std::uint64_t purpose) {
    rng mix{seed ^ (purpose * 0xd1b54a32d192ed03ULL)};
    return rng{mix.next()};
}

/// 64-bit hash of a reply (8 bytes at a time); used to check every reply
/// cheaply, next to the full byte comparison of a sample.
inline std::uint64_t reply_hash(std::string_view s) {
    std::uint64_t h = 0x243f6a8885a308d3ULL ^ s.size();
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, s.data() + i, 8);
        h = (h ^ w) * 0x9fb21c651e98df25ULL;
        h ^= h >> 29;
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, s.data() + i, s.size() - i);
    h = (h ^ tail) * 0x9fb21c651e98df25ULL;
    return h ^ (h >> 32);
}

/// Quantile q in [0, 1] of an ascending-sorted sample, interpolating
/// linearly between closest ranks.  NaN for an empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) {
        return std::nan("");
    }
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Quantile of an unsorted sample (sorts a copy).  NaN samples, such as
/// the latency of a request never answered, are left out.
inline double quantile(std::vector<double> v, double q) {
    v.erase(std::remove_if(v.begin(), v.end(), [](double x) { return std::isnan(x); }),
            v.end());
    std::sort(v.begin(), v.end());
    return quantile_sorted(v, q);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One reported metric.
struct metric {
    std::string name;
    double value;
    std::string unit;
};

/// Formats a double with all its digits (JSON has no NaN: null instead).
std::string json_number(double v);
/// JSON string literal.
std::string json_string(std::string_view s);

}  // namespace silibench
