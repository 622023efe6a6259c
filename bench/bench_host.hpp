// bench_host.hpp — the host a bench measurement was taken on.
//
// Rates depend on the host, so every committed BENCH_*.json row that
// records one carries this block next to it: the hardware threads, the
// SIMD target the dispatch resolved to, the compiler and the build
// type (SILICON_BUILD_TYPE, set by bench/CMakeLists.txt).  A gated
// ratio of two rates is taken over alternating rounds of both, as the
// median, since single timings taken at different moments of a shared
// host move a ratio by 2x on their own.

#pragma once

#include "serve/json.hpp"
#include "simd/dispatch.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace bench {

/// The median of a bench's rounds (the upper one of an even count).
inline double median(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

inline silicon::serve::json::object host_fingerprint() {
    namespace json = silicon::serve::json;
    json::object host;
    host.set("nproc", json::value{static_cast<double>(
                          std::thread::hardware_concurrency())});
    host.set("simd_target",
             json::value{std::string{silicon::simd::to_string(
                 silicon::simd::active_target())}});
    host.set("compiler", json::value{std::string{__VERSION__}});
    host.set("build_type", json::value{std::string{SILICON_BUILD_TYPE}});
    return host;
}

}  // namespace bench
