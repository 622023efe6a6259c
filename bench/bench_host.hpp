// bench_host.hpp — the host a bench measurement was taken on.
//
// Rates depend on the host, so every committed BENCH_*.json row that
// records one carries this block next to it: the hardware threads, the
// SIMD target the dispatch resolved to, the compiler and the build
// type (SILICON_BUILD_TYPE, set by bench/CMakeLists.txt).

#pragma once

#include "serve/json.hpp"
#include "simd/dispatch.hpp"

#include <string>
#include <thread>

namespace bench {

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
