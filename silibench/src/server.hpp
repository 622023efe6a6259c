// server.hpp — the silicond child process, seen from outside: spawn it
// with its default flags on an ephemeral port, read its CPU time and peak
// RSS from /proc, and scrape the counters it exports on GET /metrics.

#pragma once

#include <map>
#include <string>
#include <string_view>
#include <sys/types.h>

namespace silibench {

struct server {
    pid_t pid = -1;
    int stderr_fd = -1;
    int port = 0;
    std::string simd_target;  ///< from silicond's start log line
    std::string command_line;
};

/// Starts `binary --port 0`.  Returns false if the fork fails.
bool spawn_server(const std::string& binary, server& s);
/// Waits until the server logs the port it listens on; false on timeout
/// or early exit.
bool await_listening(server& s, int timeout_ms);
/// SIGTERM, then SIGKILL after a grace period; always reaps the child.
void stop_server(server& s);

/// CPU time of every thread of `pid`, in seconds: the sum of the first
/// field of /proc/<pid>/task/*/schedstat, i.e. utime + stime at
/// nanosecond rather than clock-tick resolution.
double cpu_seconds(pid_t pid);
/// Peak resident set size (VmHWM) of `pid`, in MB (2^20 bytes).
double peak_rss_mb(pid_t pid);

/// One Prometheus scrape: series text (`name{labels}`) -> value.
using scrape = std::map<std::string, double, std::less<>>;

/// Parses Prometheus text exposition; comments and malformed lines are
/// skipped.
[[nodiscard]] scrape parse_prometheus(std::string_view text);

/// Sum of every series of metric `name` whose label set contains
/// `label` (e.g. `stage="parse"`; empty = all series of the metric).
[[nodiscard]] double sum_series(const scrape& s, std::string_view name,
                                std::string_view label = {});

/// Adds `after - before`, series by series, into `into`.
void add_delta(scrape& into, const scrape& after, const scrape& before);

/// GET /metrics over a fresh connection; empty scrape on failure.
[[nodiscard]] scrape fetch_metrics(int port);

}  // namespace silibench
