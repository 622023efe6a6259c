// client.hpp — the single-threaded TCP load client.
//
// One thread drives up to nproc connections with non-blocking sockets and
// ppoll.  It measures the server, not itself:
//   * schedules and sample buffers are built before a phase starts, so
//     nothing grows while it runs;
//   * every request due at a wake-up goes out in one send per connection;
//   * between sends it sleeps in ppoll (1 ns timer slack) unless the next
//     send is under `kSpinNs` away;
//   * open-phase latency runs from each request's *scheduled* send time,
//     and how late the generator sent each request is recorded as well.
//
// Replies are matched to requests by position (silicond answers each
// connection's lines in order) and checked as they arrive: a reply must
// be ok, and equal the reference reply (full bytes where kept, else a
// 64-bit hash of them).

#pragma once

#include "workload.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace silibench {

/// Reference replies, per workload line (from the validity gate).
struct expected_replies {
    std::vector<std::uint64_t> hash;
    std::vector<std::uint32_t> size;
    /// Full reference bytes where kept (else empty): those replies are
    /// byte-compared, the rest hash-compared.
    std::vector<std::string> bytes;
};

enum class verdict { ok, error, wrong };

/// Classifies one reply (no trailing newline) to workload line `line`.
[[nodiscard]] verdict check_reply(std::string_view reply, std::uint32_t line,
                                  const expected_replies& ex);

struct phase_stats {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t wrong = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t byte_compared = 0;  ///< replies checked byte for byte
    std::uint64_t lanes = 0;          ///< sweep lanes requested
    std::uint64_t cached_lanes = 0;   ///< designed lane cache hits
    double elapsed_s = 0;             ///< phase start to last reply
    bool exhausted = false;           ///< closed phase ran out of lines
    std::vector<double> latency_ms;   ///< open: from the scheduled time
    std::vector<double> late_ms;      ///< open: send time - scheduled time

    [[nodiscard]] std::uint64_t failed() const {
        return errors + wrong + unanswered;
    }
};

class client {
public:
    client(const workload& w, const expected_replies& ex);
    ~client();
    client(const client&) = delete;
    client& operator=(const client&) = delete;

    /// Opens `conns` connections to 127.0.0.1:port.
    bool connect(int port, int conns);

    /// Open loop: Poisson arrivals at `rate`/s over `seq`, request i on
    /// connection i % conns.  `seed` draws the arrival gaps.
    phase_stats run_open(std::span<const std::uint32_t> seq, double rate,
                         std::uint64_t seed);

    /// Closed loop: every connection keeps `window` requests outstanding
    /// until `seconds` have passed or `seq` is used up.  seconds <= 0
    /// runs `seq` to the end (the warm-up).
    phase_stats run_closed(std::span<const std::uint32_t> seq,
                           unsigned window, double seconds);

    /// Depth-1 ping-pong of `line` on the first connection; fills `rtt_us`
    /// with one round trip per element.
    bool ping_pong(std::uint32_t line, std::vector<double>& rtt_us);

private:
    struct conn;
    bool pump(std::int64_t timeout_ns, phase_stats& st);
    void account(std::string_view reply, std::uint32_t pos, phase_stats& st);

    const workload& w_;
    const expected_replies& ex_;
    std::vector<std::unique_ptr<conn>> conns_;
    std::span<const std::uint32_t> seq_;
    // Open phase only: where per-position latency is recorded.
    const std::vector<std::int64_t>* sched_ = nullptr;
    std::int64_t t_last_reply_ = 0;
};

}  // namespace silibench
