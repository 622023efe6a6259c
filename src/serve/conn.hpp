// conn.hpp — one multiplexed silicond connection (event-loop edition).
//
// A `conn` owns everything per-connection the PR 5 thread-per-client
// loop kept on its stack, restructured for a non-blocking fd driven by
// epoll (serve/event_loop):
//
//   * a bounded `io::line_splitter` framing the JSONL stream into the
//     pending segment, which the event loop serves after the wakeup
//     together with every other ready connection's (`pending_segment`,
//     `deliver`); oversized lines are discarded as they arrive and
//     answered `too_large` in-order, exactly like the blocking
//     transport;
//   * an `http::parser` the connection hands its stream to whenever a
//     framed line turns out to be an HTTP/1.1 request line — after the
//     response (keep-alive permitting) the stream drops back to JSONL,
//     so Prometheus scrapers and JSONL clients coexist on one port and
//     even on one connection;
//   * a bounded write queue with watermark backpressure: responses the
//     socket will not take immediately are buffered; above
//     `queue_high_bytes` the connection *stops reading* (the kernel's
//     receive window then pushes back on the client) and resumes below
//     `queue_low_bytes`.  Every buffered byte holds a PR 5 admission
//     ticket against the loop-wide `queue_budget_bytes` ledger, so a
//     thousand slow readers cannot OOM the server: when the ledger
//     refuses, the connection is dropped (counted, never torn
//     mid-line — the queue is all-or-nothing per response flush).
//
// Ordering invariant (inherited from DESIGN.md §11): every accepted
// line gets exactly one reply, in request order; oversized rejections
// and HTTP responses land at the stream position their bytes occupied,
// behind any batch still pending, which is why those events (and EOF,
// and a `--batch`-full segment) serve the pending segment at once,
// alone, instead of leaving it to the wakeup batch.
//
// A conn is single-threaded — only the owning event loop touches it.
// The shared state (`conn_shared`) is the loop-wide ledger + metrics,
// safe to alias from every conn of that loop.

#pragma once

#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "serve/io.hpp"
#include "serve/limits.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace silicon::serve {

struct conn_config {
    /// Max lines per engine batch (mirrors silicond --batch).
    std::size_t batch = 1024;
    /// Per-line byte bound for the splitter (0 = unbounded).
    std::size_t max_line_bytes = 0;
    /// Pause reading when the write queue holds more than this.
    std::size_t queue_high_bytes = 4u << 20;
    /// Resume reading when it drains below this.
    std::size_t queue_low_bytes = 256u << 10;
    /// Loop-wide buffered-response byte budget (0 = off); enforced via
    /// admission tickets on the shared ledger.
    std::size_t queue_budget_bytes = 0;
    /// HTTP parser bounds (431/413 beyond).
    http::parser::config http;
};

/// The counters both silicond transports (the event loop's conns and
/// the stdio/blocking line loop in tools/silicond.cpp) add to,
/// registered once in the process-global obs registry.
struct transport_counters {
    obs::counter& flushes;
    obs::counter& flushed_bytes;
    obs::counter& oversized_lines;
    /// Batches the event loop served after a wakeup, and the connection
    /// segments they carried: their ratio is how many connections
    /// shared an engine batch.
    obs::counter& wakeup_batches;
    obs::counter& wakeup_batch_segments;

    [[nodiscard]] static transport_counters& instance();
};

/// State shared by every conn of one event loop: the engine, the
/// response-queue ledger, and the metric handles (registered once in
/// the process-global obs registry).
struct conn_shared {
    conn_shared(engine& eng, conn_config cfg);

    engine& eng;
    conn_config config;
    admission_controller ledger;  ///< buffered-response bytes
    std::atomic<std::uint64_t> queued_bytes{0};
    std::atomic<std::size_t> paused_conns{0};
    /// Transport-level debug state for `GET /statusz`.
    std::chrono::steady_clock::time_point started =
        std::chrono::steady_clock::now();
    std::atomic<std::size_t> open_conns{0};

    transport_counters& transport;
    obs::counter& http_requests;
    obs::counter& queue_overflow_drops;
    obs::gauge& queue_bytes_gauge;
};

class conn {
public:
    conn(int fd, conn_shared& shared);
    ~conn();
    conn(const conn&) = delete;
    conn& operator=(const conn&) = delete;

    /// Drain the socket (until EAGAIN / short read / backpressure
    /// pause) and frame lines into the pending segment, which the loop
    /// serves after the wakeup (`pending_segment`, `deliver`).  A
    /// `--batch`-full segment, EOF (which also frames the final
    /// unterminated line and schedules flush-then-close), an oversized
    /// line and an HTTP request line flush it at once, alone.
    void on_readable();

    /// The lines framed since the last flush: this connection's segment
    /// of the loop's next wakeup batch (empty once the peer is dead).
    /// The loop may swap the strings out; `deliver` ends the segment.
    [[nodiscard]] std::span<std::string> pending_segment() noexcept {
        return {lines_.data(), dead_ ? 0 : pending_};
    }

    /// Queue the replies to the pending segment (one '\n'-terminated
    /// line per pending line, in order) and start a new segment.
    void deliver(std::string_view replies);

    /// Serve the pending segment now, alone, and queue its replies.
    void flush_pending_batch();

    /// Flush the write queue as far as the socket allows.
    void on_writable();

    /// True when the loop must destroy this connection (dead peer, or
    /// close-after-flush with an empty queue).
    [[nodiscard]] bool finished() const noexcept {
        return dead_ || (close_after_flush_ && queue_.empty());
    }

    [[nodiscard]] bool wants_read() const noexcept {
        return !paused_ && !eof_seen_ && !close_after_flush_ && !dead_;
    }
    [[nodiscard]] bool wants_write() const noexcept {
        return !queue_.empty() && !dead_;
    }
    [[nodiscard]] bool paused() const noexcept { return paused_; }
    [[nodiscard]] std::size_t queued_bytes() const noexcept {
        return queued_bytes_;
    }
    [[nodiscard]] int fd() const noexcept { return fd_; }

    // Timer bookkeeping, owned by the event loop's wheel.
    std::uint64_t last_activity_tick = 0;
    std::uint64_t write_pending_since_tick = 0;  ///< 0 = nothing pending
    bool wheel_scheduled = false;

private:
    enum class mode { jsonl, http };

    struct out_buf {
        std::string data;
        std::size_t offset = 0;
        admission_controller::ticket ticket;
    };

    void consume(std::string_view data);
    /// Splitter callback; returns false to stop framing (mode switch,
    /// close, or fatal enqueue failure).
    bool on_jsonl_line(std::string_view line, bool oversized);
    void respond_http(const http::request& req);
    void respond_http_error();
    void enqueue(std::string_view bytes);
    void set_paused(bool paused);

    int fd_;
    conn_shared& shared_;
    mode mode_ = mode::jsonl;
    io::line_splitter splitter_;
    http::parser http_;
    std::string pending_http_line_;  ///< request line that triggered http mode
    bool switch_to_http_ = false;
    /// Pending batch: the first `pending_` slots (capacity reused).
    std::vector<std::string> lines_;
    std::size_t pending_ = 0;
    std::string gather_;
    std::string reject_;
    std::deque<out_buf> queue_;
    std::size_t queued_bytes_ = 0;
    bool paused_ = false;
    bool eof_seen_ = false;
    bool close_after_flush_ = false;
    bool dead_ = false;
};

}  // namespace silicon::serve
