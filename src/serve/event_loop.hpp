// event_loop.hpp — the epoll reactor behind silicond's TCP transport.
//
// PR 5 served TCP with one blocking thread per connection, which caps
// concurrency at the thread budget and spends a stack per idle client.
// This module replaces that transport with a single-threaded,
// level-triggered epoll loop multiplexing every connection (the
// acceptance floor is 1000 concurrent loopback clients) while keeping
// the response bytes identical.  Parallelism lives in the engine: after
// each epoll_wait pass the loop serves the pending lines of every
// connection that became ready as one `engine::handle_batch_into` call
// (one segment per connection, whole segments up to exec::max_shards
// lines, the line strings swapped in rather than copied) and hands each
// connection its own replies, in order.  The engine applies the
// per-batch rules (line bound, admission) per segment, so each
// connection's replies are the bytes a batch of its own would get
// (admission counts the segments' bytes together), while the pool sees
// every ready connection's work at once.
//
// Structure:
//
//   * listener fd (non-blocking, accept4 until EAGAIN; beyond
//     `max_conns` the accept is closed immediately and counted);
//   * one `serve::conn` per client (serve/conn.hpp) owning framing,
//     HTTP mode switching, its pending segment and the watermark write
//     queue; the loop owns the wakeup batch and the epoll interest
//     mask, which it recomputes from `wants_read()`/`wants_write()`
//     after every event (for a connection with pending lines, after its
//     replies are queued) — a paused (backpressured) connection simply
//     drops EPOLLIN and the kernel's receive window pushes back on the
//     client;
//   * an eventfd for cross-thread/async-signal `stop()` (write(2) is
//     async-signal-safe, so the SIGTERM handler may call it directly);
//   * a timerfd driving a 256-slot hashed timing wheel for idle and
//     write-stall deadlines.  Wheel entries are lazy: expiry looks the
//     fd up and *revalidates* the real deadline from the connection's
//     activity ticks, so stale entries (connection gone, fd recycled)
//     cost one hash lookup and nothing else — no per-entry cancellation
//     bookkeeping, at most one live entry per connection
//     (`conn::wheel_scheduled`).
//
// Level-triggered semantics are load-bearing twice: an injected EINTR
// (faults `eintr@silicond.read`) can simply abandon the read pass
// because the event re-fires on the next epoll_wait, and a connection
// handler never needs drain-to-EAGAIN discipline for correctness (only
// for efficiency).
//
// Single-threaded by design: all conns of a loop are touched only by
// the thread in `run()`.  `stop()` is the one cross-thread entry point.

#pragma once

#include "obs/metrics.hpp"
#include "serve/conn.hpp"
#include "serve/engine.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace silicon::serve {

struct event_loop_config {
    /// Most simultaneous connections; further accepts are closed
    /// immediately and counted (0 = unlimited).
    std::size_t max_conns = 0;
    /// Close a connection with no read/write progress for this long
    /// (0 = never).
    std::uint64_t idle_timeout_ms = 0;
    /// Close a connection whose write queue has made no progress to an
    /// empty state for this long — a slow or stuck reader (0 = never).
    std::uint64_t write_timeout_ms = 0;
    /// Wheel granularity; deadlines round up to a tick.
    std::uint64_t tick_ms = 100;
    /// Invoke `on_periodic` from the loop thread roughly this often
    /// (rounded up to a tick; 0 = never).  Used by silicond for periodic
    /// cache snapshots; the callback runs between epoll wakeups, so it
    /// must not block for long or connections stall.
    std::uint64_t periodic_ms = 0;
    std::function<void()> on_periodic;
    /// Per-connection behavior (framing, batching, watermarks, HTTP).
    conn_config conn;
};

class event_loop {
public:
    /// Takes ownership of `listen_fd` (an already-bound, listening
    /// socket; the loop makes it non-blocking).  Throws std::system_error
    /// when the epoll/eventfd/timerfd plumbing cannot be created.
    event_loop(engine& eng, int listen_fd, event_loop_config config);
    ~event_loop();
    event_loop(const event_loop&) = delete;
    event_loop& operator=(const event_loop&) = delete;

    /// Serve until `stop()` is called or `should_stop` returns true
    /// (checked after every wakeup, so a signal that interrupts
    /// epoll_wait is noticed immediately).  Open connections are
    /// dropped on exit.
    void run(const std::function<bool()>& should_stop = {});

    /// Request `run` to return.  Async-signal-safe and thread-safe
    /// (one write(2) on an eventfd).
    void stop() noexcept;

private:
    static constexpr std::size_t wheel_slots = 256;

    void handle_listener();
    void handle_conn(int fd, std::uint32_t events);
    /// Serve the pending segments of every connection the wakeup left
    /// with framed lines, then settle those connections.
    void serve_ready();
    /// One engine batch over `group`'s pending segments, in order; each
    /// connection gets its own replies.
    void serve_group(std::span<conn* const> group);
    /// Recompute the epoll interest mask and timer state after any
    /// event; destroys the connection when it is finished.
    void settle(conn& c);
    void close_conn(int fd);
    void schedule(conn& c);
    void advance_wheel(std::uint64_t ticks);
    /// The connection's earliest deadline in ticks (idle vs write
    /// stall); 0 when no timeout applies to its current state.
    [[nodiscard]] std::uint64_t deadline_tick(const conn& c) const noexcept;

    engine& eng_;
    event_loop_config config_;
    conn_shared shared_;
    int epoll_fd_ = -1;
    int listen_fd_ = -1;
    int stop_fd_ = -1;   ///< eventfd
    int timer_fd_ = -1;  ///< timerfd, -1 when no timeout configured
    std::uint64_t now_tick_ = 1;  ///< starts at 1 so tick 0 means "unset"
    std::uint64_t idle_ticks_ = 0;
    std::uint64_t write_ticks_ = 0;
    std::uint64_t periodic_ticks_ = 0;
    std::uint64_t next_periodic_tick_ = 0;  ///< 0 = no periodic callback
    std::unordered_map<int, std::unique_ptr<conn>> conns_;
    std::unordered_map<int, std::uint32_t> interest_;  ///< fd → epoll mask
    std::array<std::vector<int>, wheel_slots> wheel_;
    /// Connections with framed lines this wakeup, in event order (fds:
    /// a timer may close one before the batch is served).
    std::vector<int> ready_;
    std::vector<conn*> ready_conns_;
    /// A combined batch's lines, swapped with its connections' segment
    /// strings: no line byte is copied.
    std::vector<std::string> batch_lines_;
    std::vector<std::size_t> segment_ends_;
    std::vector<std::size_t> reply_ends_;
    std::string gather_;

    obs::gauge& open_conns_gauge_;
    obs::counter& accepts_;
    obs::counter& accept_drops_;
    obs::counter& timeouts_;
};

}  // namespace silicon::serve
