// limits.hpp — admission control and resource budgets for the engine.
//
// The engine serves untrusted byte streams; without budgets a single
// client can pin memory and the thread pool indefinitely (a
// newline-free gigabyte line, a 65536-point sweep of 10^8-die
// Monte-Carlo runs, a firehose of concurrent batches).  This module
// gives every axis a configurable budget and a *principled* rejection:
// an over-budget request is answered with a well-formed JSONL error
// envelope — never an abort, never an OOM — and counted under a stable
// reason label (DESIGN.md §11).
//
// Two error codes split the taxonomy by determinism:
//
//   * `too_large`  — a structural property of the request itself (line
//     bytes, batch line count, sweep grid points, MC die count).  The
//     same request is rejected every time, so these are golden-testable.
//   * `overloaded` — a property of the moment (bytes-in-flight budget
//     exhausted).  Retryable; deliberately excluded from goldens.
//
// The bytes-in-flight ledger is a single relaxed atomic; admission is
// O(1), lock-free and allocation-free (the fast-reject path is gated
// by bench_overload).  Rejection counters per reason feed the
// `silicon_serve_rejected_total{reason=...}` exposition.
//
// All budgets default to 0 = unlimited, so an engine without a
// limits_config behaves exactly as before this module existed.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace silicon::serve {

/// Per-engine resource budgets.  0 always means "unlimited / off".
struct limits_config {
    /// Longest accepted request line in bytes (also the bound the
    /// transports' JSONL framer frames lines under, serve/conn).
    std::size_t max_line_bytes = 0;
    /// Most lines accepted in one handle_batch call.
    std::size_t max_batch_lines = 0;
    /// Largest accepted sweep grid (sweep_request::count).
    std::size_t max_sweep_points = 0;
    /// Largest accepted Monte-Carlo die count (mc_yield_request::dies).
    std::size_t max_mc_dies = 0;
    /// Total request bytes admitted concurrently across all callers;
    /// beyond it new lines/batches are rejected `overloaded`.
    std::size_t max_inflight_bytes = 0;
    /// Default per-batch deadline in milliseconds applied when a
    /// request carries no `deadline_ms` of its own.
    std::uint64_t default_deadline_ms = 0;
    /// Parse-arena budget: when a thread's parse arena holds more
    /// reserved chunk bytes than this, the next line releases it and
    /// parses into a fresh one (graceful degradation; bytes unchanged).
    std::size_t max_arena_reserved_bytes = 0;
    /// Shed half the memoization-cache shards on every `overloaded`
    /// rejection (reclaims memory exactly when pressure is observed).
    bool shed_on_overload = false;
};

/// Stable rejection reason labels (metrics + tests index by these;
/// append only — the order is the counter-array index).
enum class reject_reason {
    line_too_large,
    batch_too_large,
    sweep_too_large,
    mc_too_large,
    overloaded,
    explore_too_large,
};

inline constexpr int reject_reason_count = 6;

/// The Prometheus label value ("line_too_large", ...).
[[nodiscard]] std::string_view to_string(reject_reason reason);

/// Bytes-in-flight ledger + per-reason rejection counters.
///
/// Admission is a relaxed fetch_add with rollback on over-budget — the
/// counter may transiently overshoot by one in-flight request per racing
/// caller, which errs on the side of shedding (never of admitting past
/// roughly budget + one batch).  Thread-safe throughout.
class admission_controller {
public:
    /// RAII admission: releases its bytes on destruction.  A
    /// default-constructed (or rejected) ticket holds nothing.
    class ticket {
    public:
        ticket() = default;
        ticket(ticket&& other) noexcept
            : owner_{other.owner_}, bytes_{other.bytes_} {
            other.owner_ = nullptr;
            other.bytes_ = 0;
        }
        ticket& operator=(ticket&& other) noexcept {
            if (this != &other) {
                release();
                owner_ = other.owner_;
                bytes_ = other.bytes_;
                other.owner_ = nullptr;
                other.bytes_ = 0;
            }
            return *this;
        }
        ticket(const ticket&) = delete;
        ticket& operator=(const ticket&) = delete;
        ~ticket() { release(); }

        /// True when the bytes were admitted.
        [[nodiscard]] explicit operator bool() const noexcept {
            return owner_ != nullptr;
        }

        void release() noexcept;

    private:
        friend class admission_controller;
        ticket(admission_controller* owner, std::size_t bytes) noexcept
            : owner_{owner}, bytes_{bytes} {}

        admission_controller* owner_ = nullptr;
        std::size_t bytes_ = 0;
    };

    /// Try to admit `bytes` against `max_inflight_bytes`; an engaged
    /// ticket on success, a disengaged one (and an `overloaded`
    /// rejection count of `rejected_lines`) on refusal.  A budget of 0
    /// admits everything without touching the ledger.
    [[nodiscard]] ticket admit(std::size_t bytes, std::size_t budget,
                               std::uint64_t rejected_lines = 1);

    /// Count a structural rejection (too_large family).
    void note_rejection(reject_reason reason,
                        std::uint64_t lines = 1) noexcept {
        rejected_[static_cast<std::size_t>(reason)].fetch_add(
            lines, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t rejected(reject_reason reason) const noexcept {
        return rejected_[static_cast<std::size_t>(reason)].load(
            std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t rejected_total() const noexcept;
    [[nodiscard]] std::uint64_t inflight_bytes() const noexcept {
        return inflight_bytes_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> inflight_bytes_{0};
    std::array<std::atomic<std::uint64_t>, reject_reason_count> rejected_{};
};

// ---------------------------------------------------------------------------
// Rejection envelopes
// ---------------------------------------------------------------------------
// Fast rejections happen before (or instead of) parsing, so they carry
// no `id`; the bytes depend only on the configured budget, which keeps
// the deterministic family golden-testable.  `append_*` variants write
// into a reused buffer without allocating (steady state) — the property
// bench_overload gates.

/// {"ok":false,"error":{"code":"too_large","message":"line exceeds
/// max_line_bytes <limit>"}} appended to `out`.  Deliberately never
/// carries a trace_id: an over-long line's framing is suspect, so
/// nothing scanned out of it is trustworthy.
void append_line_too_large(std::size_t limit, std::string& out);

/// Same shape for an over-count batch.  `trace_raw` (from
/// scan_trace_id; may be empty) echoes as a leading
/// `"trace_id":"<raw>"` member — empty keeps the bytes identical to
/// the pre-trace envelope.
void append_batch_too_large(std::size_t limit, std::string_view trace_raw,
                            std::string& out);

/// {"ok":false,"error":{"code":"overloaded","message":"server over
/// byte budget, retry"}} appended to `out`, with the same optional
/// trace echo as append_batch_too_large.
void append_overloaded(std::string_view trace_raw, std::string& out);

/// Best-effort, allocation-free scan for a `"trace_id":"..."` member in
/// a raw (unparsed) request line, used to keep trace correlation alive
/// on shed paths that never parse.  Returns the *still-escaped* string
/// bytes (a subview of `line`) so they can be spliced verbatim between
/// quotes, or empty when absent/malformed/beyond the first 4 KiB.
[[nodiscard]] std::string_view scan_trace_id(std::string_view line) noexcept;

}  // namespace silicon::serve
