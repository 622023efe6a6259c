// cache.hpp — sharded LRU memoization cache for serve results.
//
// The engine memoizes evaluated responses keyed by the *canonical*
// serialization of the request (see json::canonical and
// request::canonical_key), so a repeated query — byte-identical or
// merely member-order-shuffled — is answered from memory.  Correctness
// rests on every endpoint being a pure function of its canonical
// request: the cached bytes are exactly what a fresh evaluation would
// produce, so cache hits can never change a response, only its
// latency.
//
// Concurrency: the key space is split across `shards` independent
// LRU structures (shard = hash(key) % shards), each behind its own
// mutex.  A point line takes one shard lock per get or put.  A grid
// takes one per touched shard per pass: its lanes go in as one batch
// probe and one batch put, each locking every touched shard once and
// applying that shard's lanes in ascending lane order — per shard the
// same operations, in the same order, as one call per lane, hence the
// same contents, LRU order and counters.  Two locks per lane did
// contend once several grid lines were served at once (DESIGN.md §8
// gives the measurements); each acquisition that finds its lock held
// is counted (stats::lock_waits).  hash(key) is
// std::hash<std::string_view>; a caller that already holds it passes a
// `hashed_key`, and each entry stores it, so a key is hashed once per
// operation — not again for the shard choice, the index probe, the
// insert or the eviction of another entry.
//
// Storage: a shard is a slab.  Each entry is one fixed record (hash,
// primary metric, key/value lengths, 32-bit LRU links) in a record
// array that grows up to the per-shard capacity, plus one block holding
// its key and value bytes, taken from the shard's size-class free
// lists.  An eviction hands its block back to the shard and the next
// put reuses it, so once a shard is full and its spare blocks cover the
// sizes it stores, get, put and eviction allocate and free nothing.
// Reads copy out under the shard lock: get copies the value into the
// caller's buffer, probe_batch returns the stored doubles, and nothing
// the cache hands out refers to its memory.
//
// Capacity is interpreted as a total entry budget distributed evenly
// across shards (per-shard ceil(capacity/shards), so the effective
// total may exceed `capacity` by up to shards-1 entries).  A capacity
// of 0 disables caching entirely (every get misses, puts are dropped).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace silicon::serve {

/// Sharded least-recently-used string -> string cache.
class memo_cache {
public:
    /// A key together with its std::hash<std::string_view>.  `text` is
    /// a view: it must stay alive for the call it is passed to.
    struct hashed_key {
        std::string_view text;
        std::size_t hash = 0;

        [[nodiscard]] static hashed_key of(std::string_view text) noexcept {
            return {text, std::hash<std::string_view>{}(text)};
        }
    };

    /// The metric of an entry that carries none (an op without a
    /// primary metric, or one whose bytes print it as null).
    static constexpr double no_metric =
        std::numeric_limits<double>::quiet_NaN();

    /// Aggregate statistics across all shards (counters are cumulative
    /// since construction, never reset by eviction).
    struct stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        /// Shard-lock acquisitions that found the lock held by another
        /// thread: the contention between concurrent callers.
        std::uint64_t lock_waits = 0;
        std::size_t entries = 0;   ///< current resident entries
        std::size_t capacity = 0;  ///< configured total budget
        std::size_t shards = 0;    ///< shard count actually in use
        /// Resident entries per shard (size == shards) — the occupancy
        /// skew the Prometheus exposition reports per shard.
        std::vector<std::size_t> shard_entries;
    };

    /// @param capacity total entry budget; 0 disables the cache.
    /// @param shards   requested shard count (clamped to [1, capacity]).
    explicit memo_cache(std::size_t capacity, std::size_t shards = 16);
    ~memo_cache();

    memo_cache(const memo_cache&) = delete;
    memo_cache& operator=(const memo_cache&) = delete;

    /// True on a hit, which moves the entry to most-recently-used
    /// position and, when `out` is set, replaces `*out` with the value.
    /// The copy is made under the shard lock into `out`'s existing
    /// capacity; a buffer too small is grown outside the lock first.
    [[nodiscard]] bool get(hashed_key key, std::string* out = nullptr);
    [[nodiscard]] bool get(std::string_view key, std::string* out = nullptr) {
        return get(hashed_key::of(key), out);
    }

    /// Probe used by the engine's lane planner: behaves like `get` on a
    /// hit (counts it, promotes to MRU) but does NOT count a miss.
    [[nodiscard]] bool get_if_present(hashed_key key,
                                      std::string* out = nullptr);
    [[nodiscard]] bool get_if_present(std::string_view key,
                                      std::string* out = nullptr) {
        return get_if_present(hashed_key::of(key), out);
    }

    /// Reusable storage for grouping a batch's lanes by shard: keep one
    /// per thread, so a batch allocates nothing once it has grown.
    struct batch_order {
        /// Lane indices, grouped by shard, ascending within a shard.
        std::vector<std::uint32_t> lanes;
        /// Shard s's lanes are lanes[ends[s - 1], ends[s]) (from 0 for
        /// shard 0).
        std::vector<std::uint32_t> ends;
    };

    /// One lane of a batch put.  Empty key text marks a lane that is
    /// not cached (a rejected point request); it is skipped.
    struct batch_entry {
        hashed_key key;
        std::string_view value;
        double metric = no_metric;
    };

    /// Batch probe of a grid's lanes for a splice: out[i] (out.size() ==
    /// keys.size()) is the stored metric of keys[i] (no_metric when it
    /// carries none), or nullopt when the key is absent or its text is
    /// empty (not probed).  A hit counts and moves to most-recently-used
    /// like `get_if_present`; a miss is not counted.  Each touched shard
    /// is locked once and probed in ascending lane order, so every shard
    /// sees the operations a get_if_present per lane in order would give.
    void probe_batch(std::span<const hashed_key> keys,
                     std::span<std::optional<double>> out,
                     batch_order& order);

    /// Batch `put` of a grid's lanes: each touched shard is locked once
    /// and stores its entries in ascending lane order, so every shard
    /// ends as a put per entry in order would leave it (a key twice in
    /// the batch is refreshed by its later entry).  Entries with empty
    /// key text, or a key or value over 4 GiB, are skipped.  A failed
    /// allocation stops the batch at that entry and throws; the entries
    /// stored before it stay.
    void put_batch(std::span<const batch_entry> entries, batch_order& order);

    /// True when `key` is resident.  Counts nothing and leaves the LRU
    /// order alone: a cost estimate, not a lookup.
    [[nodiscard]] bool contains(hashed_key key) const;
    [[nodiscard]] bool contains(std::string_view key) const {
        return contains(hashed_key::of(key));
    }

    /// Insert or refresh `key` with `value` and its primary `metric` (the
    /// number the value carries under `primary_metric`, no_metric when it
    /// prints null or the op has none); evicts the least-recently-used
    /// entry of the key's shard when that shard is full.  A put
    /// allocates while its shard fills (record array, index, blocks) and,
    /// once full, only when neither a spare block nor the one its
    /// eviction frees is large enough.  It allocates before changing the
    /// shard, so a failed allocation leaves the cache as it was.  A key
    /// or value over 4 GiB is not cached.
    void put(hashed_key key, std::string_view value,
             double metric = no_metric);
    void put(std::string_view key, std::string_view value,
             double metric = no_metric) {
        put(hashed_key::of(key), value, metric);
    }

    /// Drop every entry and give the shards' memory back (counters are
    /// preserved).
    void clear();

    /// Memory-pressure shedding: drop every resident entry of the first
    /// `count` shards (clamped to the shard count), give their memory
    /// back and return how many entries were released.  Shed entries
    /// count as evictions; shards stay usable, so this trades hit rate
    /// for immediate memory, not capacity.  Safe under concurrent
    /// get/put.
    std::size_t shed_shards(std::size_t count);

    [[nodiscard]] stats snapshot() const;

    /// Shards actually in use (0 when the cache is disabled).
    [[nodiscard]] std::size_t shard_count() const noexcept {
        return shard_count_;
    }

    /// Copy of shard `index`'s resident (key, value) entries in least-
    /// to most-recently-used order, so replaying them through put()
    /// reproduces the recency order.  The shard lock is held only for
    /// the duration of the copy — the snapshot writer walks shards one
    /// at a time, staying out of the way of concurrent get/put/shed.
    [[nodiscard]] std::vector<std::pair<std::string, std::string>>
    shard_snapshot(std::size_t index) const;

private:
    struct shard;
    /// `get` and `get_if_present`: a miss is counted when `count_miss`.
    bool lookup(hashed_key key, std::string* out, bool count_miss);

    shard* shards_ = nullptr;
    std::size_t shard_count_ = 0;
    std::size_t capacity_ = 0;
    std::size_t per_shard_capacity_ = 0;
    /// Miss count when the cache is disabled (capacity 0): there are no
    /// shards to carry the counter, but every get() is still a miss and
    /// the stats must say so.
    std::atomic<std::uint64_t> disabled_misses_{0};
};

}  // namespace silicon::serve
