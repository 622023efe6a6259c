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
// mutex, so parallel batch workers rarely contend.  hash(key) is
// std::hash<std::string_view>; a caller that already holds it passes a
// `hashed_key`, and each entry stores it, so a key is hashed once per
// operation — not again for the shard choice, the index probe, the
// insert or the eviction of another entry.  Values are
// returned as shared_ptr<const string> — a hit stays valid even if the
// entry is evicted a microsecond later by another thread.
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
#include <memory>
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

    /// Aggregate statistics across all shards (counters are cumulative
    /// since construction, never reset by eviction).
    struct stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
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

    /// The cached value for `key`, or nullptr on a miss.  A hit moves
    /// the entry to most-recently-used position.
    [[nodiscard]] std::shared_ptr<const std::string> get(hashed_key key);
    [[nodiscard]] std::shared_ptr<const std::string> get(
        std::string_view key) {
        return get(hashed_key::of(key));
    }

    /// Probe used by the engine's lane planner: behaves like `get` on a
    /// hit (counts it, promotes to MRU) but does NOT count a miss.
    [[nodiscard]] std::shared_ptr<const std::string> get_if_present(
        hashed_key key);
    [[nodiscard]] std::shared_ptr<const std::string> get_if_present(
        std::string_view key) {
        return get_if_present(hashed_key::of(key));
    }

    /// True when `key` is resident.  Counts nothing and leaves the LRU
    /// order alone: a cost estimate, not a lookup.
    [[nodiscard]] bool contains(hashed_key key) const;
    [[nodiscard]] bool contains(std::string_view key) const {
        return contains(hashed_key::of(key));
    }

    /// Insert or refresh `key`; evicts the least-recently-used entry of
    /// the key's shard when that shard is full.
    void put(hashed_key key, std::string value);
    void put(std::string_view key, std::string value) {
        put(hashed_key::of(key), std::move(value));
    }

    /// Drop every entry (counters are preserved).
    void clear();

    /// Memory-pressure shedding: drop every resident entry of the first
    /// `count` shards (clamped to the shard count) and return how many
    /// entries were released.  Shed entries count as evictions; shards
    /// stay usable, so this trades hit rate for immediate memory, not
    /// capacity.  Safe under concurrent get/put.
    std::size_t shed_shards(std::size_t count);

    [[nodiscard]] stats snapshot() const;

    /// Shards actually in use (0 when the cache is disabled).
    [[nodiscard]] std::size_t shard_count() const noexcept {
        return shard_count_;
    }

    /// Copy of shard `index`'s resident entries in least- to
    /// most-recently-used order, so replaying them through put()
    /// reproduces the recency order.  Values are shared, not copied.
    /// The shard lock is held only for the duration of the copy — the
    /// snapshot writer walks shards one at a time, staying out of the
    /// way of concurrent get/put/shed.
    [[nodiscard]] std::vector<
        std::pair<std::string, std::shared_ptr<const std::string>>>
    shard_snapshot(std::size_t index) const;

private:
    struct shard;
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
