#include "serve/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>

namespace silicon::serve {

namespace {

/// Size classes of the byte blocks: 16-byte steps up to 64 bytes, then
/// four steps per doubling (80, 96, 112, 128, 160, …), so a block wastes
/// at most a quarter of its bytes.  Key plus value is under 2^33 bytes
/// (each length is 32-bit), which the last class covers.
constexpr std::size_t class_count = 4 + 4 * 27;

/// The smallest class holding `n` bytes.
std::size_t class_of(std::size_t n) noexcept {
    if (n <= 64) {
        return n == 0 ? 0 : (n - 1) / 16;
    }
    const int e = static_cast<int>(std::bit_width(n - 1));  // e >= 7
    const std::size_t half = std::size_t{1} << (e - 1);
    const std::size_t step = half >> 2;
    return 4 + 4 * static_cast<std::size_t>(e - 7) +
           (n - half - 1) / step;
}

/// Bytes of a class-`c` block.
std::size_t class_bytes(std::size_t c) noexcept {
    if (c < 4) {
        return 16 * (c + 1);
    }
    const std::size_t e = 7 + (c - 4) / 4;
    const std::size_t half = std::size_t{1} << (e - 1);
    return half + ((c - 4) % 4 + 1) * (half >> 2);
}

constexpr std::uint32_t none = 0xFFFFFFFFu;

}  // namespace

struct memo_cache::shard {
    /// One resident entry.  Its key and value bytes sit back to back in
    /// `block`, a class-`cls` block of this shard.
    struct record {
        std::size_t hash = 0;
        double metric = no_metric;
        char* block = nullptr;
        std::uint32_t key_len = 0;
        std::uint32_t value_len = 0;
        std::uint32_t prev = none;  ///< toward the MRU end
        std::uint32_t next = none;  ///< toward the LRU end
        std::uint32_t cls = 0;

        [[nodiscard]] std::string_view key() const noexcept {
            return {block, key_len};
        }
        [[nodiscard]] std::string_view value() const noexcept {
            return {block + key_len, value_len};
        }
    };

    /// One index slot: an entry's hash and its record (`none` = empty).
    /// A probe reads slots and compares key bytes only when the hashes
    /// match, so a miss usually touches no record at all.
    struct slot {
        std::size_t hash = 0;
        std::uint32_t rec = none;
    };

    mutable std::mutex mutex;
    /// Every resident entry; the array only grows (to the per-shard
    /// capacity), because an eviction's record is reused by the put
    /// that caused it.
    std::vector<record> records;
    std::uint32_t head = none;  ///< most recently used
    std::uint32_t tail = none;  ///< least recently used: the next victim
    /// Open addressing with linear probing: a power-of-two slot count
    /// (0 before the first insert) kept at least twice the entries.
    std::vector<slot> index;
    int shift = 0;  ///< 64 - log2(index.size()), once index is non-empty
    /// Spare blocks per class, chained through their first bytes, with
    /// one bit per non-empty class.  Spares are kept while their bytes
    /// stay below the live entries' bytes, so the shard never holds more
    /// than twice what it stores.
    char* spare[class_count] = {};
    std::uint64_t spare_mask[2] = {};
    std::size_t spare_bytes = 0;
    std::size_t live_bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Acquisitions of `mutex` that found it held (counted under it).
    mutable std::uint64_t lock_waits = 0;

    shard() = default;
    shard(const shard&) = delete;
    shard& operator=(const shard&) = delete;
    ~shard() { drop_all(); }

    /// Takes `mutex`, counting an acquisition that finds it held: a
    /// failed try_lock before the blocking lock.
    [[nodiscard]] std::unique_lock<std::mutex> lock() const {
        std::unique_lock<std::mutex> held{mutex, std::try_to_lock};
        if (!held.owns_lock()) {
            held.lock();
            ++lock_waits;
        }
        return held;
    }

    /// First slot to probe for `hash`.  The shard was picked by
    /// hash % shard_count, so the low bits are alike within a shard;
    /// multiplying mixes every bit into the top ones used here.
    [[nodiscard]] std::size_t home(std::size_t hash) const noexcept {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >>
            shift);
    }

    [[nodiscard]] std::size_t next_slot(std::size_t i) const noexcept {
        return (i + 1) & (index.size() - 1);
    }

    /// The record holding `key`, or `none`.
    [[nodiscard]] std::uint32_t find(hashed_key key) const {
        if (index.empty()) {
            return none;
        }
        for (std::size_t i = home(key.hash);; i = next_slot(i)) {
            const slot& at = index[i];
            if (at.rec == none) {
                return none;
            }
            if (at.hash == key.hash && records[at.rec].key() == key.text) {
                return at.rec;
            }
        }
    }

    /// Makes room in the record array and the index for one more
    /// entry (the index kept at most half full).  Called before anything
    /// changes, so a failed allocation leaves the shard as it was.
    void reserve_entry(std::size_t capacity) {
        if (records.size() == records.capacity()) {
            records.reserve(std::min(
                capacity, std::max<std::size_t>(8, 2 * records.size())));
        }
        if ((records.size() + 1) * 2 > index.size()) {
            std::vector<slot> old(index.empty() ? 8 : index.size() * 2);
            old.swap(index);
            shift = 64 - std::countr_zero(index.size());
            for (const slot& at : old) {
                if (at.rec != none) {
                    place(at);
                }
            }
        }
    }

    void place(const slot& s) {
        std::size_t i = home(s.hash);
        while (index[i].rec != none) {
            i = next_slot(i);
        }
        index[i] = s;
    }

    /// Unindexes record `r` by backward-shift deletion: the rest of its
    /// probe run moves up, so lookups need no tombstones.
    void erase(std::uint32_t r) {
        std::size_t i = home(records[r].hash);
        while (index[i].rec != r) {
            i = next_slot(i);
        }
        const std::size_t mask = index.size() - 1;
        for (std::size_t j = next_slot(i); index[j].rec != none;
             j = next_slot(j)) {
            // Slot j moves up to i unless its home lies after i.
            if (((j - home(index[j].hash)) & mask) >= ((j - i) & mask)) {
                index[i] = index[j];
                i = j;
            }
        }
        index[i].rec = none;
    }

    void unlink(std::uint32_t r) {
        record& e = records[r];
        (e.prev == none ? head : records[e.prev].next) = e.next;
        (e.next == none ? tail : records[e.next].prev) = e.prev;
    }

    void push_front(std::uint32_t r) {
        record& e = records[r];
        e.prev = none;
        e.next = head;
        (head == none ? tail : records[head].prev) = r;
        head = r;
    }

    void touch(std::uint32_t r) {
        if (r != head) {
            unlink(r);
            push_front(r);
        }
    }

    /// The first class at or above `c` that has a spare, or class_count.
    [[nodiscard]] std::size_t first_spare(std::size_t c) const noexcept {
        for (std::size_t w = c / 64; w < 2; ++w) {
            std::uint64_t bits = spare_mask[w];
            if (w == c / 64) {
                bits &= ~std::uint64_t{0} << (c % 64);
            }
            if (bits != 0) {
                return w * 64 +
                       static_cast<std::size_t>(std::countr_zero(bits));
            }
        }
        return class_count;
    }

    /// Makes sure `take(n)` will find a spare: allocates a block into
    /// the free lists unless one fits already or `victim` (the record
    /// about to be evicted, or `none`) will leave one.  Called before
    /// anything changes, so a failed allocation leaves the shard as it
    /// was.
    void reserve_block(std::size_t n, std::uint32_t victim) {
        const std::size_t want = class_of(n);
        if (first_spare(want) != class_count) {
            return;
        }
        if (victim != none && records[victim].cls >= want) {
            const std::size_t bytes = class_bytes(records[victim].cls);
            if (spare_bytes + bytes <= live_bytes - bytes) {
                return;  // give() will keep it
            }
        }
        char* block = static_cast<char*>(::operator new(class_bytes(want)));
        push_spare(block, want);
    }

    void push_spare(char* block, std::size_t c) noexcept {
        std::memcpy(block, &spare[c], sizeof(char*));
        spare[c] = block;
        spare_mask[c / 64] |= std::uint64_t{1} << (c % 64);
        spare_bytes += class_bytes(c);
    }

    /// The smallest spare of at least `n` bytes, which reserve_block
    /// made sure of; its class goes to `cls`.
    char* take(std::size_t n, std::uint32_t& cls) noexcept {
        const std::size_t c = first_spare(class_of(n));
        char* block = spare[c];
        std::memcpy(&spare[c], block, sizeof(char*));
        if (spare[c] == nullptr) {
            spare_mask[c / 64] &= ~(std::uint64_t{1} << (c % 64));
        }
        spare_bytes -= class_bytes(c);
        live_bytes += class_bytes(c);
        cls = static_cast<std::uint32_t>(c);
        return block;
    }

    /// Returns a live block: kept as a spare while the spares' bytes
    /// stay within the live entries' bytes, else freed.
    void give(char* block, std::uint32_t cls) noexcept {
        const std::size_t bytes = class_bytes(cls);
        live_bytes -= bytes;
        if (spare_bytes + bytes > live_bytes) {
            ::operator delete(block);
            return;
        }
        push_spare(block, cls);
    }

    /// Inserts or refreshes `key` (put under the lock), evicting the LRU
    /// entry when the shard holds `capacity` entries.
    void store(hashed_key key, std::string_view value, double metric,
               std::size_t capacity) {
        const std::size_t n = key.text.size() + value.size();
        std::uint32_t r = find(key);
        const bool added = r == none;
        const bool evicting = added && records.size() >= capacity;
        const bool moves = added || class_bytes(records[r].cls) < n;
        // Whatever can throw comes first.
        if (added && !evicting) {
            reserve_entry(capacity);
        }
        if (moves) {
            reserve_block(n, evicting ? tail : none);
        }
        if (evicting) {
            r = tail;
            unlink(r);
            erase(r);
            give(records[r].block, records[r].cls);
            ++evictions;
        } else if (added) {
            r = static_cast<std::uint32_t>(records.size());
            records.emplace_back();
        } else if (moves) {
            give(records[r].block, records[r].cls);
        }
        record& e = records[r];
        if (moves) {
            e.block = take(n, e.cls);
            copy_bytes(e.block, key.text);
        }
        if (added) {
            e.hash = key.hash;
            e.key_len = static_cast<std::uint32_t>(key.text.size());
            place(slot{key.hash, r});
            push_front(r);
        }
        copy_bytes(e.block + e.key_len, value);
        e.value_len = static_cast<std::uint32_t>(value.size());
        e.metric = metric;
        touch(r);
    }

    static void copy_bytes(char* to, std::string_view from) noexcept {
        if (!from.empty()) {
            std::memcpy(to, from.data(), from.size());
        }
    }

    /// Frees every block and the record and index arrays.
    void drop_all() {
        for (const record& e : records) {
            ::operator delete(e.block);
        }
        for (char*& list : spare) {
            while (list != nullptr) {
                char* block = list;
                std::memcpy(&list, block, sizeof(char*));
                ::operator delete(block);
            }
        }
        spare_mask[0] = spare_mask[1] = 0;
        spare_bytes = live_bytes = 0;
        std::vector<record>{}.swap(records);
        std::vector<slot>{}.swap(index);
        head = tail = none;
    }
};

memo_cache::memo_cache(std::size_t capacity, std::size_t shards)
    : capacity_{capacity} {
    if (capacity_ == 0) {
        return;
    }
    shard_count_ = shards == 0 ? 1 : shards;
    if (shard_count_ > capacity_) {
        shard_count_ = capacity_;
    }
    // Record links are 32-bit, with one value reserved for "none".
    per_shard_capacity_ = std::min<std::size_t>(
        (capacity_ + shard_count_ - 1) / shard_count_, none - 1);
    shards_ = new shard[shard_count_];
}

memo_cache::~memo_cache() { delete[] shards_; }

bool memo_cache::lookup(hashed_key key, std::string* out, bool count_miss) {
    if (shards_ == nullptr) {
        if (count_miss) {
            disabled_misses_.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
    }
    shard& s = shards_[key.hash % shard_count_];
    for (;;) {
        std::size_t need = 0;
        {
            const auto lock = s.lock();
            const std::uint32_t r = s.find(key);
            if (r == none) {
                if (count_miss) {
                    ++s.misses;
                }
                return false;
            }
            const shard::record& e = s.records[r];
            if (out == nullptr || e.value_len <= out->capacity()) {
                if (out != nullptr) {
                    out->assign(e.block + e.key_len, e.value_len);
                }
                ++s.hits;
                s.touch(r);
                return true;
            }
            need = e.value_len;
        }
        // Grow the buffer outside the lock, then probe again: the entry
        // may have changed or gone meanwhile.
        out->reserve(need);
    }
}

bool memo_cache::get(hashed_key key, std::string* out) {
    return lookup(key, out, true);
}

bool memo_cache::get_if_present(hashed_key key, std::string* out) {
    return lookup(key, out, false);
}

namespace {

/// Runs apply(shard, i) for lanes i in [0, n), grouped by shard into
/// `order`: each touched shard is locked once and gets its lanes in
/// ascending order.  shard_of(i) is lane i's shard index, or `count` for
/// a lane to skip.
template <class Shard, class ShardOf, class Apply>
void each_by_shard(Shard* shards, std::size_t count, std::size_t n,
                   ShardOf shard_of, Apply apply,
                   memo_cache::batch_order& order) {
    // A counting sort: ends[s] counts shard s's lanes, then (prefix
    // sums) is where they begin, and placing them advances it to where
    // they end.  ends[count] collects the skipped lanes.
    order.ends.assign(count + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        ++order.ends[shard_of(i)];
    }
    std::uint32_t at = 0;
    for (std::uint32_t& e : order.ends) {
        at += std::exchange(e, at);
    }
    order.lanes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        order.lanes[order.ends[shard_of(i)]++] = static_cast<std::uint32_t>(i);
    }
    std::uint32_t begin = 0;
    for (std::size_t si = 0; si < count; ++si) {
        const std::uint32_t end = order.ends[si];
        if (begin == end) {
            continue;
        }
        Shard& s = shards[si];
        const auto lock = s.lock();
        for (std::uint32_t k = begin; k < end; ++k) {
            apply(s, order.lanes[k]);
        }
        begin = end;
    }
}

}  // namespace

void memo_cache::probe_batch(std::span<const hashed_key> keys,
                             std::span<std::optional<double>> out,
                             batch_order& order) {
    std::fill(out.begin(), out.end(), std::nullopt);
    if (shards_ == nullptr) {
        return;
    }
    each_by_shard(
        shards_, shard_count_, keys.size(),
        [&](std::size_t i) {
            return keys[i].text.empty() ? shard_count_
                                        : keys[i].hash % shard_count_;
        },
        [&](shard& s, std::size_t i) {
            const std::uint32_t r = s.find(keys[i]);
            if (r != none) {
                ++s.hits;
                s.touch(r);
                out[i] = s.records[r].metric;
            }
        },
        order);
}

void memo_cache::put_batch(std::span<const batch_entry> entries,
                           batch_order& order) {
    if (shards_ == nullptr) {
        return;
    }
    each_by_shard(
        shards_, shard_count_, entries.size(),
        [&](std::size_t i) {
            const batch_entry& e = entries[i];
            return e.key.text.empty() || e.key.text.size() > none ||
                           e.value.size() > none
                       ? shard_count_
                       : e.key.hash % shard_count_;
        },
        [&](shard& s, std::size_t i) {
            const batch_entry& e = entries[i];
            s.store(e.key, e.value, e.metric, per_shard_capacity_);
        },
        order);
}

bool memo_cache::contains(hashed_key key) const {
    if (shards_ == nullptr) {
        return false;
    }
    const shard& s = shards_[key.hash % shard_count_];
    const auto lock = s.lock();
    return s.find(key) != none;
}

void memo_cache::put(hashed_key key, std::string_view value, double metric) {
    if (shards_ == nullptr || key.text.size() > none ||
        value.size() > none) {
        return;
    }
    shard& s = shards_[key.hash % shard_count_];
    const auto lock = s.lock();
    s.store(key, value, metric, per_shard_capacity_);
}

std::size_t memo_cache::shed_shards(std::size_t count) {
    if (shards_ == nullptr) {
        return 0;
    }
    if (count > shard_count_) {
        count = shard_count_;
    }
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < count; ++i) {
        shard& s = shards_[i];
        const auto lock = s.lock();
        dropped += s.records.size();
        s.evictions += s.records.size();
        s.drop_all();
    }
    return dropped;
}

void memo_cache::clear() {
    for (std::size_t i = 0; i < shard_count_; ++i) {
        shard& s = shards_[i];
        const auto lock = s.lock();
        s.drop_all();
    }
}

std::vector<std::pair<std::string, std::string>> memo_cache::shard_snapshot(
    std::size_t index) const {
    std::vector<std::pair<std::string, std::string>> out;
    if (shards_ == nullptr || index >= shard_count_) {
        return out;
    }
    const shard& s = shards_[index];
    const auto lock = s.lock();
    out.reserve(s.records.size());
    for (std::uint32_t r = s.tail; r != none; r = s.records[r].prev) {
        out.emplace_back(s.records[r].key(), s.records[r].value());
    }
    return out;
}

memo_cache::stats memo_cache::snapshot() const {
    stats out;
    out.capacity = capacity_;
    out.shards = shard_count_;
    out.misses = disabled_misses_.load(std::memory_order_relaxed);
    out.shard_entries.reserve(shard_count_);
    for (std::size_t i = 0; i < shard_count_; ++i) {
        const shard& s = shards_[i];
        const auto lock = s.lock();
        out.hits += s.hits;
        out.misses += s.misses;
        out.evictions += s.evictions;
        out.lock_waits += s.lock_waits;
        out.entries += s.records.size();
        out.shard_entries.push_back(s.records.size());
    }
    return out;
}

}  // namespace silicon::serve
