#include "serve/cache.hpp"

#include <bit>
#include <list>
#include <mutex>
#include <utility>

namespace silicon::serve {

struct memo_cache::shard {
    struct entry {
        std::string key;
        std::size_t hash;
        std::shared_ptr<const std::string> value;
    };
    using node = std::list<entry>::iterator;

    /// One index slot: an entry's hash and its LRU node (`lru.end()` =
    /// empty).  A probe reads slots and compares key bytes only when the
    /// hashes match, so a miss usually touches no entry at all.
    struct slot {
        std::size_t hash = 0;
        node it;
    };

    mutable std::mutex mutex;
    std::list<entry> lru;  ///< front = most recently used
    /// Open addressing with linear probing: a power-of-two slot count
    /// (0 before the first insert) kept at least twice the entries.
    std::vector<slot> index;
    int shift = 0;  ///< 64 - log2(index.size()), once index is non-empty
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /// First slot to probe for `hash`.  The shard was picked by
    /// hash % shard_count, so the low bits are alike within a shard;
    /// multiplying mixes every bit into the top ones used here.
    [[nodiscard]] std::size_t home(std::size_t hash) const noexcept {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >>
            shift);
    }

    [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
        return (i + 1) & (index.size() - 1);
    }

    /// The slot holding `key`, or nullptr.
    [[nodiscard]] const slot* find(hashed_key key) const {
        if (index.empty()) {
            return nullptr;
        }
        for (std::size_t i = home(key.hash);; i = next(i)) {
            const slot& at = index[i];
            if (at.it == lru.end()) {
                return nullptr;
            }
            if (at.hash == key.hash && at.it->key == key.text) {
                return &at;
            }
        }
    }

    /// Indexes `n`, whose key is absent, growing the table first when
    /// it would be more than half full.
    void insert(node n) {
        if ((lru.size() + 1) * 2 > index.size()) {
            std::vector<slot> old(index.empty() ? 8 : index.size() * 2,
                                  slot{0, lru.end()});
            old.swap(index);
            shift = 64 - std::countr_zero(index.size());
            for (const slot& at : old) {
                if (at.it != lru.end()) {
                    place(at);
                }
            }
        }
        place(slot{n->hash, n});
    }

    void place(const slot& s) {
        std::size_t i = home(s.hash);
        while (index[i].it != lru.end()) {
            i = next(i);
        }
        index[i] = s;
    }

    /// Unindexes `n` by backward-shift deletion: the rest of its probe
    /// run moves up, so lookups need no tombstones.
    void erase(node n) {
        std::size_t i = home(n->hash);
        while (index[i].it != n) {
            i = next(i);
        }
        const std::size_t mask = index.size() - 1;
        for (std::size_t j = next(i); index[j].it != lru.end(); j = next(j)) {
            // Slot j moves up to i unless its home lies after i.
            if (((j - home(index[j].hash)) & mask) >= ((j - i) & mask)) {
                index[i] = index[j];
                i = j;
            }
        }
        index[i].it = lru.end();
    }

    void drop_all() {
        lru.clear();
        for (slot& at : index) {
            at.it = lru.end();
        }
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
    per_shard_capacity_ = (capacity_ + shard_count_ - 1) / shard_count_;
    shards_ = new shard[shard_count_];
}

memo_cache::~memo_cache() { delete[] shards_; }

std::shared_ptr<const std::string> memo_cache::get(hashed_key key) {
    if (shards_ == nullptr) {
        disabled_misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    shard& s = shards_[key.hash % shard_count_];
    const std::lock_guard<std::mutex> lock(s.mutex);
    const shard::slot* at = s.find(key);
    if (at == nullptr) {
        ++s.misses;
        return nullptr;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, at->it);
    return at->it->value;
}

std::shared_ptr<const std::string> memo_cache::get_if_present(
    hashed_key key) {
    if (shards_ == nullptr) {
        return nullptr;
    }
    shard& s = shards_[key.hash % shard_count_];
    const std::lock_guard<std::mutex> lock(s.mutex);
    const shard::slot* at = s.find(key);
    if (at == nullptr) {
        return nullptr;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, at->it);
    return at->it->value;
}

bool memo_cache::contains(hashed_key key) const {
    if (shards_ == nullptr) {
        return false;
    }
    const shard& s = shards_[key.hash % shard_count_];
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.find(key) != nullptr;
}

void memo_cache::put(hashed_key key, std::string value) {
    if (shards_ == nullptr) {
        return;
    }
    shard& s = shards_[key.hash % shard_count_];
    auto stored = std::make_shared<const std::string>(std::move(value));
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (const shard::slot* at = s.find(key); at != nullptr) {
        at->it->value = std::move(stored);
        s.lru.splice(s.lru.begin(), s.lru, at->it);
        return;
    }
    if (s.lru.size() >= per_shard_capacity_) {
        s.erase(std::prev(s.lru.end()));
        s.lru.pop_back();
        ++s.evictions;
    }
    s.lru.push_front({std::string{key.text}, key.hash, std::move(stored)});
    s.insert(s.lru.begin());
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
        const std::lock_guard<std::mutex> lock(s.mutex);
        dropped += s.lru.size();
        s.evictions += s.lru.size();
        s.drop_all();
    }
    return dropped;
}

void memo_cache::clear() {
    for (std::size_t i = 0; i < shard_count_; ++i) {
        shard& s = shards_[i];
        const std::lock_guard<std::mutex> lock(s.mutex);
        s.drop_all();
    }
}

std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
memo_cache::shard_snapshot(std::size_t index) const {
    std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
        out;
    if (shards_ == nullptr || index >= shard_count_) {
        return out;
    }
    const shard& s = shards_[index];
    const std::lock_guard<std::mutex> lock(s.mutex);
    out.reserve(s.lru.size());
    for (auto it = s.lru.rbegin(); it != s.lru.rend(); ++it) {
        out.emplace_back(it->key, it->value);
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
        const std::lock_guard<std::mutex> lock(s.mutex);
        out.hits += s.hits;
        out.misses += s.misses;
        out.evictions += s.evictions;
        out.entries += s.lru.size();
        out.shard_entries.push_back(s.lru.size());
    }
    return out;
}

}  // namespace silicon::serve
