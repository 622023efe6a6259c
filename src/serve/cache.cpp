#include "serve/cache.hpp"

#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace silicon::serve {

struct memo_cache::shard {
    using entry = std::pair<std::string, std::shared_ptr<const std::string>>;

    mutable std::mutex mutex;
    std::list<entry> lru;  ///< front = most recently used
    std::unordered_map<std::string_view, std::list<entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

namespace {

std::size_t shard_for(std::string_view key, std::size_t shard_count) {
    return std::hash<std::string_view>{}(key) % shard_count;
}

}  // namespace

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

std::shared_ptr<const std::string> memo_cache::get(std::string_view key) {
    if (shards_ == nullptr) {
        disabled_misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    shard& s = shards_[shard_for(key, shard_count_)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.index.find(key);
    if (it == s.index.end()) {
        ++s.misses;
        return nullptr;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->second;
}

std::shared_ptr<const std::string> memo_cache::get_if_present(
    std::string_view key) {
    if (shards_ == nullptr) {
        return nullptr;
    }
    shard& s = shards_[shard_for(key, shard_count_)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.index.find(key);
    if (it == s.index.end()) {
        return nullptr;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->second;
}

bool memo_cache::contains(std::string_view key) const {
    if (shards_ == nullptr) {
        return false;
    }
    shard& s = shards_[shard_for(key, shard_count_)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.index.find(key) != s.index.end();
}

void memo_cache::put(std::string_view key, std::string value) {
    if (shards_ == nullptr) {
        return;
    }
    shard& s = shards_[shard_for(key, shard_count_)];
    auto stored = std::make_shared<const std::string>(std::move(value));
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (const auto it = s.index.find(key); it != s.index.end()) {
        it->second->second = std::move(stored);
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        return;
    }
    if (s.lru.size() >= per_shard_capacity_) {
        // The index keys view into the list node's string, so erase the
        // index entry before destroying the node.
        s.index.erase(s.lru.back().first);
        s.lru.pop_back();
        ++s.evictions;
    }
    s.lru.emplace_front(std::string{key}, std::move(stored));
    s.index.emplace(s.lru.front().first, s.lru.begin());
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
        s.index.clear();
        s.lru.clear();
    }
    return dropped;
}

void memo_cache::clear() {
    for (std::size_t i = 0; i < shard_count_; ++i) {
        shard& s = shards_[i];
        const std::lock_guard<std::mutex> lock(s.mutex);
        s.index.clear();
        s.lru.clear();
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
        out.emplace_back(it->first, it->second);
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
