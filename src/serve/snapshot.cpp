#include "serve/snapshot.hpp"

#include "exec/arena.hpp"
#include "serve/faults.hpp"
#include "serve/json_arena.hpp"
#include "serve/request.hpp"

#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace silicon::serve::snapshot {

namespace {

// ---------------------------------------------------------------------------
// Little-endian scalar packing.  The headers are written field by field
// (not by struct memcpy) so the layout is the documented one on every
// host, independent of padding or endianness.
// ---------------------------------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

std::uint32_t get_u32(const char* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    }
    return v;
}

std::uint64_t get_u64(const char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    }
    return v;
}

/// The primary metric (`primary_metric` of the key's op) that `value`
/// carries, as the engine stores it beside an entry it evaluates: the
/// member's number, or no_metric when the op has none, the member is
/// absent or null, or either document does not parse.
double stored_metric(std::string_view key, std::string_view value,
                     json::arena_parser& parser, exec::arena& scratch) {
    try {
        scratch.reset();
        const json::aview* op = parser.parse(key, scratch).find("op");
        if (op == nullptr || !op->is_string()) {
            return memo_cache::no_metric;
        }
        const std::optional<op_code> code = op_from_string(op->string);
        const char* name =
            code.has_value() ? primary_metric(*code) : nullptr;
        if (name == nullptr) {
            return memo_cache::no_metric;
        }
        const json::aview* m = parser.parse(value, scratch).find(name);
        return m != nullptr && m->is_number() ? m->number
                                              : memo_cache::no_metric;
    } catch (const std::exception&) {
        return memo_cache::no_metric;
    }
}

constexpr std::size_t kFileHeaderBytes = 48;
constexpr std::size_t kShardHeaderBytes = 24;
constexpr std::size_t kRecordHeaderBytes = 8;  // key_len + value_len

std::array<std::uint32_t, 256> make_crc32c_table() {
    // Castagnoli polynomial, reflected.
    constexpr std::uint32_t poly = 0x82f63b78u;
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) != 0 ? (crc >> 1) ^ poly : crc >> 1;
        }
        table[i] = crc;
    }
    return table;
}

restore_result corrupt(std::string reason, std::uint64_t bytes) {
    restore_result r;
    r.outcome = restore_outcome::cold_corrupt;
    r.reason = std::move(reason);
    r.bytes = bytes;
    return r;
}

/// Write the whole buffer to `fd`, retrying EINTR and short writes.
bool write_all(int fd, std::string_view data) {
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n > 0) {
            data.remove_prefix(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        return false;
    }
    return true;
}

write_result write_error(std::string what, const std::string& tmp_path) {
    if (!tmp_path.empty()) {
        ::unlink(tmp_path.c_str());
    }
    write_result r;
    r.error = std::move(what);
    return r;
}

/// Best-effort fsync of the directory containing `path`, so the
/// rename itself is durable.  Failure is ignored: the data file is
/// already synced and renamed, and some filesystems reject dir fsync.
void sync_parent_dir(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string{"."}
                                : path.substr(0, slash == 0 ? 1 : slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
    static const std::array<std::uint32_t, 256> table = make_crc32c_table();
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i) {
        crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    }
    return ~crc;
}

std::uint64_t config_fingerprint(bool fast_math) {
    // FNV-1a over a contract string; anything that changes what bytes
    // are legal cache contents must be folded in here.
    constexpr std::uint64_t offset = 0xcbf29ce484222325ull;
    constexpr std::uint64_t prime = 0x100000001b3ull;
    std::uint64_t h = offset;
    const std::string_view contract =
        fast_math ? std::string_view{"silicon.serve.cache.v1+fast_math"}
                  : std::string_view{"silicon.serve.cache.v1"};
    for (const char c : contract) {
        h = (h ^ static_cast<unsigned char>(c)) * prime;
    }
    return h;
}

std::string serialize(const memo_cache& cache, std::uint64_t fingerprint,
                      std::uint64_t* entries_out) {
    const std::size_t shard_count = cache.shard_count();
    std::string payload;
    std::uint64_t total_entries = 0;
    std::string records;
    for (std::size_t i = 0; i < shard_count; ++i) {
        // One shard at a time under its own lock: a concurrent put or
        // shed makes this image stale, never torn — the shard header's
        // count and CRC describe exactly the records captured below.
        const auto entries = cache.shard_snapshot(i);
        faults::maybe_delay("serve.snapshot_write");
        records.clear();
        for (const auto& [key, value] : entries) {
            put_u32(records, static_cast<std::uint32_t>(key.size()));
            put_u32(records, static_cast<std::uint32_t>(value.size()));
            records.append(key);
            records.append(value);
        }
        put_u64(payload, entries.size());
        put_u64(payload, records.size());
        put_u32(payload, crc32c(records.data(), records.size()));
        put_u32(payload, 0);  // reserved
        payload.append(records);
        total_entries += entries.size();
    }

    std::string image;
    image.reserve(kFileHeaderBytes + payload.size());
    image.append(magic, sizeof magic);
    put_u32(image, format_version);
    put_u32(image, static_cast<std::uint32_t>(shard_count));
    put_u64(image, fingerprint);
    put_u64(image, total_entries);
    put_u64(image, payload.size());
    put_u32(image, crc32c(image.data(), image.size()));
    put_u32(image, 0);  // reserved
    image.append(payload);
    if (entries_out != nullptr) {
        *entries_out = total_entries;
    }
    return image;
}

write_result write_file(const memo_cache& cache, std::uint64_t fingerprint,
                        const std::string& path) {
    std::uint64_t entries = 0;
    std::string image;
    try {
        image = serialize(cache, fingerprint, &entries);
    } catch (const std::bad_alloc&) {
        return write_error("out of memory serializing snapshot", "");
    }
    if (faults::should_fail("serve.snapshot_write")) {
        return write_error("injected snapshot write failure", "");
    }
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        return write_error("open " + tmp + ": " + std::strerror(errno), "");
    }
    if (!write_all(fd, image)) {
        const int err = errno;
        ::close(fd);
        return write_error("write " + tmp + ": " + std::strerror(err), tmp);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        return write_error("fsync " + tmp + ": " + std::strerror(err), tmp);
    }
    if (::close(fd) != 0) {
        return write_error("close " + tmp + ": " + std::strerror(errno), tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        return write_error("rename " + tmp + ": " + std::strerror(errno),
                           tmp);
    }
    sync_parent_dir(path);
    write_result r;
    r.ok = true;
    r.entries = entries;
    r.bytes = image.size();
    return r;
}

restore_result deserialize_into(memo_cache& cache, std::uint64_t fingerprint,
                                const std::string& image) {
    const std::uint64_t size = image.size();
    if (size < kFileHeaderBytes) {
        return corrupt("truncated header (" + std::to_string(size) +
                           " bytes)",
                       size);
    }
    const char* p = image.data();
    if (std::memcmp(p, magic, sizeof magic) != 0) {
        return corrupt("bad magic", size);
    }
    const std::uint32_t header_crc = get_u32(p + 40);
    if (crc32c(p, 40) != header_crc) {
        return corrupt("header checksum mismatch", size);
    }
    const std::uint32_t version = get_u32(p + 8);
    if (version != format_version) {
        return corrupt("format version " + std::to_string(version) +
                           ", want " + std::to_string(format_version),
                       size);
    }
    const std::uint64_t file_fingerprint = get_u64(p + 16);
    if (file_fingerprint != fingerprint) {
        return corrupt("engine-config fingerprint mismatch", size);
    }
    const std::uint32_t shard_count = get_u32(p + 12);
    const std::uint64_t entry_count = get_u64(p + 24);
    const std::uint64_t payload_bytes = get_u64(p + 32);
    if (payload_bytes != size - kFileHeaderBytes) {
        return corrupt("payload length mismatch", size);
    }

    // Stage every record before the first insertion: a failure anywhere
    // below must leave the cache untouched.  Views point into `image`.
    std::vector<std::pair<std::string_view, std::string_view>> staged;
    if (entry_count > size / kRecordHeaderBytes) {
        return corrupt("entry count exceeds file size", size);
    }
    staged.reserve(entry_count);
    std::uint64_t at = kFileHeaderBytes;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        if (size - at < kShardHeaderBytes) {
            return corrupt("truncated shard header", size);
        }
        const std::uint64_t shard_entries = get_u64(p + at);
        const std::uint64_t record_bytes = get_u64(p + at + 8);
        const std::uint32_t record_crc = get_u32(p + at + 16);
        at += kShardHeaderBytes;
        if (record_bytes > size - at) {
            return corrupt("shard record region exceeds file size", size);
        }
        if (crc32c(p + at, record_bytes) != record_crc) {
            return corrupt("shard " + std::to_string(s) +
                               " checksum mismatch",
                           size);
        }
        const std::uint64_t region_end = at + record_bytes;
        std::uint64_t parsed = 0;
        while (at < region_end) {
            if (region_end - at < kRecordHeaderBytes) {
                return corrupt("truncated record header", size);
            }
            const std::uint32_t key_len = get_u32(p + at);
            const std::uint32_t value_len = get_u32(p + at + 4);
            at += kRecordHeaderBytes;
            if (key_len == 0 || value_len == 0) {
                return corrupt("zero-length record field", size);
            }
            if (key_len > region_end - at ||
                value_len > region_end - at - key_len) {
                return corrupt("record length exceeds shard region", size);
            }
            staged.emplace_back(std::string_view{p + at, key_len},
                                std::string_view{p + at + key_len,
                                                 value_len});
            at += key_len;
            at += value_len;
            ++parsed;
        }
        if (parsed != shard_entries) {
            return corrupt("shard " + std::to_string(s) + " entry count " +
                               std::to_string(parsed) + ", header says " +
                               std::to_string(shard_entries),
                           size);
        }
    }
    if (at != size) {
        return corrupt("trailing bytes after last shard", size);
    }
    if (staged.size() != entry_count) {
        return corrupt("total entry count mismatch", size);
    }

    // Everything validated: replay in file order (LRU -> MRU per shard)
    // so put() reproduces the recency order of the snapshotted cache.
    // The file carries no metrics; each entry's is read from its bytes
    // here, once.
    json::arena_parser parser;
    exec::arena scratch;
    for (const auto& [key, value] : staged) {
        cache.put(key, value, stored_metric(key, value, parser, scratch));
    }
    restore_result r;
    r.outcome = restore_outcome::restored;
    r.entries = staged.size();
    r.bytes = size;
    return r;
}

restore_result restore_file(memo_cache& cache, std::uint64_t fingerprint,
                            const std::string& path) {
    if (faults::should_fail("serve.snapshot_read")) {
        return corrupt("injected snapshot read failure", 0);
    }
    faults::maybe_delay("serve.snapshot_read");
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno == ENOENT) {
            return restore_result{};  // cold_missing: normal first boot
        }
        return corrupt("open " + path + ": " + std::strerror(errno), 0);
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return corrupt("snapshot is not a regular file", 0);
    }
    std::string image;
    try {
        image.resize(static_cast<std::size_t>(st.st_size));
    } catch (const std::bad_alloc&) {
        ::close(fd);
        return corrupt("out of memory reading snapshot", 0);
    }
    std::size_t got = 0;
    while (got < image.size()) {
        const ssize_t n =
            ::read(fd, image.data() + got, image.size() - got);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        break;  // EOF early (file shrank) or read error
    }
    ::close(fd);
    if (got != image.size()) {
        return corrupt("short read (" + std::to_string(got) + " of " +
                           std::to_string(image.size()) + " bytes)",
                       got);
    }
    try {
        return deserialize_into(cache, fingerprint, image);
    } catch (const std::bad_alloc&) {
        return corrupt("out of memory restoring snapshot", image.size());
    }
}

}  // namespace silicon::serve::snapshot
