// json.hpp — minimal dependency-free JSON document model, parser and
// writer for the serving layer.
//
// The serve subsystem speaks newline-delimited JSON (one request or
// response per line), and the memoization cache keys on a *canonical*
// serialization of the request, so this module provides three things:
//
//   1. a small value type (`json::value`) covering the full JSON data
//      model — null, bool, number (double), string, array, object —
//      with objects preserving insertion order for readable output;
//   2. a strict recursive-descent parser (`json::parse`) with
//      position-carrying errors and a nesting-depth guard;
//   3. two writers: `dump` (compact, insertion order) and `canonical`
//      (compact, object keys sorted bytewise at every level) — the
//      latter is what cache keys are built from, so two requests that
//      differ only in member order hash identically.
//
// Numbers are IEEE doubles written as the shortest text that reads back
// as the same double, in std::to_chars' plain format (fixed or
// scientific, whichever is shorter, ties to fixed).  The writer is
// in-tree (Schubfach digits over a generated table of powers of ten,
// json_pow10.hpp); byte identity with std::to_chars is its contract,
// pinned by differential tests.  So serialization is bit-deterministic
// across runs and thread counts (a core requirement of the serve
// determinism contract).  Non-finite doubles have no JSON
// representation and serialize as null.

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace silicon::serve::json {

class value;

/// JSON array: heterogeneous ordered list.
using array = std::vector<value>;

/// JSON object: key/value members in insertion order (keys unique;
/// `set` on an existing key replaces in place).  Lookup is a linear
/// scan — serve objects have a handful of members.
class object {
public:
    using member = std::pair<std::string, value>;

    object() = default;

    /// Member value for `key`, or nullptr when absent.
    [[nodiscard]] const value* find(std::string_view key) const;
    [[nodiscard]] value* find(std::string_view key);

    /// Insert or replace `key`; returns the stored value.
    value& set(std::string key, value v);

    [[nodiscard]] std::size_t size() const noexcept;
    [[nodiscard]] bool empty() const noexcept;
    [[nodiscard]] const std::vector<member>& members() const noexcept {
        return members_;
    }

private:
    std::vector<member> members_;
};

/// Error thrown by the typed accessors on a kind mismatch.
class type_error : public std::runtime_error {
public:
    explicit type_error(const std::string& what) : std::runtime_error{what} {}
};

/// A JSON document node.
class value {
public:
    value() noexcept : v_{nullptr} {}
    value(std::nullptr_t) noexcept : v_{nullptr} {}
    value(bool b) noexcept : v_{b} {}
    value(double d) noexcept : v_{d} {}
    value(int i) noexcept : v_{static_cast<double>(i)} {}
    value(long l) noexcept : v_{static_cast<double>(l)} {}
    value(unsigned u) noexcept : v_{static_cast<double>(u)} {}
    value(unsigned long u) noexcept : v_{static_cast<double>(u)} {}
    value(const char* s) : v_{std::string{s}} {}
    value(std::string s) noexcept : v_{std::move(s)} {}
    value(array a) noexcept : v_{std::move(a)} {}
    value(object o) noexcept : v_{std::move(o)} {}

    [[nodiscard]] bool is_null() const noexcept;
    [[nodiscard]] bool is_bool() const noexcept;
    [[nodiscard]] bool is_number() const noexcept;
    [[nodiscard]] bool is_string() const noexcept;
    [[nodiscard]] bool is_array() const noexcept;
    [[nodiscard]] bool is_object() const noexcept;

    /// Typed accessors; throw type_error on kind mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const array& as_array() const;
    [[nodiscard]] array& as_array();
    [[nodiscard]] const object& as_object() const;
    [[nodiscard]] object& as_object();

    friend bool operator==(const value& a, const value& b);

private:
    std::variant<std::nullptr_t, bool, double, std::string, array, object> v_;
};

/// Parse failure: `offset` is the byte position in the input where the
/// problem was detected (useful for pinpointing malformed batch lines).
class parse_error : public std::runtime_error {
public:
    parse_error(const std::string& what, std::size_t offset)
        : std::runtime_error{what + " at offset " + std::to_string(offset)},
          offset_{offset} {}

    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    std::size_t offset_;
};

/// Parse one complete JSON document (leading/trailing whitespace
/// allowed, anything else after the document is an error).  Strict per
/// RFC 8259: no comments, no trailing commas, no leading zeros, \uXXXX
/// escapes (including surrogate pairs) decoded to UTF-8.  Nesting
/// deeper than 128 levels throws (stack-overflow guard for adversarial
/// inputs on the wire).
[[nodiscard]] value parse(std::string_view text);

/// Compact serialization, object members in insertion order.
[[nodiscard]] std::string dump(const value& v);

/// Compact serialization with object keys sorted bytewise at every
/// nesting level — the canonical form used for cache keys.  Number and
/// string formatting is identical to `dump`.
[[nodiscard]] std::string canonical(const value& v);

/// Shortest round-trip formatting of a double (std::to_chars' bytes);
/// the single number formatter used by every writer.  Non-finite values
/// return "null".
[[nodiscard]] std::string format_number(double d);

/// Room `format_number_to` needs.  The longest text,
/// "-1.2345678901234567e-308", is 24 bytes; the writer stores whole
/// 8- to 24-byte runs, so it may write past the text's end.
inline constexpr std::size_t number_buffer_chars = 48;

/// Writes finite `d` as `format_number` would at `first`, which has room
/// for number_buffer_chars; returns the end of the text.  Allocates
/// nothing.
char* format_number_to(char* first, double d) noexcept;

/// Append-style variants used by the allocation-free hot path: same bytes
/// as `format_number` / the writers' string escaping, appended to `out`
/// (which only allocates if it must grow).
void format_number_into(double d, std::string& out);
void write_string_into(std::string& out, std::string_view s);

}  // namespace silicon::serve::json
