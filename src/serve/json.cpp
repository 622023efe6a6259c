#include "serve/json.hpp"

#include "serve/json_pow10.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace silicon::serve::json {

// ---------------------------------------------------------------------------
// object
// ---------------------------------------------------------------------------

const value* object::find(std::string_view key) const {
    for (const member& m : members_) {
        if (m.first == key) {
            return &m.second;
        }
    }
    return nullptr;
}

value* object::find(std::string_view key) {
    for (member& m : members_) {
        if (m.first == key) {
            return &m.second;
        }
    }
    return nullptr;
}

value& object::set(std::string key, value v) {
    if (value* existing = find(key)) {
        *existing = std::move(v);
        return *existing;
    }
    members_.emplace_back(std::move(key), std::move(v));
    return members_.back().second;
}

std::size_t object::size() const noexcept { return members_.size(); }
bool object::empty() const noexcept { return members_.empty(); }

// ---------------------------------------------------------------------------
// value
// ---------------------------------------------------------------------------

bool value::is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(v_);
}
bool value::is_bool() const noexcept {
    return std::holds_alternative<bool>(v_);
}
bool value::is_number() const noexcept {
    return std::holds_alternative<double>(v_);
}
bool value::is_string() const noexcept {
    return std::holds_alternative<std::string>(v_);
}
bool value::is_array() const noexcept {
    return std::holds_alternative<array>(v_);
}
bool value::is_object() const noexcept {
    return std::holds_alternative<object>(v_);
}

namespace {

[[noreturn]] void wrong_kind(const char* wanted) {
    throw type_error(std::string{"json: value is not a "} + wanted);
}

}  // namespace

bool value::as_bool() const {
    if (const bool* b = std::get_if<bool>(&v_)) {
        return *b;
    }
    wrong_kind("bool");
}

double value::as_number() const {
    if (const double* d = std::get_if<double>(&v_)) {
        return *d;
    }
    wrong_kind("number");
}

const std::string& value::as_string() const {
    if (const std::string* s = std::get_if<std::string>(&v_)) {
        return *s;
    }
    wrong_kind("string");
}

const array& value::as_array() const {
    if (const array* a = std::get_if<array>(&v_)) {
        return *a;
    }
    wrong_kind("array");
}

array& value::as_array() {
    if (array* a = std::get_if<array>(&v_)) {
        return *a;
    }
    wrong_kind("array");
}

const object& value::as_object() const {
    if (const object* o = std::get_if<object>(&v_)) {
        return *o;
    }
    wrong_kind("object");
}

object& value::as_object() {
    if (object* o = std::get_if<object>(&v_)) {
        return *o;
    }
    wrong_kind("object");
}

bool operator==(const value& a, const value& b) {
    if (a.v_.index() != b.v_.index()) {
        return false;
    }
    if (a.is_object()) {
        // Order-insensitive member comparison (objects are unordered in
        // the JSON data model even though we preserve insertion order).
        const object& oa = a.as_object();
        const object& ob = b.as_object();
        if (oa.size() != ob.size()) {
            return false;
        }
        for (const object::member& m : oa.members()) {
            const value* other = ob.find(m.first);
            if (other == nullptr || !(m.second == *other)) {
                return false;
            }
        }
        return true;
    }
    return a.v_ == b.v_;
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

namespace {

constexpr int max_depth = 128;

class parser {
public:
    explicit parser(std::string_view text) : text_{text} {}

    value run() {
        skip_ws();
        value v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw parse_error("json: " + message, pos_);
    }

    [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

    [[nodiscard]] char peek() const {
        if (at_end()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    char take() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c, const char* what) {
        if (at_end() || text_[pos_] != c) {
            fail(std::string{"expected "} + what);
        }
        ++pos_;
    }

    void skip_ws() noexcept {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
                break;
            }
            ++pos_;
        }
    }

    void expect_literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) {
            fail("invalid literal");
        }
        pos_ += word.size();
    }

    value parse_value(int depth) {
        if (depth > max_depth) {
            fail("nesting too deep");
        }
        switch (peek()) {
            case '{':
                return parse_object(depth);
            case '[':
                return parse_array(depth);
            case '"':
                return value{parse_string()};
            case 't':
                expect_literal("true");
                return value{true};
            case 'f':
                expect_literal("false");
                return value{false};
            case 'n':
                expect_literal("null");
                return value{nullptr};
            default:
                return value{parse_number()};
        }
    }

    value parse_object(int depth) {
        expect('{', "'{'");
        object o;
        skip_ws();
        if (!at_end() && peek() == '}') {
            ++pos_;
            return value{std::move(o)};
        }
        for (;;) {
            skip_ws();
            if (peek() != '"') {
                fail("expected object key string");
            }
            std::string key = parse_string();
            if (o.find(key) != nullptr) {
                fail("duplicate object key '" + key + "'");
            }
            skip_ws();
            expect(':', "':'");
            skip_ws();
            o.set(std::move(key), parse_value(depth + 1));
            skip_ws();
            const char c = take();
            if (c == '}') {
                return value{std::move(o)};
            }
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
    }

    value parse_array(int depth) {
        expect('[', "'['");
        array a;
        skip_ws();
        if (!at_end() && peek() == ']') {
            ++pos_;
            return value{std::move(a)};
        }
        for (;;) {
            skip_ws();
            a.push_back(parse_value(depth + 1));
            skip_ws();
            const char c = take();
            if (c == ']') {
                return value{std::move(a)};
            }
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
    }

    void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    std::uint32_t parse_hex4() {
        std::uint32_t result = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = take();
            result <<= 4;
            if (c >= '0' && c <= '9') {
                result |= static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                result |= static_cast<std::uint32_t>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                result |= static_cast<std::uint32_t>(c - 'A' + 10);
            } else {
                --pos_;
                fail("invalid \\u escape digit");
            }
        }
        return result;
    }

    std::string parse_string() {
        expect('"', "'\"'");
        std::string out;
        for (;;) {
            const char c = take();
            if (c == '"') {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("unescaped control character in string");
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char esc = take();
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    std::uint32_t cp = parse_hex4();
                    if (cp >= 0xd800 && cp <= 0xdbff) {
                        // High surrogate: a low surrogate must follow.
                        if (take() != '\\' || take() != 'u') {
                            --pos_;
                            fail("unpaired UTF-16 surrogate");
                        }
                        const std::uint32_t lo = parse_hex4();
                        if (lo < 0xdc00 || lo > 0xdfff) {
                            fail("invalid low surrogate");
                        }
                        cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                    } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                        fail("unpaired UTF-16 surrogate");
                    }
                    append_utf8(out, cp);
                    break;
                }
                default:
                    --pos_;
                    fail("invalid escape character");
            }
        }
    }

    double parse_number() {
        const std::size_t start = pos_;
        if (!at_end() && text_[pos_] == '-') {
            ++pos_;
        }
        // Integer part: 0, or a non-zero digit followed by digits.
        if (at_end() || text_[pos_] < '0' || text_[pos_] > '9') {
            pos_ = start;
            fail("invalid value");
        }
        if (text_[pos_] == '0') {
            ++pos_;
            if (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                fail("leading zero in number");
            }
        } else {
            while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                ++pos_;
            }
        }
        if (!at_end() && text_[pos_] == '.') {
            ++pos_;
            if (at_end() || text_[pos_] < '0' || text_[pos_] > '9') {
                fail("digit required after decimal point");
            }
            while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                ++pos_;
            }
        }
        if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (at_end() || text_[pos_] < '0' || text_[pos_] > '9') {
                fail("digit required in exponent");
            }
            while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                ++pos_;
            }
        }
        double result = 0.0;
        const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                               text_.data() + pos_, result);
        (void)ptr;
        if (ec == std::errc::result_out_of_range) {
            // Keep the parser total over all grammatically valid numbers:
            // strtod's IEEE semantics (huge -> +-inf, tiny -> +-0).
            result = std::strtod(std::string{text_.substr(start, pos_ - start)}
                                     .c_str(),
                                 nullptr);
        } else if (ec != std::errc{}) {
            pos_ = start;
            fail("invalid number");
        }
        return result;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

value parse(std::string_view text) { return parser{text}.run(); }

// ---------------------------------------------------------------------------
// writers
// ---------------------------------------------------------------------------

std::string format_number(double d) {
    std::string out;
    format_number_into(d, out);
    return out;
}

namespace {

// The shortest-double writer: Schubfach (R. Giulietti, "The Schubfach
// way to render doubles") for the digits, std::to_chars' plain-format
// layout for the text.  json_pow10.hpp holds the 126-bit multipliers
// g(e) ~ 10^e * 2^(125 - floor(log2 10^e)), generated by
// tools/gen_pow10_table.py.

__extension__ typedef unsigned __int128 uint128;

constexpr std::uint64_t mantissa_mask = (std::uint64_t{1} << 52) - 1;

int floor_log10_pow2(int q) noexcept {
    return static_cast<int>((q * std::int64_t{661971961083}) >> 41);
}

int floor_log10_three_quarters_pow2(int q) noexcept {
    return static_cast<int>(
        (q * std::int64_t{661971961083} - std::int64_t{274743187321}) >> 41);
}

int floor_log2_pow10(int e) noexcept {
    return static_cast<int>((e * std::int64_t{913124641741}) >> 38);
}

/// rop(g * cp / 2^127): the integer part, its lowest bit set when the
/// bits from 2^-1 down to 2^-63 are not all zero (round to odd; the
/// bits below are g's rounding and never decide it).
inline std::uint64_t round_to_odd(const std::uint64_t (&g)[2],
                                  std::uint64_t cp) noexcept {
    const uint128 low = static_cast<uint128>(g[1]) * cp;
    const uint128 mid = static_cast<uint128>(g[0]) * cp + (low >> 64);
    const auto fraction = static_cast<std::uint64_t>(mid) &
                          ((std::uint64_t{1} << 63) - 1);
    return static_cast<std::uint64_t>(mid >> 63) | (fraction != 0 ? 1 : 0);
}

/// A positive double as digits * 10^exponent (digits may end in zeros).
struct decimal {
    std::uint64_t digits;
    int exponent;
};

/// The shortest decimal that reads back as the positive finite double
/// with these bits; among equally short ones the closest, ties to an
/// even last digit.
inline decimal shortest_decimal(std::uint64_t bits) noexcept {
    const std::uint64_t t = bits & mantissa_mask;
    const int biased = static_cast<int>(bits >> 52);
    std::uint64_t c = t;
    int q = -1074;
    if (biased != 0) {
        c |= std::uint64_t{1} << 52;
        q = biased - 1075;
        if (q <= 0 && q > -53 && (c >> -q) << -q == c) {
            return {c >> -q, 0};  // an integer below 2^53
        }
    }
    // The doubles that read back as this one are [vl, vr] (open when c
    // is odd); in quarters of 2^q: cbl, cb and cbr.  At the bottom of
    // a binade the lower neighbour is half as far.
    const std::uint64_t open = c & 1;
    const std::uint64_t cb = c << 2;
    const std::uint64_t cbr = cb + 2;
    std::uint64_t cbl = cb - 2;
    int k = floor_log10_pow2(q);
    if (t == 0 && biased > 1) {
        cbl = cb - 1;
        k = floor_log10_three_quarters_pow2(q);
    }
    // Scaled by 10^-k, so 10^k <= vr - vl < 10^(k+1).
    const int h = q + floor_log2_pow10(-k) + 2;
    const std::uint64_t(&g)[2] = detail::pow10_table[-k - detail::pow10_min];
    const std::uint64_t vb = round_to_odd(g, cb << h);
    const std::uint64_t vbl = round_to_odd(g, cbl << h);
    const std::uint64_t vbr = round_to_odd(g, cbr << h);
    const std::uint64_t s = vb >> 2;

    // At most one multiple of 10^(k+1) lies in the interval: when one
    // does, it is the shortest.  Otherwise s or s + 1 (times 10^k),
    // whichever lies in it, or the closer of the two.  Selected without
    // branches: which case applies is a coin toss from value to value.
    const std::uint64_t s10 = s / 10;
    const bool upin = vbl + open <= s10 * 40;
    const bool wpin = (s10 + 1) * 40 + open <= vbr;
    const bool uin = vbl + open <= s << 2;
    const bool win = ((s + 1) << 2) + open <= vbr;
    const std::uint64_t mid = (2 * s + 1) << 1;
    const bool pick_s = uin != win ? uin
                                   : vb < mid || (vb == mid && (s & 1) == 0);
    const bool coarse = upin != wpin;
    return {coarse ? s10 + (upin ? 0 : 1) : s + (pick_s ? 0 : 1),
            k + (coarse ? 1 : 0)};
}

constexpr char digit_pairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/// Writes the 8 digits of v < 10^8, zero-padded, at p.
inline void write_8_digits(char* p, std::uint32_t v) noexcept {
    const std::uint32_t high = v / 10000;
    const std::uint32_t low = v % 10000;
    std::memcpy(p, digit_pairs + high / 100 * 2, 2);
    std::memcpy(p + 2, digit_pairs + high % 100 * 2, 2);
    std::memcpy(p + 4, digit_pairs + low / 100 * 2, 2);
    std::memcpy(p + 6, digit_pairs + low % 100 * 2, 2);
}

/// The number of decimal digits of v > 0.
inline int decimal_length(std::uint64_t v) noexcept {
    static constexpr std::uint64_t powers[] = {
        1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u,
        100000000u, 1000000000u, 10000000000u, 100000000000u,
        1000000000000u, 10000000000000u, 100000000000000u,
        1000000000000000u, 10000000000000000u, 100000000000000000u,
        1000000000000000000u, 10000000000000000000u};
    const int t = (static_cast<int>(std::bit_width(v)) * 1233) >> 12;
    return t + (v >= powers[t] ? 1 : 0);
}

/// The digits of `v` (at most 24), ending at `end` whole 8-digit blocks
/// at a time; returns where they start.
inline char* write_digits_before(char* end, std::uint64_t v) noexcept {
    const int n = decimal_length(v);
    write_8_digits(end - 8, static_cast<std::uint32_t>(v % 100000000));
    if (n > 8) {
        v /= 100000000;
        write_8_digits(end - 16, static_cast<std::uint32_t>(v % 100000000));
        if (n > 16) {
            write_8_digits(end - 24, static_cast<std::uint32_t>(v / 100000000));
        }
    }
    return end - n;
}

/// The exact integer value of a double of at least 2^53 that fixed
/// notation prints (below 10^22, so it fits 128 bits).
char* write_exact_integer(char* p, std::uint64_t bits) noexcept {
    const int shift = static_cast<int>(bits >> 52) - 1075;
    const uint128 value =
        static_cast<uint128>((bits & mantissa_mask) | (std::uint64_t{1} << 52))
        << shift;
    constexpr std::uint64_t e16 = 10'000'000'000'000'000u;
    const auto high = static_cast<std::uint64_t>(value / e16);
    const auto low = static_cast<std::uint64_t>(value % e16);
    char buffer[40];
    char* const end = buffer + sizeof buffer;
    write_8_digits(end - 8, static_cast<std::uint32_t>(low % 100000000));
    write_8_digits(end - 16, static_cast<std::uint32_t>(low / 100000000));
    char* const first = write_digits_before(end - 16, high);
    const auto len = static_cast<std::size_t>(end - first);
    std::memcpy(p, first, len);
    return p + len;
}

}  // namespace

char* format_number_to(char* p, double d) noexcept {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
    if (bits >> 63 != 0) {
        *p++ = '-';
        bits &= ~(std::uint64_t{1} << 63);
    }
    if (bits == 0) {
        *p++ = '0';
        return p;
    }
    const decimal dec = shortest_decimal(bits);
    // The digits end at buffer + 24; the bytes after them let the
    // copies below move whole 16- and 24-byte runs.
    char buffer[48];
    char* end = buffer + 24;
    const char* const digits = write_digits_before(end, dec.digits);
    int exponent = dec.exponent;
    while (end[-1] == '0') {
        --end;
        ++exponent;
    }
    const int n = static_cast<int>(end - digits);
    const int x = exponent + n - 1;  // the scientific exponent

    // std::to_chars' plain format: fixed or scientific, whichever is
    // shorter, ties to fixed.  A value >= 1 with a fraction is always
    // fixed; a smaller one ("0.000ddd") or an integer ("ddd000") only
    // while that is no longer.
    const int scientific_len =
        n + (n > 1 ? 1 : 0) + (x >= 100 || x <= -100 ? 5 : 4);
    if (exponent < 0 && x >= 0) {
        const auto whole = static_cast<std::size_t>(x + 1);  // <= 16
        std::memcpy(p, digits, 16);
        p[whole] = '.';
        std::memcpy(p + whole + 1, digits + whole, 16);
        return p + n + 1;
    }
    if (x < 0 && n + 1 - x <= scientific_len) {
        std::memcpy(p, "0.000000", 8);
        std::memcpy(p + 1 - x, digits, 24);
        return p + n + 1 - x;
    }
    if (exponent >= 0 && n + exponent <= scientific_len) {
        if (bits >= std::bit_cast<std::uint64_t>(9007199254740992.0)) {
            return write_exact_integer(p, bits);  // 2^53 and up
        }
        std::memcpy(p, digits, 16);  // below 2^53: at most 16 digits
        std::memcpy(p + n, "00000000", 8);
        return p + n + exponent;
    }
    p[0] = digits[0];
    p[1] = '.';
    std::memcpy(p + 2, digits + 1, 16);
    p += n > 1 ? n + 1 : 1;
    p[0] = 'e';
    p[1] = x < 0 ? '-' : '+';
    const int ax = x < 0 ? -x : x;
    if (ax >= 100) {
        p[2] = static_cast<char>('0' + ax / 100);
        std::memcpy(p + 3, digit_pairs + ax % 100 * 2, 2);
        return p + 5;
    }
    std::memcpy(p + 2, digit_pairs + ax * 2, 2);
    return p + 4;
}

void format_number_into(double d, std::string& out) {
    if (!std::isfinite(d)) {
        out += "null";
        return;
    }
    char buffer[number_buffer_chars];
    const char* const end = format_number_to(buffer, d);
    out.append(buffer, static_cast<std::size_t>(end - buffer));
}

void write_string_into(std::string& out, std::string_view s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    constexpr char hex[] = "0123456789abcdef";
                    out += "\\u00";
                    out.push_back(hex[(c >> 4) & 0xf]);
                    out.push_back(hex[c & 0xf]);
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

namespace {

void write_value(std::string& out, const value& v, bool sort_keys) {
    if (v.is_null()) {
        out += "null";
    } else if (v.is_bool()) {
        out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
        format_number_into(v.as_number(), out);
    } else if (v.is_string()) {
        write_string_into(out, v.as_string());
    } else if (v.is_array()) {
        out.push_back('[');
        bool first = true;
        for (const value& element : v.as_array()) {
            if (!first) {
                out.push_back(',');
            }
            first = false;
            write_value(out, element, sort_keys);
        }
        out.push_back(']');
    } else {
        const object& o = v.as_object();
        std::vector<const object::member*> members;
        members.reserve(o.size());
        for (const object::member& m : o.members()) {
            members.push_back(&m);
        }
        if (sort_keys) {
            std::sort(members.begin(), members.end(),
                      [](const object::member* a, const object::member* b) {
                          return a->first < b->first;
                      });
        }
        out.push_back('{');
        bool first = true;
        for (const object::member* m : members) {
            if (!first) {
                out.push_back(',');
            }
            first = false;
            write_string_into(out, m->first);
            out.push_back(':');
            write_value(out, m->second, sort_keys);
        }
        out.push_back('}');
    }
}

}  // namespace

std::string dump(const value& v) {
    std::string out;
    write_value(out, v, /*sort_keys=*/false);
    return out;
}

std::string canonical(const value& v) {
    std::string out;
    write_value(out, v, /*sort_keys=*/true);
    return out;
}

}  // namespace silicon::serve::json
