#include "serve/json.hpp"

#include <algorithm>
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

/// One slot of the number-text memo: a double's bits and its
/// std::to_chars text (len 0 = empty; texts longer than `text` are not
/// memoized).
struct number_slot {
    std::uint64_t bits;
    char text[23];
    unsigned char len;
};

constexpr int number_memo_bits = 10;

/// Per thread, so it needs no lock; zero-initialized, so every slot
/// starts empty.  32 KiB: a grid's keys repeat the same few dozen
/// parameter values lane after lane.
thread_local number_slot number_memo[std::size_t{1} << number_memo_bits];

std::uint64_t bits_of(double d) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

}  // namespace

std::size_t number_memo_slot(double d) noexcept {
    return static_cast<std::size_t>((bits_of(d) * 0x9E3779B97F4A7C15ull) >>
                                    (64 - number_memo_bits));
}

void format_number_into(double d, std::string& out) {
    if (!std::isfinite(d)) {
        out += "null";
        return;
    }
    // The memo maps a double's exact bits to the text to_chars wrote for
    // them, so a hit appends the same bytes without formatting again.
    const std::uint64_t bits = bits_of(d);
    number_slot& slot = number_memo[number_memo_slot(d)];
    if (slot.len != 0 && slot.bits == bits) {
        out.append(slot.text, slot.len);
        return;
    }
    char buffer[32];
    const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, d);
    (void)ec;  // 32 bytes always suffice for shortest round-trip doubles
    const auto len = static_cast<std::size_t>(ptr - buffer);
    if (len <= sizeof slot.text) {
        slot.bits = bits;
        std::memcpy(slot.text, buffer, len);
        slot.len = static_cast<unsigned char>(len);
    }
    out.append(buffer, len);
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

void canonical_into(const value& v, std::string& out) {
    write_value(out, v, /*sort_keys=*/true);
}

}  // namespace silicon::serve::json
