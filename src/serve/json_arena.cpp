#include "serve/json_arena.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace silicon::serve::json {

const aview* aview::find(std::string_view key) const noexcept {
    if (kind != kind_t::object) {
        return nullptr;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
        if (members[i].key == key) {
            return &members[i].val;
        }
    }
    return nullptr;
}

namespace {

constexpr int max_depth = 128;  // must match json.cpp's parser guard

}  // namespace

// Mirrors the recursive-descent parser in json.cpp step for step: same
// grammar, same duplicate-key and depth rules, same number conversion
// (from_chars with the strtod out-of-range fallback), so both parsers
// accept the same inputs and produce bit-identical doubles and identical
// decoded strings.  Divergence here would make the engine serve a line
// `json::parse` rejects (or reject one it accepts); the equivalence test
// forbids it.
class arena_parser_impl {
  public:
    arena_parser_impl(arena_parser& parser, std::string_view text,
                      exec::arena& a)
        : p_{parser}, text_{text}, arena_{a} {}

    const aview& run() {
        p_.value_stack_.clear();
        p_.member_stack_.clear();
        skip_ws();
        aview v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return *arena_.make<aview>(v);
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

    aview parse_value(int depth) {
        if (depth > max_depth) {
            fail("nesting too deep");
        }
        aview v;
        switch (peek()) {
            case '{':
                return parse_object(depth);
            case '[':
                return parse_array(depth);
            case '"':
                v.kind = aview::kind_t::string;
                v.string = parse_string();
                return v;
            case 't':
                expect_literal("true");
                v.kind = aview::kind_t::boolean;
                v.boolean = true;
                return v;
            case 'f':
                expect_literal("false");
                v.kind = aview::kind_t::boolean;
                v.boolean = false;
                return v;
            case 'n':
                expect_literal("null");
                return v;
            default:
                v.kind = aview::kind_t::number;
                v.number = parse_number();
                return v;
        }
    }

    aview parse_object(int depth) {
        expect('{', "'{'");
        const std::size_t mark = p_.member_stack_.size();
        skip_ws();
        if (!at_end() && peek() == '}') {
            ++pos_;
            return commit_object(mark);
        }
        for (;;) {
            skip_ws();
            if (peek() != '"') {
                fail("expected object key string");
            }
            std::string_view key = parse_string();
            for (std::size_t i = mark; i < p_.member_stack_.size(); ++i) {
                if (p_.member_stack_[i].key == key) {
                    fail("duplicate object key '" + std::string{key} + "'");
                }
            }
            skip_ws();
            expect(':', "':'");
            skip_ws();
            // The member value may itself push onto the stack; append the
            // finished pair only after it fully parses.
            aview member_value = parse_value(depth + 1);
            p_.member_stack_.push_back(amember{key, member_value});
            skip_ws();
            const char c = take();
            if (c == '}') {
                return commit_object(mark);
            }
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
    }

    aview commit_object(std::size_t mark) {
        const std::size_t n = p_.member_stack_.size() - mark;
        aview v;
        v.kind = aview::kind_t::object;
        v.count = static_cast<std::uint32_t>(n);
        if (n != 0) {
            amember* dst = arena_.make_array<amember>(n);
            std::memcpy(dst, p_.member_stack_.data() + mark,
                        n * sizeof(amember));
            v.members = dst;
            p_.member_stack_.resize(mark);
        }
        return v;
    }

    aview parse_array(int depth) {
        expect('[', "'['");
        const std::size_t mark = p_.value_stack_.size();
        skip_ws();
        if (!at_end() && peek() == ']') {
            ++pos_;
            return commit_array(mark);
        }
        for (;;) {
            skip_ws();
            aview element = parse_value(depth + 1);
            p_.value_stack_.push_back(element);
            skip_ws();
            const char c = take();
            if (c == ']') {
                return commit_array(mark);
            }
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
    }

    aview commit_array(std::size_t mark) {
        const std::size_t n = p_.value_stack_.size() - mark;
        aview v;
        v.kind = aview::kind_t::array;
        v.count = static_cast<std::uint32_t>(n);
        if (n != 0) {
            aview* dst = arena_.make_array<aview>(n);
            std::memcpy(dst, p_.value_stack_.data() + mark, n * sizeof(aview));
            v.elems = dst;
            p_.value_stack_.resize(mark);
        }
        return v;
    }

    static void append_utf8(char*& out, std::uint32_t cp) noexcept {
        if (cp < 0x80) {
            *out++ = static_cast<char>(cp);
        } else if (cp < 0x800) {
            *out++ = static_cast<char>(0xc0 | (cp >> 6));
            *out++ = static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            *out++ = static_cast<char>(0xe0 | (cp >> 12));
            *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            *out++ = static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            *out++ = static_cast<char>(0xf0 | (cp >> 18));
            *out++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            *out++ = static_cast<char>(0x80 | (cp & 0x3f));
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

    std::string_view parse_string() {
        expect('"', "'\"'");
        // Fast scan: most strings carry no escapes and can be viewed
        // directly into the input without copying.
        const std::size_t start = pos_;
        bool escaped = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                break;
            }
            if (c == '\\') {
                escaped = true;
                break;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            }
            ++pos_;
        }
        if (at_end()) {
            fail("unexpected end of input");
        }
        if (!escaped) {
            const std::string_view out = text_.substr(start, pos_ - start);
            ++pos_;  // closing quote
            return out;
        }
        // Slow path: decode into the arena.  The decoded form is never
        // longer than the escaped span (\uXXXX is 6 chars for at most 4
        // UTF-8 bytes), so the remaining input length bounds the buffer.
        char* buf = static_cast<char*>(arena_.allocate(text_.size() - start, 1));
        std::memcpy(buf, text_.data() + start, pos_ - start);
        char* out = buf + (pos_ - start);
        for (;;) {
            const char c = take();
            if (c == '"') {
                return std::string_view{buf,
                                        static_cast<std::size_t>(out - buf)};
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("unescaped control character in string");
            }
            if (c != '\\') {
                *out++ = c;
                continue;
            }
            const char esc = take();
            switch (esc) {
                case '"': *out++ = '"'; break;
                case '\\': *out++ = '\\'; break;
                case '/': *out++ = '/'; break;
                case 'b': *out++ = '\b'; break;
                case 'f': *out++ = '\f'; break;
                case 'n': *out++ = '\n'; break;
                case 'r': *out++ = '\r'; break;
                case 't': *out++ = '\t'; break;
                case 'u': {
                    std::uint32_t cp = parse_hex4();
                    if (cp >= 0xd800 && cp <= 0xdbff) {
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
            // Same IEEE semantics as json::parse (huge -> +-inf,
            // tiny -> +-0); a stack buffer keeps the common case of this
            // rare path allocation-free.
            const std::size_t n = pos_ - start;
            char stack_buf[256];
            if (n < sizeof stack_buf) {
                std::memcpy(stack_buf, text_.data() + start, n);
                stack_buf[n] = '\0';
                result = std::strtod(stack_buf, nullptr);
            } else {
                result = std::strtod(
                    std::string{text_.substr(start, n)}.c_str(), nullptr);
            }
        } else if (ec != std::errc{}) {
            pos_ = start;
            fail("invalid number");
        }
        return result;
    }

    arena_parser& p_;
    std::string_view text_;
    exec::arena& arena_;
    std::size_t pos_ = 0;
};

const aview& arena_parser::parse(std::string_view text, exec::arena& a) {
    return arena_parser_impl{*this, text, a}.run();
}

namespace {

void dump_view(const aview& v, std::string& out) {
    switch (v.kind) {
        case aview::kind_t::null:
            out += "null";
            break;
        case aview::kind_t::boolean:
            out += v.boolean ? "true" : "false";
            break;
        case aview::kind_t::number:
            format_number_into(v.number, out);
            break;
        case aview::kind_t::string:
            write_string_into(out, v.string);
            break;
        case aview::kind_t::array:
            out.push_back('[');
            for (std::uint32_t i = 0; i < v.count; ++i) {
                if (i != 0) {
                    out.push_back(',');
                }
                dump_view(v.elems[i], out);
            }
            out.push_back(']');
            break;
        case aview::kind_t::object:
            out.push_back('{');
            for (std::uint32_t i = 0; i < v.count; ++i) {
                if (i != 0) {
                    out.push_back(',');
                }
                write_string_into(out, v.members[i].key);
                out.push_back(':');
                dump_view(v.members[i].val, out);
            }
            out.push_back('}');
            break;
    }
}

}  // namespace

void dump_into(const aview& v, std::string& out) { dump_view(v, out); }

}  // namespace silicon::serve::json
