#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace cake {
namespace json {
namespace {

/// The RFC 8259 single-character escapes and what each one decodes to.
constexpr std::string_view kEscapes = "\"\\/bfnrt";
constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";

/// Recursive descent over one document. `depth` counts the containers
/// that enclose the value being parsed.
struct Parser {
    std::string_view text;
    Error* error = nullptr;
    std::size_t pos = 0;

    bool fail(const char* code, const char* reason)
    {
        if (error != nullptr) *error = {code, pos, reason};
        return false;
    }

    /// Skip whitespace; true when nothing follows it.
    bool at_end()
    {
        pos = std::min(text.size(), text.find_first_not_of(" \t\n\r", pos));
        return pos == text.size();
    }

    bool consume(char c)
    {
        if (at_end() || text[pos] != c) return false;
        ++pos;
        return true;
    }

    bool value(Value& out, int depth)
    {
        if (at_end()) return fail("JSON_SYNTAX", "unexpected end of input");
        const char c = text[pos];
        if (c == '{' || c == '[') {
            if (depth >= kMaxDepth) return fail("JSON_DEPTH", "too deep");
            ++pos;
            return c == '{' ? object(out, depth + 1) : array(out, depth + 1);
        }
        if (c == '"') {
            out.type = Value::Type::kString;
            return string(out.string);
        }
        for (const std::string_view word : {"true", "false", "null"}) {
            if (text.substr(pos, word.size()) != word) continue;
            pos += word.size();
            out.type = word == "null" ? Value::Type::kNull : Value::Type::kBool;
            out.boolean = word == "true";
            return true;
        }
        return number(out);
    }

    bool object(Value& out, int depth)
    {
        out.type = Value::Type::kObject;
        if (consume('}')) return true;
        do {
            std::string key;
            if (!string(key)) return false;
            if (!consume(':')) return fail("JSON_SYNTAX", "expected ':'");
            Value member;
            if (!value(member, depth)) return false;
            out.object.emplace_back(std::move(key), std::move(member));
        } while (consume(','));
        return consume('}') || fail("JSON_SYNTAX", "expected ',' or '}'");
    }

    bool array(Value& out, int depth)
    {
        out.type = Value::Type::kArray;
        if (consume(']')) return true;
        do {
            out.array.emplace_back();
            if (!value(out.array.back(), depth)) return false;
        } while (consume(','));
        return consume(']') || fail("JSON_SYNTAX", "expected ',' or ']'");
    }

    bool string(std::string& out)
    {
        if (!consume('"')) return fail("JSON_SYNTAX", "expected a string");
        while (pos < text.size()) {
            const char c = text[pos];
            if (static_cast<unsigned char>(c) < 0x20) {
                return fail("JSON_SYNTAX", "raw control character in string");
            }
            ++pos;
            if (c == '"') return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            const char e = pos < text.size() ? text[pos++] : '\0';
            if (e == 'u') {
                if (!unicode(out)) return false;
            } else if (const auto i = kEscapes.find(e); i != kEscapes.npos) {
                out += kDecoded[i];
            } else {
                return fail("JSON_ESCAPE", "unknown escape");
            }
        }
        return fail("JSON_SYNTAX", "unterminated string");
    }

    /// The four hex digits after "\u", appended as UTF-8. Surrogates are
    /// rejected: no writer emits them, and a lone one is not a character.
    bool unicode(std::string& out)
    {
        unsigned cp = 0;
        const char* hex = text.data() + pos;
        if (text.size() - pos < 4 ||
            std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4 ||
            (cp >= 0xD800 && cp <= 0xDFFF)) {
            return fail("JSON_ESCAPE", "bad or surrogate \\u escape");
        }
        pos += 4;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return true;
    }

    /// The longest run of number characters, which strtod must consume
    /// whole into a finite double.
    bool number(Value& out)
    {
        const std::size_t start = pos;
        pos = std::min(text.size(),
                       text.find_first_not_of("+-.0123456789eE", pos));
        if (pos == start) return fail("JSON_SYNTAX", "expected a value");
        const std::string token(text.substr(start, pos - start));
        char* end = nullptr;
        out.type = Value::Type::kNumber;
        out.number = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() ||
            !std::isfinite(out.number)) {
            pos = start;
            return fail("JSON_NUMBER", "malformed or non-finite number");
        }
        return true;
    }
};

}  // namespace

const Value* Value::find(std::string_view key) const
{
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
        if (k == key) return &v;
    }
    return nullptr;
}

bool parse(std::string_view text, Value& out, Error* error)
{
    Parser parser{text, error};
    return parser.value(out, 0) &&
           (parser.at_end() || parser.fail("JSON_SYNTAX", "trailing bytes"));
}

std::string escape(std::string_view s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += c < 0x10 ? "\\u000" : "\\u001";
            out += "0123456789abcdef"[c & 0xF];
        } else {
            out += c;
        }
    }
    return out;
}

std::string number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void write(const Value& v, std::ostream& os)
{
    switch (v.type) {
        case Value::Type::kNull: os << "null"; break;
        case Value::Type::kBool: os << (v.boolean ? "true" : "false"); break;
        case Value::Type::kNumber: os << number(v.number); break;
        case Value::Type::kString: os << '"' << escape(v.string) << '"'; break;
        case Value::Type::kArray:
            os << '[';
            for (std::size_t i = 0; i < v.array.size(); ++i) {
                write(v.array[i], os << (i != 0 ? ", " : ""));
            }
            os << ']';
            break;
        case Value::Type::kObject:
            os << '{';
            for (std::size_t i = 0; i < v.object.size(); ++i) {
                os << (i != 0 ? ", \"" : "\"") << escape(v.object[i].first)
                   << "\": ";
                write(v.object[i].second, os);
            }
            os << '}';
            break;
    }
}

}  // namespace json
}  // namespace cake
