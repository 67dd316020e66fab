// The one JSON module for every file the repo writes and reads back: bench
// records, tune caches, Chrome traces and the machine fingerprint. Each
// writer keeps its own layout and number format and shares the escaper,
// the parser and the re-serialiser here.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cake {
namespace json {

/// Deepest container nesting parse() accepts (JSON_DEPTH beyond it).
inline constexpr int kMaxDepth = 32;

/// One parsed value; object members keep document order.
struct Value {
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    /// First member named `key`; nullptr when absent or not an object.
    [[nodiscard]] const Value* find(std::string_view key) const;
};

/// Why parse() failed: code JSON_SYNTAX, JSON_DEPTH, JSON_NUMBER or
/// JSON_ESCAPE, the byte offset, and a one-line reason.
struct Error {
    const char* code = "";
    std::size_t offset = 0;
    std::string reason;
    [[nodiscard]] std::string message() const
    {
        return std::string(code) + ": " + reason + " at byte " +
               std::to_string(offset);
    }
};

/// Parse one whole RFC 8259 document into `out` without throwing. Numbers
/// must be finite and consumed whole by strtod; \uXXXX decodes to UTF-8.
/// Raw control characters in strings, surrogate escapes, trailing bytes
/// and nesting past kMaxDepth fail (filling *error when non-null).
bool parse(std::string_view text, Value& out, Error* error = nullptr);

/// String body without quotes: `"`, `\`, newline and tab by name, other
/// bytes below 0x20 as \u00XX, the rest verbatim.
std::string escape(std::string_view s);

/// %.17g: enough digits that parse() returns the identical double.
std::string number(double v);

/// Re-serialise `v` on one line, numbers through number().
void write(const Value& v, std::ostream& os);

}  // namespace json
}  // namespace cake
