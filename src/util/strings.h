#ifndef FLEXVIS_UTIL_STRINGS_H_
#define FLEXVIS_UTIL_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flexvis {

/// printf-style formatting into a std::string. The format string is checked
/// by the compiler where supported.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string StrFormat(const char* format, ...);

/// Joins `parts` with `separator` ("a", "b" -> "a,b").
std::string StrJoin(const std::vector<std::string>& parts, std::string_view separator);

/// Splits `text` on `delimiter`, keeping empty fields ("a,,b" -> {a,"",b}).
std::vector<std::string> StrSplit(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// ASCII lower-casing (locale independent).
std::string AsciiToLower(std::string_view text);

/// True if `text` starts with / ends with the given affix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Formats a double with `digits` fractional digits, trimming trailing zeros
/// ("12.50" -> "12.5", "3.00" -> "3").
std::string FormatDouble(double value, int digits);

/// Appends FormatDouble(value, digits) to `out` without a temporary string.
void StrAppendDouble(std::string* out, double value, int digits);

/// Appends `value` in decimal, zero-padded to at least `width` characters
/// with the sign counted in the width: byte-identical to printf's "%0*lld".
void StrAppendInt(std::string* out, int64_t value, int width = 0);

/// Escapes &, <, >, " and ' for embedding in XML/SVG attribute or text
/// content.
std::string XmlEscape(std::string_view text);

}  // namespace flexvis

#endif  // FLEXVIS_UTIL_STRINGS_H_
