#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace flexvis {

std::string StrFormat(const char* format, ...) {
  // One vsnprintf into a stack buffer covers nearly every caller; only longer
  // outputs pay for the second pass into a heap buffer of the exact size.
  char stack[256];
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(stack, sizeof(stack), format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  if (static_cast<size_t>(needed) < sizeof(stack)) {
    va_end(args_copy);
    return std::string(stack, static_cast<size_t>(needed));
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> StrSplit(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void StrAppendInt(std::string* out, int64_t value, int width) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  const int length = static_cast<int>(end - digits);
  const bool negative = value < 0;
  // printf's zero padding goes between the sign and the digits.
  if (negative) out->push_back('-');
  if (width > length) out->append(static_cast<size_t>(width - length), '0');
  out->append(digits + (negative ? 1 : 0), end);
}

void StrAppendDouble(std::string* out, double value, int digits) {
  // to_chars with a precision is specified as printf("%.*f"); 1e308 with a
  // few dozen digits still fits. Other requests take the printf path itself.
  char text[384];
  std::to_chars_result r{text, std::errc::value_too_large};
  if (digits >= 0) {
    r = std::to_chars(text, text + sizeof(text), value, std::chars_format::fixed, digits);
  }
  std::string wide;
  std::string_view fixed(text, static_cast<size_t>(r.ptr - text));
  if (r.ec != std::errc()) {
    wide = StrFormat("%.*f", digits, value);
    fixed = wide;
  }
  if (fixed.find('.') != std::string_view::npos) {
    size_t last = fixed.find_last_not_of('0');
    if (fixed[last] == '.') --last;
    fixed = fixed.substr(0, last + 1);
  }
  out->append(fixed);
}

std::string FormatDouble(double value, int digits) {
  std::string out;
  StrAppendDouble(&out, value, digits);
  return out;
}

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace flexvis
