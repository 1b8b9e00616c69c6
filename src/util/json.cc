#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/strings.h"

namespace flexvis {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

void JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
}

void JsonValue::Set(std::string key, JsonValue value) {
  kind_ = Kind::kObject;
  object_[std::move(key)] = std::move(value);
}

const JsonValue& JsonValue::Get(std::string_view key) const {
  static const JsonValue kNull;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? kNull : it->second;
}

bool JsonValue::Has(std::string_view key) const {
  return object_.find(std::string(key)) != object_.end();
}

Result<int64_t> JsonValue::GetInt(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_number()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-numeric field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  return v.AsInt();
}

Result<double> JsonValue::GetDouble(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_number()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-numeric field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  return v.AsDouble();
}

Result<std::string> JsonValue::GetString(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_string()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-string field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  return v.AsString();
}

Result<bool> JsonValue::GetBool(std::string_view key) const {
  const JsonValue& v = Get(key);
  if (!v.is_bool()) {
    return InvalidArgumentError(StrFormat("JSON: missing or non-bool field '%.*s'",
                                          static_cast<int>(key.size()), key.data()));
  }
  return v.AsBool();
}

std::string JsonEscape(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ')
                                     : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ') : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      StrAppendInt(out, int_);
      break;
    case Kind::kDouble:
      if (std::isfinite(double_)) {
        // to_chars with a precision is specified as printf("%.17g").
        char text[32];
        char* end = std::to_chars(text, text + sizeof(text), double_,
                                  std::chars_format::general, 17).ptr;
        out->append(text, end);
      } else {
        *out += "null";  // JSON has no Inf/NaN
      }
      break;
    case Kind::kString:
      *out += JsonEscape(string_);
      break;
    case Kind::kArray: {
      *out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) *out += ',';
        *out += nl;
        *out += pad;
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        *out += nl;
        *out += close_pad;
      }
      *out += ']';
      break;
    }
    case Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) *out += ',';
        first = false;
        *out += nl;
        *out += pad;
        *out += JsonEscape(key);
        *out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        *out += nl;
        *out += close_pad;
      }
      *out += '}';
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

std::string JsonValue::Pretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.kind_ != b.kind_) {
    // Ints and doubles with the same value compare equal.
    if (a.is_number() && b.is_number()) return a.AsDouble() == b.AsDouble();
    return false;
  }
  switch (a.kind_) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.bool_ == b.bool_;
    case JsonValue::Kind::kInt: return a.int_ == b.int_;
    case JsonValue::Kind::kDouble: return a.double_ == b.double_;
    case JsonValue::Kind::kString: return a.string_ == b.string_;
    case JsonValue::Kind::kArray: return a.array_ == b.array_;
    case JsonValue::Kind::kObject: return a.object_ == b.object_;
  }
  return false;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    Result<JsonValue> value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError(StrFormat("JSON: trailing data at offset %zu", pos_));
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const char* what) const {
    return InvalidArgumentError(StrFormat("JSON: %s at offset %zu", what, pos_));
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse; the cap turns a hostile [[[...]]] into an
        // error instead of a stack overflow.
        if (depth_ == JsonValue::kMaxDepth) return Error("containers nested too deeply");
        ++depth_;
        Result<JsonValue> container = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return container;
      }
      case '"': {
        Result<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue::Str(*std::move(s));
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return JsonValue::Bool(true);
        }
        return Error("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return JsonValue::Bool(false);
        }
        return Error("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return JsonValue::Null();
        }
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return Error("expected object key");
      Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':'");
      Result<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      obj.Set(*std::move(key), *std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      Result<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      arr.Append(*std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Error("invalid \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("invalid escape");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '+'/'-' only valid after e/E, but sscanf below validates fully.
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      long long value = 0;
      int consumed = 0;
      if (std::sscanf(token.c_str(), "%lld%n", &value, &consumed) == 1 &&
          static_cast<size_t>(consumed) == token.size()) {
        return JsonValue::Int(value);
      }
    }
    double value = 0.0;
    int consumed = 0;
    if (std::sscanf(token.c_str(), "%lf%n", &value, &consumed) == 1 &&
        static_cast<size_t>(consumed) == token.size()) {
      return JsonValue::Double(value);
    }
    return Error("malformed number");
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonParser parser(text);
  return parser.Parse();
}

}  // namespace flexvis
