#ifndef FLEXVIS_UTIL_JSON_H_
#define FLEXVIS_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace flexvis {

/// A minimal JSON document model (RFC 8259 subset: no surrogate-pair \u
/// escapes beyond the BMP, numbers parsed as double or int64). Used for the
/// flex-offer message format the MIRABEL ICT infrastructure exchanges
/// between prosumers and the enterprise.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  /// Null by default.
  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Int(int64_t i);
  static JsonValue Double(double d);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; preconditions per the is_* predicates.
  bool AsBool() const { return bool_; }
  int64_t AsInt() const { return is_double() ? static_cast<int64_t>(double_) : int_; }
  double AsDouble() const { return is_int() ? static_cast<double>(int_) : double_; }
  const std::string& AsString() const { return string_; }

  /// Array access.
  size_t size() const { return array_.size(); }
  const JsonValue& operator[](size_t index) const { return array_[index]; }
  void Append(JsonValue value);

  /// Object access. Get returns null for absent keys; Find reports absence.
  void Set(std::string key, JsonValue value);
  const JsonValue& Get(std::string_view key) const;
  bool Has(std::string_view key) const;
  const std::map<std::string, JsonValue>& items() const { return object_; }

  /// Checked object field readers used by message decoding: error on a
  /// missing key or a kind mismatch.
  Result<int64_t> GetInt(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;
  Result<bool> GetBool(std::string_view key) const;

  /// Compact serialization (no whitespace). `Pretty` indents with 2 spaces.
  std::string Dump() const;
  std::string Pretty() const;

  /// Deepest container nesting Parse accepts. Every document the system
  /// writes nests a handful of levels; deeper input is rejected rather than
  /// recursed into.
  static constexpr int kMaxDepth = 256;

  /// Parses a JSON document. The whole input must be consumed (trailing
  /// non-whitespace is an error); nesting deeper than kMaxDepth is
  /// InvalidArgument.
  static Result<JsonValue> Parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Escapes a string for embedding in JSON (quotes included in the output).
std::string JsonEscape(std::string_view text);

}  // namespace flexvis

#endif  // FLEXVIS_UTIL_JSON_H_
