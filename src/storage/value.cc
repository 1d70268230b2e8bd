#include "storage/value.h"

#include <cmath>
#include <functional>

#include "util/string_util.h"

namespace autoindex {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

ValueType Value::type() const {
  if (std::holds_alternative<std::monostate>(data_)) return ValueType::kNull;
  if (std::holds_alternative<int64_t>(data_)) return ValueType::kInt;
  if (std::holds_alternative<double>(data_)) return ValueType::kDouble;
  return ValueType::kString;
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(data_)) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  return std::get<double>(data_);
}

int Value::Compare(const Value& other) const {
  const bool a_null = is_null();
  const bool b_null = other.is_null();
  if (a_null && b_null) return 0;
  if (a_null) return -1;
  if (b_null) return 1;

  double a = 0.0;
  double b = 0.0;
  const bool a_num = AsNumber(&a);
  const bool b_num = other.AsNumber(&b);
  if (a_num && b_num) {
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (a_num != b_num) return a_num ? -1 : 1;  // numbers sort before strings
  const int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

size_t Value::ByteSize() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 8;
    case ValueType::kString:
      return AsString().size() + 4;  // length header
  }
  return 8;
}

namespace {

// Compare orders every pair of numbers as doubles, so a number hashes by
// its double value: a whole one inside int64 range like the int of that
// value (so `1 = 1.0` keys meet), anything else (fractions, ±inf, NaN,
// |d| >= 2^63) by std::hash<double>. The range check also keeps the cast
// defined.
size_t HashNumber(double d) {
  if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
    return std::hash<int64_t>()(static_cast<int64_t>(d));
  }
  return std::hash<double>()(d);
}

}  // namespace

size_t Value::HashOther() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b9;
    case ValueType::kInt:  // beyond ±2^53 (Hash takes the rest inline)
      return HashNumber(static_cast<double>(AsInt()));
    case ValueType::kDouble:
      return HashNumber(AsDouble());
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return StrFormat("%g", AsDouble());
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  if (type() == ValueType::kString) {
    std::string out = "'";
    for (char c : AsString()) {
      if (c == '\'') out += "''";
      else out.push_back(c);
    }
    out += "'";
    return out;
  }
  return ToString();
}

size_t HashRow(const Row& row) {
  size_t h = kHashRowSeed;
  for (const Value& v : row) h = HashCombine(h, v);
  return h;
}

int CompareRows(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

}  // namespace autoindex
