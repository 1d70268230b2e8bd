#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace autoindex {

// Column/value types supported by the engine. kNull is the type of the SQL
// NULL literal; typed columns may still hold null cells.
enum class ValueType {
  kNull = 0,
  kInt,     // 64-bit signed integer
  kDouble,  // IEEE double
  kString,  // variable-length UTF-8/ASCII string
};

const char* ValueTypeName(ValueType type);

// A single typed cell. Values order NULL first, then by numeric/lexical
// value; ints and doubles compare numerically against each other so that a
// predicate `x > 3` works on a double column.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const;
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }

  // Accessors; behavior is undefined if the type does not match (the engine
  // always checks type() first or relies on schema typing).
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const;
  const std::string& AsString() const { return std::get<std::string>(data_); }

  // In-place views for per-tuple kernels. AsNumber sets *out to an int's
  // or a double's value as a double (what Compare compares) and returns
  // false for NULL and strings; IfString is the string, or null.
  bool AsNumber(double* out) const {
    if (const int64_t* i = std::get_if<int64_t>(&data_)) {
      *out = static_cast<double>(*i);
      return true;
    }
    if (const double* d = std::get_if<double>(&data_)) {
      *out = *d;
      return true;
    }
    return false;
  }
  const std::string* IfString() const {
    return std::get_if<std::string>(&data_);
  }

  // Total ordering: NULL < ints/doubles (numeric) < strings (lexical).
  // Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  // Approximate in-memory footprint used for page accounting.
  size_t ByteSize() const;

  // Agrees with Compare: values that compare equal hash equal, including
  // an int and a double of the same numeric value. Ints a double holds
  // exactly hash by identity, inline; beyond ±2^53 several ints compare
  // equal as doubles, so they hash as doubles, out of line with the rest.
  size_t Hash() const {
    constexpr int64_t kExact = int64_t{1} << 53;
    const int64_t* i = std::get_if<int64_t>(&data_);
    if (i != nullptr && *i >= -kExact && *i <= kExact) {
      return std::hash<int64_t>()(*i);
    }
    return HashOther();
  }

  std::string ToString() const;

  // Renders as a SQL literal (strings quoted, NULL spelled out).
  std::string ToSqlLiteral() const;

 private:
  size_t HashOther() const;

  std::variant<std::monostate, int64_t, double, std::string> data_;
};

using Row = std::vector<Value>;

// Hash of a composite key; order-sensitive. Callers that hash a key
// without building a Row fold HashCombine over kHashRowSeed themselves.
constexpr size_t kHashRowSeed = 0x345678;
inline size_t HashCombine(size_t h, const Value& v) {
  return h * 1000003 ^ v.Hash();
}
size_t HashRow(const Row& row);

// Lexicographic comparison of two rows (shorter row is a prefix-smaller).
int CompareRows(const Row& a, const Row& b);

}  // namespace autoindex
