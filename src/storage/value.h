#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
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
//
// Cell layout (16 bytes; DESIGN.md §5): bytes 0..14 are the payload and
// byte 15 is the tag. An int or double is the first 8 bytes. A string of
// up to kInlineMax bytes is stored in place, its length in the tag; a
// longer one is an owned heap buffer, its pointer in bytes 0..7 and its
// u32 length in bytes 8..11. A moved-from Value is NULL.
class Value {
 public:
  Value() : cell_{} {}
  explicit Value(int64_t v) : cell_{} {
    Store(v);
    set_tag(kIntTag);
  }
  explicit Value(double v) : cell_{} {
    Store(v);
    set_tag(kDoubleTag);
  }
  explicit Value(std::string_view v);

  Value(const Value& other) {
    if (other.tag() == kHeapTag) {
      SetLongString(other.AsString());
    } else {
      std::memcpy(cell_, other.cell_, sizeof(cell_));
    }
  }
  Value(Value&& other) noexcept {
    std::memcpy(cell_, other.cell_, sizeof(cell_));
    other.set_tag(kNullTag);
  }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (tag() == kHeapTag) ReleaseBuffer();
      std::memcpy(cell_, other.cell_, sizeof(cell_));
      other.set_tag(kNullTag);
    }
    return *this;
  }
  ~Value() {
    if (tag() == kHeapTag) ReleaseBuffer();
  }

  static Value Null() { return Value(); }

  ValueType type() const {
    const uint8_t t = tag();
    return t >= kHeapTag ? ValueType::kString : static_cast<ValueType>(t);
  }
  bool is_null() const { return tag() == kNullTag; }

  // Accessors; behavior is undefined if the type does not match (the engine
  // always checks type() first or relies on schema typing).
  int64_t AsInt() const { return Load<int64_t>(); }
  double AsDouble() const {
    return tag() == kIntTag ? static_cast<double>(Load<int64_t>())
                            : Load<double>();
  }
  // Valid while this Value is alive and unchanged.
  std::string_view AsString() const {
    const uint8_t t = tag();
    if (t == kHeapTag) return {Load<const char*>(), Load<uint32_t>(8)};
    return {cell_, static_cast<size_t>(t - kInlineTag)};
  }

  // In-place views for per-tuple kernels. AsNumber sets *out to an int's
  // or a double's value as a double (what Compare compares) and returns
  // false for NULL and strings; IfString sets *out to the string and
  // returns false for anything else.
  bool AsNumber(double* out) const {
    const uint8_t t = tag();
    if (t == kIntTag) {
      *out = static_cast<double>(Load<int64_t>());
      return true;
    }
    if (t == kDoubleTag) {
      *out = Load<double>();
      return true;
    }
    return false;
  }
  bool IfString(std::string_view* out) const {
    if (tag() < kHeapTag) return false;
    *out = AsString();
    return true;
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
    if (tag() == kIntTag) {
      const int64_t i = Load<int64_t>();
      if (i >= -kExact && i <= kExact) return std::hash<int64_t>()(i);
    }
    return HashOther();
  }

  std::string ToString() const;

  // Renders as a SQL literal (strings quoted, NULL spelled out).
  std::string ToSqlLiteral() const;

 private:
  // Tags 0..2 are ValueType's NULL, INT and DOUBLE; kHeapTag is a long
  // string; kInlineTag + n is an inline string of n bytes.
  static constexpr uint8_t kNullTag = 0;
  static constexpr uint8_t kIntTag = 1;
  static constexpr uint8_t kDoubleTag = 2;
  static constexpr uint8_t kHeapTag = 3;
  static constexpr uint8_t kInlineTag = 4;
  static constexpr size_t kTagByte = 15;
  static constexpr size_t kInlineMax = kTagByte;

  uint8_t tag() const { return static_cast<uint8_t>(cell_[kTagByte]); }
  void set_tag(uint8_t t) { cell_[kTagByte] = static_cast<char>(t); }

  template <typename T>
  T Load(size_t offset = 0) const {
    T v{};
    std::memcpy(&v, cell_ + offset, sizeof(T));
    return v;
  }
  template <typename T>
  void Store(T v, size_t offset = 0) {
    std::memcpy(cell_ + offset, &v, sizeof(T));
  }

  // The two hand-overs of a long string's buffer: AdoptBuffer takes
  // ownership out of `buf` into the cell; ReleaseBuffer hands it back to
  // a unique_ptr, which frees it unless the caller keeps it, and leaves
  // the cell NULL.
  void AdoptBuffer(std::unique_ptr<char[]> buf, uint32_t size);
  std::unique_ptr<char[]> ReleaseBuffer();
  // Copies `s` (longer than kInlineMax) into a new buffer the cell owns.
  void SetLongString(std::string_view s);

  size_t HashOther() const;

  alignas(8) char cell_[16];
};

static_assert(sizeof(Value) == 16, "a cell is 16 bytes");

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
