// Differential property test for Value's 16-byte cell (label: property).
// The oracle is the std::variant implementation the cell replaced, kept
// here verbatim in behavior: over random and boundary ints, doubles and
// strings, every observable — type, Compare, Hash, AsNumber, ToString,
// ToSqlLiteral, ByteSize — must agree, and copies, moves and
// self-assignment must keep them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "storage/value.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// The previous Value: a std::variant cell with the same public meaning.
class OracleValue {
 public:
  OracleValue() : data_(std::monostate{}) {}
  explicit OracleValue(int64_t v) : data_(v) {}
  explicit OracleValue(double v) : data_(v) {}
  explicit OracleValue(std::string v) : data_(std::move(v)) {}

  ValueType type() const {
    if (std::holds_alternative<std::monostate>(data_)) return ValueType::kNull;
    if (std::holds_alternative<int64_t>(data_)) return ValueType::kInt;
    if (std::holds_alternative<double>(data_)) return ValueType::kDouble;
    return ValueType::kString;
  }
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    if (std::holds_alternative<int64_t>(data_)) {
      return static_cast<double>(std::get<int64_t>(data_));
    }
    return std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }

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

  int Compare(const OracleValue& other) const {
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
    if (a_num != b_num) return a_num ? -1 : 1;
    const int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }

  size_t ByteSize() const {
    switch (type()) {
      case ValueType::kNull:
        return 1;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 8;
      case ValueType::kString:
        return AsString().size() + 4;
    }
    return 8;
  }

  size_t Hash() const {
    constexpr int64_t kExact = int64_t{1} << 53;
    const int64_t* i = std::get_if<int64_t>(&data_);
    if (i != nullptr && *i >= -kExact && *i <= kExact) {
      return std::hash<int64_t>()(*i);
    }
    switch (type()) {
      case ValueType::kNull:
        return 0x9e3779b9;
      case ValueType::kInt:
        return HashNumber(static_cast<double>(AsInt()));
      case ValueType::kDouble:
        return HashNumber(AsDouble());
      case ValueType::kString:
        return std::hash<std::string>()(AsString());
    }
    return 0;
  }

  std::string ToString() const {
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

  std::string ToSqlLiteral() const {
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

 private:
  static size_t HashNumber(double d) {
    if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
      return std::hash<int64_t>()(static_cast<int64_t>(d));
    }
    return std::hash<double>()(d);
  }

  std::variant<std::monostate, int64_t, double, std::string> data_;
};

struct Case {
  Value value;
  OracleValue oracle;
};

// Bitwise for numbers, so NaN and -0.0 are told apart.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Every single-value observable of `v` against the oracle's.
void ExpectSameObservables(const Value& v, const OracleValue& o,
                           const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(v.type(), o.type());
  EXPECT_EQ(v.is_null(), o.is_null());
  EXPECT_EQ(v.Hash(), o.Hash());
  EXPECT_EQ(v.ToString(), o.ToString());
  EXPECT_EQ(v.ToSqlLiteral(), o.ToSqlLiteral());
  EXPECT_EQ(v.ByteSize(), o.ByteSize());
  double vn = 1.5;
  double on = 1.5;
  EXPECT_EQ(v.AsNumber(&vn), o.AsNumber(&on));
  EXPECT_TRUE(SameBits(vn, on)) << vn << " vs " << on;
  std::string_view s;
  EXPECT_EQ(v.IfString(&s), o.type() == ValueType::kString);
  switch (o.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      EXPECT_EQ(v.AsInt(), o.AsInt());
      EXPECT_TRUE(SameBits(v.AsDouble(), o.AsDouble()));
      break;
    case ValueType::kDouble:
      EXPECT_TRUE(SameBits(v.AsDouble(), o.AsDouble()));
      break;
    case ValueType::kString:
      EXPECT_EQ(v.AsString(), o.AsString());
      EXPECT_EQ(s, o.AsString());
      break;
  }
}

bool IsNaN(const OracleValue& o) {
  double d;
  return o.AsNumber(&d) && std::isnan(d);
}

Case MakeInt(int64_t i) { return {Value(i), OracleValue(i)}; }
Case MakeDouble(double d) { return {Value(d), OracleValue(d)}; }
Case MakeString(const std::string& s) { return {Value(s), OracleValue(s)}; }

// Strings over an alphabet with NUL, a quote, a space and bytes >= 0x80
// (so Compare's unsigned byte order shows), plus plain letters.
std::string RandomString(std::mt19937_64* rng, size_t len) {
  static const char kAlphabet[] = {'\0', '\'', ' ', 'a', 'b', 'z',
                                   'A',  '0',  '\x7f', '\x80', '\xff'};
  std::string s(len, ' ');
  for (char& c : s) c = kAlphabet[(*rng)() % sizeof(kAlphabet)];
  return s;
}

std::vector<Case> BuildCorpus(uint64_t seed) {
  std::mt19937_64 rng(seed);
  constexpr int64_t k53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Case> cases;
  cases.push_back({Value(), OracleValue()});
  for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{7}, k53 - 1,
                    k53, k53 + 1, -k53 - 1, -k53, -k53 + 1, kMax, kMax - 1,
                    kMin, kMin + 1}) {
    cases.push_back(MakeInt(i));
  }
  for (double d : {0.0, -0.0, 1.0, 7.0, -1.5, 0.1, kInf, -kInf,
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN(), 0x1p53,
                   0x1p53 + 2, -0x1p53, 0x1p63, -0x1p63,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()}) {
    cases.push_back(MakeDouble(d));
  }
  for (size_t len : {0, 1, 14, 15, 16, 17, 40}) {
    cases.push_back(MakeString(RandomString(&rng, len)));
  }
  cases.push_back(MakeString(std::string(15, 'x')));
  cases.push_back(MakeString(std::string(16, 'x')));
  cases.push_back(MakeString(std::string(15, '\0')));
  cases.push_back(MakeString(std::string(16, '\0')));
  cases.push_back(MakeString("o'brien"));
  for (int i = 0; i < 120; ++i) {
    switch (rng() % 6) {
      case 0:
        cases.push_back(MakeInt(static_cast<int64_t>(rng())));
        break;
      case 1:
        cases.push_back(MakeInt(static_cast<int64_t>(rng() % 2001) - 1000));
        break;
      case 2: {
        const uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        cases.push_back(MakeDouble(d));
        break;
      }
      case 3:  // whole doubles meet ints of the same value
        cases.push_back(
            MakeDouble(static_cast<double>(static_cast<int64_t>(rng() % 2001) -
                                           1000)));
        break;
      default:
        cases.push_back(MakeString(RandomString(&rng, rng() % 41)));
        break;
    }
  }
  return cases;
}

class ValueDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueDifferential, ObservablesMatchTheVariantCell) {
  const std::vector<Case> cases = BuildCorpus(GetParam());
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectSameObservables(cases[i].value, cases[i].oracle,
                          "case " + std::to_string(i));
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    for (size_t j = 0; j < cases.size(); ++j) {
      const int c = cases[i].value.Compare(cases[j].value);
      ASSERT_EQ(c, cases[i].oracle.Compare(cases[j].oracle))
          << "cases " << i << ", " << j << ": "
          << cases[i].oracle.ToSqlLiteral() << " vs "
          << cases[j].oracle.ToSqlLiteral();
      // Compare finds NaN equal to every number, so NaN is left out of
      // hash agreement (as it always was).
      if (c == 0 && !IsNaN(cases[i].oracle) && !IsNaN(cases[j].oracle)) {
        EXPECT_EQ(cases[i].value.Hash(), cases[j].value.Hash())
            << cases[i].oracle.ToSqlLiteral() << " = "
            << cases[j].oracle.ToSqlLiteral();
      }
    }
  }
}

TEST_P(ValueDifferential, CopiesAndMovesKeepTheValue) {
  const std::vector<Case> cases = BuildCorpus(GetParam());
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const std::string at = "case " + std::to_string(i);

    Value copy(c.value);
    ExpectSameObservables(copy, c.oracle, at + " copy-constructed");
    ExpectSameObservables(c.value, c.oracle, at + " copied-from");

    // A move hands the cell over, long-string buffer included.
    std::string_view before;
    const bool is_string = copy.IfString(&before);
    Value moved(std::move(copy));
    ExpectSameObservables(moved, c.oracle, at + " move-constructed");
    EXPECT_TRUE(copy.is_null()) << at;  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.type(), ValueType::kNull) << at;
    if (is_string && before.size() > 15) {
      EXPECT_EQ(moved.AsString().data(), before.data()) << at;
    }

    // Assignment over every kind of previous content, long strings too.
    for (size_t j = 0; j < cases.size(); j += 7) {
      Value target(cases[j].value);
      target = c.value;
      ExpectSameObservables(target, c.oracle, at + " copy-assigned");
      Value source(c.value);
      Value other(cases[j].value);
      other = std::move(source);
      ExpectSameObservables(other, c.oracle, at + " move-assigned");
      EXPECT_TRUE(source.is_null()) << at;  // NOLINT(bugprone-use-after-move)
    }

    Value self(c.value);
    const Value& alias = self;
    self = alias;
    ExpectSameObservables(self, c.oracle, at + " self-copy-assigned");
    Value& mutable_alias = self;
    self = std::move(mutable_alias);
    ExpectSameObservables(self, c.oracle, at + " self-move-assigned");

    // A moved-from Value is an ordinary NULL that can be reused.
    Value reused(std::move(self));
    ExpectSameObservables(self, OracleValue(), at + " moved-from");
    self = c.value;
    ExpectSameObservables(self, c.oracle, at + " reused");
  }
}

TEST_P(ValueDifferential, RowsSurviveReallocation) {
  const std::vector<Case> cases = BuildCorpus(GetParam());
  Row row;
  for (const Case& c : cases) row.push_back(c.value);  // grows, moving cells
  ASSERT_EQ(row.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectSameObservables(row[i], cases[i].oracle, "row " + std::to_string(i));
  }
  Row copy = row;
  row.clear();
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectSameObservables(copy[i], cases[i].oracle,
                          "copied row " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ValueLayout, SixteenBytesWithFifteenInline) {
  EXPECT_EQ(sizeof(Value), 16u);
  // Up to 15 bytes the string starts at the cell's first byte; from 16
  // bytes on it lives in a buffer of its own.
  const Value inline15(std::string(15, 'q'));
  EXPECT_EQ(inline15.AsString().data(),
            reinterpret_cast<const char*>(&inline15));
  const Value heap16(std::string(16, 'q'));
  EXPECT_NE(heap16.AsString().data(), reinterpret_cast<const char*>(&heap16));
}

}  // namespace
}  // namespace autoindex
