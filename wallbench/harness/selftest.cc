// Self-tests of the benchmark's own percentile code and output checks.
// Exit status 0 when every case passes; run.py runs this after building
// and refuses to measure if it fails.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/checks.h"
#include "harness/percentiles.h"

namespace wallbench {
namespace {

using autoindex::Row;
using autoindex::Schema;
using autoindex::Value;
using autoindex::ValueType;

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::vector<double> Range(int lo, int hi) {
  std::vector<double> out;
  for (int i = lo; i <= hi; ++i) out.push_back(i);
  return out;
}

void TestPercentiles() {
  std::printf("percentiles\n");
  const std::vector<double> thousand = Range(1, 1000);
  Expect(ExactPercentile(thousand, 0.50) == 500.0, "p50 of 1..1000 is 500");
  Expect(ExactPercentile(thousand, 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(ExactPercentile(thousand, 1.0) == std::nullopt,
         "max of 1..1000 has no samples beyond it: refused");
  const std::vector<double> hundred = Range(1, 100);
  Expect(ExactPercentile(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  Expect(ExactPercentile(hundred, 0.99) == std::nullopt,
         "p99 of 100 samples (1 beyond) is refused");
  Expect(ExactPercentile(Range(1, 1009), 0.99) == 999.0,
         "p99 of 1..1009 is 999 (10 beyond)");
  Expect(ExactPercentile({}, 0.5) == std::nullopt, "no samples: refused");
  std::vector<double> steps(500, 10.0);
  steps.insert(steps.end(), 500, 20.0);
  Expect(ExactPercentile(steps, 0.50) == 10.0 &&
             ExactPercentile(steps, 0.51) == 20.0,
         "step distribution splits at rank 500");
  Expect(Median({3, 1, 2}) == 2.0 && Median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
}

Row R(int64_t k, const char* s, double d) {
  return {Value(k), Value(s), Value(d)};
}

void TestResultMultisets() {
  std::printf("result multiset check\n");
  const std::vector<Row> reference = {R(1, "a", 0.5), R(2, "b", 1.5),
                                      R(2, "b", 1.5), R(3, "c", 2.5)};
  std::string why;
  Expect(SameRowMultiset(reference, reference, &why), "identical rows match");
  Expect(SameRowMultiset(reference,
                         {R(3, "c", 2.5), R(2, "b", 1.5), R(1, "a", 0.5),
                          R(2, "b", 1.5)},
                         &why),
         "reordered rows match");
  std::vector<Row> dropped = reference;
  dropped.pop_back();
  Expect(!SameRowMultiset(reference, dropped, &why),
         "reference with one row dropped fails");
  Expect(!SameRowMultiset(reference,
                          {R(1, "a", 0.5), R(2, "b", 1.5), R(3, "c", 2.5),
                           R(3, "c", 2.5)},
                          &why),
         "same size, different multiplicities fails");
  Expect(SameRowMultiset({R(1, "a", 1e6)}, {R(1, "a", 1e6 + 1e-6)}, &why),
         "aggregate differing in the last bits matches");
  Expect(!SameRowMultiset({R(1, "a", 1.0)}, {R(1, "a", 1.001)}, &why),
         "different double fails");
  Expect(!SameRowMultiset({R(1, "a", 1.0)}, {R(1, "b", 1.0)}, &why),
         "different string fails");
  Expect(CountKey(reference, 0, 2) == 2 && CountKey(reference, 0, 9) == 0,
         "key counting");
}

std::unique_ptr<autoindex::Database> TableWith(std::vector<Row> rows) {
  auto db = std::make_unique<autoindex::Database>();
  autoindex::CheckOk(db->CreateTable(
      "t", Schema({{"k", ValueType::kInt},
                   {"s", ValueType::kString, 8},
                   {"d", ValueType::kDouble}})));
  autoindex::CheckOk(db->BulkInsert("t", std::move(rows)));
  return db;
}

void TestDigests() {
  std::printf("table digest check\n");
  const auto a = TableWith({R(1, "a", 0.5), R(2, "b", 1.5), R(3, "c", 2.5)});
  const auto b = TableWith({R(3, "c", 2.5), R(1, "a", 0.5), R(2, "b", 1.5)});
  const auto c = TableWith({R(1, "a", 0.5), R(2, "b", 1.5), R(3, "c", 2.25)});
  const auto d = TableWith({R(1, "a", 0.5), R(2, "b", 1.5)});
  std::string why;
  Expect(SameDigests(DigestTables(*a), DigestTables(*b), &why),
         "same rows in another slot order match");
  Expect(!SameDigests(DigestTables(*a), DigestTables(*c), &why),
         "one changed value fails");
  Expect(!SameDigests(DigestTables(*a), DigestTables(*d), &why),
         "one missing row fails");
  Expect(StructuralIssues(*a).empty(), "CheckAll is clean on a fresh table");
}

}  // namespace
}  // namespace wallbench

int main() {
  wallbench::TestPercentiles();
  wallbench::TestResultMultisets();
  wallbench::TestDigests();
  std::printf("%s (%d failures)\n",
              wallbench::g_failures == 0 ? "selftest passed" : "selftest FAILED",
              wallbench::g_failures);
  return wallbench::g_failures == 0 ? 0 : 1;
}
