#include "check/validator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "index/index_manager.h"
#include "storage/catalog.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

constexpr char kLabel[] = "lifecycle";

using Entry = std::pair<Row, RowId>;

bool EntryLess(const Entry& a, const Entry& b) {
  const int cmp = CompareRows(a.first, b.first);
  if (cmp != 0) return cmp < 0;
  return a.second < b.second;
}

bool EntryEqual(const Entry& a, const Entry& b) {
  return a.second == b.second && CompareRows(a.first, b.first) == 0;
}

}  // namespace

void CheckLifecycle(const Catalog& catalog, const IndexManager& manager,
                    CheckReport* report) {
  // --- Ready (planner-reachable) indexes -----------------------------
  // AllIndexes IS the planner's view, so anything it returns in a
  // non-ready state has escaped the lifecycle.
  for (const BuiltIndex* index : manager.AllIndexes()) {
    report->NoteStructureChecked();
    const std::string display = index->def().DisplayName();
    if (index->state() != IndexState::kReady) {
      report->AddIssue(kLabel,
                       StrCat("planner-reachable index ", display,
                              " is in state ", IndexStateName(index->state()),
                              ", not ready"));
      continue;
    }
    if (index->delta_pending() != 0) {
      report->AddIssue(kLabel, StrCat("published index ", display, " kept ",
                                      index->delta_pending(),
                                      " undrained delta ops"));
    }

    // Entry-for-entry differential against a from-scratch rebuild: the
    // phased build (snapshot scan + delta catch-up + publish drain) must
    // land on exactly the entries a blocking scan would produce. The
    // caller (CheckAll) holds shared latches on every table, so the heap
    // and the ready trees are frozen here.
    const HeapTable* table = catalog.GetTable(index->def().table);
    if (table == nullptr) continue;  // the catalog validator reports this
    std::vector<Entry> expected;
    table->Scan([&](RowId rid, const Row& row) {
      expected.emplace_back(index->KeyFromRow(row), rid);
    });
    std::vector<Entry> actual;
    actual.reserve(expected.size());
    index->Scan(nullptr, nullptr, true, nullptr, true,
                [&](const Row& key, RowId rid) {
                  actual.emplace_back(key, rid);
                  return true;
                });
    std::sort(expected.begin(), expected.end(), EntryLess);
    std::sort(actual.begin(), actual.end(), EntryLess);
    if (actual.size() != expected.size()) {
      report->AddIssue(
          kLabel, StrCat("index ", display, " holds ", actual.size(),
                         " entries but a from-scratch rebuild yields ",
                         expected.size()));
      continue;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (!EntryEqual(actual[i], expected[i])) {
        report->AddIssue(
            kLabel,
            StrCat("index ", display, " diverges from a from-scratch ",
                   "rebuild at sorted entry #", i, ": index has rid ",
                   actual[i].second, ", rebuild expects rid ",
                   expected[i].second));
        break;
      }
    }
  }

  // --- In-flight builds and drop leaks -------------------------------
  // A kBuilding index's trees may be mutated concurrently by its builder
  // (the catch-up phase runs without a table latch), so only its atomic
  // counters and delta size are inspected — never the tree contents.
  for (const BuiltIndex* index : manager.AllIndexesAnyState()) {
    if (index->state() == IndexState::kReady) continue;
    report->NoteStructureChecked();
    const std::string display = index->def().DisplayName();
    if (index->state() == IndexState::kDropping) {
      report->AddIssue(kLabel, StrCat("index ", display,
                                      " is observable in state dropping — "
                                      "drops must unlink atomically"));
      continue;
    }
    const HeapTable* table = catalog.GetTable(index->def().table);
    if (table == nullptr) {
      report->AddIssue(kLabel, StrCat("in-flight build ", display,
                                      " references dropped table ",
                                      index->def().table));
      continue;
    }
    for (const std::string& col : index->def().columns) {
      if (!table->schema().HasColumn(col)) {
        report->AddIssue(kLabel, StrCat("in-flight build ", display,
                                        " references column ", col,
                                        " missing from table ",
                                        index->def().table));
      }
    }
    // Entries only ever come from live slots (snapshot scan) or buffered
    // rids (delta apply), and RowIds are never reused — so the tree can
    // never hold more entries than slots were ever allocated. Entries are
    // read *before* slots: both only grow, so the bound is race-tolerant.
    const size_t entries = index->num_entries();
    const size_t slots = table->num_slots();
    if (entries > slots) {
      report->AddIssue(
          kLabel, StrCat("in-flight build ", display, " holds ", entries,
                         " entries but table ", index->def().table,
                         " only ever allocated ", slots, " slots"));
    }
  }
}

}  // namespace autoindex
