#include "check/latch_validator.h"

#include <map>
#include <string>
#include <utility>

#include "storage/latch_manager.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

struct HolderCounts {
  int shared = 0;
  int exclusive = 0;
};

}  // namespace

void LatchValidator::Validate(const CheckContext& ctx,
                              CheckReport* report) const {
  if (ctx.latches == nullptr) return;
  const LatchManager::DebugSnapshot snap = ctx.latches->Snapshot();

  // Tally who claims to hold what, and audit each thread's held list for
  // global-order violations while we're at it.
  std::map<std::string, HolderCounts> holders;
  size_t thread_idx = 0;
  for (const LatchManager::ThreadHeldList& thread : snap.threads) {
    report->NoteStructureChecked();
    const std::string* prev = nullptr;
    for (const auto& [table, mode] : thread.held) {
      if (mode == LatchManager::LatchMode::kExclusive) {
        ++holders[table].exclusive;
      } else {
        ++holders[table].shared;
      }
      if (prev != nullptr && !(*prev < table)) {
        report->AddIssue(
            name(),
            StrCat("thread #", thread_idx, " holds '", *prev, "' before '",
                   table,
                   "': held list violates the sorted acquisition order"));
      }
      prev = &table;
    }
    ++thread_idx;
  }

  for (const LatchManager::TableLatchState& latch : snap.latches) {
    report->NoteStructureChecked();
    if (latch.readers < 0 || latch.waiting_writers < 0 ||
        latch.waiting_readers < 0) {
      report->AddIssue(
          name(), StrCat("latch ", latch.table, ": negative count (",
                         latch.readers, " readers, ", latch.waiting_writers,
                         " waiting writers, ", latch.waiting_readers,
                         " waiting readers)"));
    }
    if (latch.readers > 0 && latch.writer) {
      report->AddIssue(name(),
                       StrCat("latch ", latch.table, ": held shared by ",
                              latch.readers,
                              " reader(s) and exclusive at the same time"));
    }
    const HolderCounts counts = holders.count(latch.table) > 0
                                    ? holders.at(latch.table)
                                    : HolderCounts{};
    if (counts.shared != latch.readers) {
      report->AddIssue(
          name(),
          StrCat("latch ", latch.table, ": reader count ", latch.readers,
                 " but ", counts.shared,
                 " thread(s) record a shared hold (leak or double-release)"));
    }
    const int expected_writers = latch.writer ? 1 : 0;
    if (counts.exclusive != expected_writers) {
      report->AddIssue(
          name(),
          StrCat("latch ", latch.table, ": writer flag ",
                 latch.writer ? "set" : "clear", " but ", counts.exclusive,
                 " thread(s) record an exclusive hold"));
    }
    holders.erase(latch.table);
  }

  // Anything left was recorded by a thread but has no latch entry at all.
  for (const auto& [table, counts] : holders) {
    if (counts.shared == 0 && counts.exclusive == 0) continue;
    report->AddIssue(name(),
                     StrCat("thread(s) record holds on '", table,
                            "' but the latch table has no entry for it"));
  }
}

}  // namespace autoindex
