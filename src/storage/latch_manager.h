#pragma once

#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/mutex.h"

namespace autoindex {

// Table-level reader–writer latch manager: the concurrency substrate that
// lets many client sessions execute statements against one Database while
// the AutoIndex manager tunes in the background. SELECT takes shared
// latches on every referenced table; INSERT/UPDATE/DELETE, index
// build/drop, and bulk loads take an exclusive latch on their table.
//
// Deadlock freedom: every multi-table acquisition sorts the (lowercased)
// table names and latches them in that fixed global order, so wait-for
// cycles cannot form. Waiting writers block *new* readers (writer
// preference) but never a thread that already holds the latch — nested
// re-acquisition by the same thread (e.g. lazy statistics builds running
// under a statement's latch) is a recorded no-op, which also rules out
// self-deadlock. Readers are not starved either: when a writer releases,
// the readers already waiting go before the next writer (phase-fair), so
// a reader waits for at most one writer's turn even under a steady writer
// stream (an online build's shared-latch chunks rely on this).
//
// Upgrades (shared held, exclusive requested by the same thread) are a
// programming error and abort loudly: statements acquire every latch they
// need up front at their final mode, so an upgrade can only be a bug.
//
// The manager tracks who holds what (per-latch reader/writer counts and
// each thread's held list in acquisition order). That bookkeeping is what
// the LatchValidator in src/check/ audits: counts must agree with the
// per-thread lists, no latch may be held shared and exclusive at once, and
// every thread's held list must respect the global sort order.
class LatchManager {
 public:
  enum class LatchMode { kShared, kExclusive };

  struct LatchRequest {
    std::string table;
    LatchMode mode = LatchMode::kShared;
  };

  // RAII release of one acquisition batch. Must be destroyed (or
  // Release()d) on the thread that acquired it. Movable, not copyable; a
  // default-constructed guard holds nothing.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : manager_(other.manager_),
          held_(std::move(other.held_)),
          hold_watch_(other.hold_watch_) {
      other.manager_ = nullptr;
      other.held_.clear();
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        manager_ = other.manager_;
        held_ = std::move(other.held_);
        hold_watch_ = other.hold_watch_;
        other.manager_ = nullptr;
        other.held_.clear();
      }
      return *this;
    }
    ~Guard() { Release(); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    // Releases every latch this guard holds (reverse acquisition order);
    // idempotent.
    void Release();

    // Number of latches this guard actually acquired (nested re-entries
    // are no-ops and do not count).
    size_t num_held() const { return held_.size(); }

   private:
    friend class LatchManager;
    Guard(LatchManager* manager,
          std::vector<std::pair<std::string, LatchMode>> held)
        : manager_(manager), held_(std::move(held)) {
      // Hold-time accounting starts once the whole batch is granted;
      // compiled-out metrics skip the clock read.
      if constexpr (util::kMetricsEnabled) {
        if (!held_.empty()) hold_watch_.Restart();
      }
    }

    LatchManager* manager_ = nullptr;
    std::vector<std::pair<std::string, LatchMode>> held_;
    // Armed only for guards that actually acquired something.
    util::Stopwatch hold_watch_{util::Stopwatch::DeferStart{}};
  };

  LatchManager() = default;
  LatchManager(const LatchManager&) = delete;
  LatchManager& operator=(const LatchManager&) = delete;

  // Acquires every requested latch in the fixed global (sorted-name)
  // order, blocking as needed. Duplicate tables are coalesced to their
  // strongest requested mode. Tables the calling thread already holds (at
  // a sufficient mode) are skipped.
  Guard Acquire(std::vector<LatchRequest> requests) EXCLUDES(mu_);

  // Conveniences for the two statement shapes.
  Guard AcquireShared(const std::vector<std::string>& tables) EXCLUDES(mu_);
  Guard AcquireExclusive(const std::string& table) EXCLUDES(mu_);

  // --- Introspection (LatchValidator / diagnostics) -------------------
  struct TableLatchState {
    std::string table;
    int readers = 0;
    bool writer = false;
    int waiting_writers = 0;
    int waiting_readers = 0;
  };
  struct ThreadHeldList {
    // Held latches in acquisition order (must be sorted by table name).
    std::vector<std::pair<std::string, LatchMode>> held;
  };
  struct DebugSnapshot {
    std::vector<TableLatchState> latches;
    std::vector<ThreadHeldList> threads;
  };
  // One consistent snapshot of every latch's state and every thread's
  // held list (both taken under the same internal lock).
  DebugSnapshot Snapshot() const EXCLUDES(mu_);

  // Lifetime count of granted (non-nested) acquisitions.
  size_t total_acquisitions() const EXCLUDES(mu_);

  // --- Test-only corruption hook (see src/check/) ---------------------
  // Bumps a latch's reader count without any thread recording the hold,
  // so the LatchValidator's cross-check must fire. Never call outside
  // tests.
  void TestOnlyAddPhantomReader(const std::string& table) EXCLUDES(mu_);

 private:
  struct LatchInfo {
    int readers = 0;
    bool writer = false;
    int waiting_writers = 0;
    int waiting_readers = 0;
    // Readers admitted ahead of queued writers: set to waiting_readers
    // when a writer releases, consumed one per admitted reader. Writers
    // wait while it is positive.
    int reader_grants = 0;
  };

  // Mode the calling thread already holds on `key` (nullptr = not held).
  const LatchMode* HeldModeLocked(std::thread::id tid,
                                  const std::string& key) const
      REQUIRES(mu_);

  // Whether a shared acquisition of `key` may proceed: no writer holds it,
  // and none is queued (writer preference) unless the last writer's
  // release granted the waiting readers their turn.
  bool SharedAdmissibleLocked(const std::string& key) const REQUIRES(mu_);

  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::unordered_map<std::string, LatchInfo> latches_ GUARDED_BY(mu_);
  // Per-thread held latches in acquisition order; entries removed on
  // release, thread entries erased when empty.
  std::unordered_map<std::thread::id,
                     std::vector<std::pair<std::string, LatchMode>>>
      held_by_thread_ GUARDED_BY(mu_);
  size_t total_acquisitions_ GUARDED_BY(mu_) = 0;
  // Threads currently blocked in cv_.wait. Release skips the notify when
  // nobody is parked — the overwhelmingly common case on uncontended
  // single-thread paths, where the syscall would be pure overhead.
  size_t waiters_ GUARDED_BY(mu_) = 0;
};

}  // namespace autoindex
