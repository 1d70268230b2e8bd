#include "persist/snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/manager.h"
#include "engine/database.h"
#include "persist/io.h"
#include "persist/serde.h"
#include "persist/sql_serde.h"
#include "util/string_util.h"

namespace autoindex {
namespace persist {
namespace {

constexpr char kSnapshotMagic[] = "AIXSNAP1";
constexpr uint32_t kSnapshotVersion = 2;

// Section ids. kTuning is optional; the rest are required.
constexpr uint32_t kMeta = 1;
constexpr uint32_t kCatalog = 2;
constexpr uint32_t kIndexes = 3;
constexpr uint32_t kStats = 4;
constexpr uint32_t kTuning = 5;

void SerializeCatalog(const Database& db, Writer* w) {
  std::vector<std::string> names = db.catalog().TableNames();
  std::sort(names.begin(), names.end());
  w->PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const HeapTable* table = db.catalog().GetTable(name);
    w->PutString(name);
    PutSchema(w, table->schema());
    w->PutBool(table->partitioned());
    if (table->partitioned()) {
      const size_t ordinal = static_cast<size_t>(table->partition_column());
      w->PutString(table->schema().columns()[ordinal].name);
      w->PutU64(table->num_partitions());
    }
    // Every slot, tombstones included: restoring deletes as (insert,
    // delete) pairs reproduces RowIds, slot counts, and page counts, so
    // the reloaded cost model prices scans identically.
    const size_t nslots = table->num_slots();
    w->PutU64(nslots);
    for (RowId rid = 0; rid < nslots; ++rid) {
      const bool live = table->IsLive(rid);
      w->PutBool(!live);
      PutRow(w, table->Get(rid));
    }
  }
}

Status RestoreCatalog(Database* db, Reader* r, RecoveryReport* report) {
  const uint32_t ntables = r->GetU32();
  for (uint32_t i = 0; i < ntables && r->ok(); ++i) {
    const std::string name = r->GetString();
    Schema schema = GetSchema(r);
    if (!r->ok()) break;
    StatusOr<HeapTable*> created =
        db->catalog().CreateTable(name, std::move(schema));
    if (!created.ok()) return created.status();
    HeapTable* table = *created;
    if (r->GetBool()) {
      const std::string partition_column = r->GetString();
      const uint64_t num_partitions = r->GetU64();
      if (!table->SetPartitioning(partition_column,
                                  static_cast<size_t>(num_partitions))) {
        return Status::InvalidArgument(
            StrCat("checkpoint names unknown partition column ",
                   partition_column, " on table ", name));
      }
    }
    const uint64_t nslots = r->GetU64();
    for (uint64_t slot = 0; slot < nslots && r->ok(); ++slot) {
      const bool deleted = r->GetBool();
      Row row = GetRow(r);
      if (!r->ok()) break;
      StatusOr<RowId> rid = table->Insert(std::move(row));
      if (!rid.ok()) return rid.status();
      if (deleted) {
        Status s = table->Delete(*rid);
        if (!s.ok()) return s;
      } else {
        ++report->rows_restored;
      }
    }
    ++report->tables_restored;
  }
  return r->status();
}

void SerializeIndexes(const Database& db, Writer* w) {
  std::vector<IndexDef> defs;
  // AllIndexes is ready-only by contract: an in-flight (kBuilding) index
  // never reaches a checkpoint, so a crash mid-build recovers to "index
  // absent" — matching the WAL, whose create record lands at publish.
  for (const BuiltIndex* index : db.index_manager().AllIndexes()) {
    defs.push_back(index->def());
  }
  // AllIndexes already orders by display name; sort by canonical key as
  // well so the section bytes never depend on iteration details.
  std::sort(defs.begin(), defs.end(),
            [](const IndexDef& a, const IndexDef& b) {
              return a.Key() < b.Key();
            });
  w->PutU32(static_cast<uint32_t>(defs.size()));
  for (const IndexDef& def : defs) PutIndexDef(w, def);
}

Status RestoreIndexes(Database* db, Reader* r, RecoveryReport* report) {
  const uint32_t n = r->GetU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    IndexDef def = GetIndexDef(r);
    if (!r->ok()) break;
    // Rebuilds the tree by scanning the restored heap — only definitions
    // are checkpointed. The online build is the only build; on a quiesced
    // database its phases cost no more than one blocking scan would.
    Status s = db->CreateIndex(def);
    if (!s.ok()) return s;
    ++report->indexes_rebuilt;
  }
  return r->status();
}

Status ApplyWalRecord(Database* db, AutoIndexManager* manager,
                      const WalRecord& record) {
  switch (record.type) {
    case WalRecord::Type::kStatement: {
      StatusOr<ExecResult> result = db->Execute(record.stmt);
      return result.status();
    }
    case WalRecord::Type::kCreateTable: {
      StatusOr<HeapTable*> table =
          db->CreateTable(record.name, record.schema);
      return table.status();
    }
    case WalRecord::Type::kCreateIndex:
      return db->CreateIndex(record.def);
    case WalRecord::Type::kDropIndex:
      return db->DropIndex(record.name);
    case WalRecord::Type::kBulkInsert:
      return db->BulkInsert(record.name, record.rows);
    case WalRecord::Type::kAnalyze:
      if (record.name.empty()) {
        db->Analyze();
      } else {
        db->Analyze(record.name);
      }
      return Status::Ok();
  }
  (void)manager;
  return Status::Internal("unreachable WAL record type");
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.aidb";
}

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

StatusOr<FileWriter> BuildCheckpoint(const Database& db,
                                     const AutoIndexManager* manager,
                                     uint64_t* data_version_out) {
  // Freeze: shared latches on every table block writers (which take
  // exclusive) for the duration of the cut, the same protocol CheckAll
  // uses. The data version read under the freeze is the checkpoint's
  // version — nothing can bump it until the latches drop.
  LatchManager::Guard freeze =
      db.latches().AcquireShared(db.catalog().TableNames());
  const uint64_t data_version = db.data_version();
  if (data_version_out != nullptr) *data_version_out = data_version;

  FileWriter file(kSnapshotMagic, kSnapshotVersion);
  {
    Writer w;
    w.PutU64(data_version);
    w.PutBool(manager != nullptr);
    file.AddSection(kMeta, w);
  }
  {
    Writer w;
    SerializeCatalog(db, &w);
    file.AddSection(kCatalog, w);
  }
  {
    Writer w;
    SerializeIndexes(db, &w);
    file.AddSection(kIndexes, w);
  }
  {
    Writer w;
    db.stats_manager().Save(&w);
    file.AddSection(kStats, w);
  }
  if (manager != nullptr) {
    Writer w;
    manager->SaveTuningState(&w);
    file.AddSection(kTuning, w);
  }
  return file;
}

StatusOr<uint64_t> SaveSnapshot(Database* db, const AutoIndexManager* manager,
                                const std::string& dir) {
  uint64_t data_version = 0;
  StatusOr<FileWriter> file = BuildCheckpoint(*db, manager, &data_version);
  if (!file.ok()) return file.status();

  Status s = file->WriteAtomic(CheckpointPath(dir));
  if (!s.ok()) return s;
  // The checkpoint is durable; the WAL's history below its version is now
  // redundant. A crash between these two steps leaves a stale-epoch log,
  // which recovery skips harmlessly.
  if (db->durability_log() != nullptr) {
    s = db->durability_log()->OnCheckpoint(data_version);
    if (!s.ok()) return s;
  }
  return data_version;
}

StatusOr<std::unique_ptr<Wal>> OpenSnapshot(Database* db,
                                            AutoIndexManager* manager,
                                            const std::string& dir,
                                            RecoveryReport* report) {
  *report = RecoveryReport();
  if (db->catalog().num_tables() != 0) {
    return Status::InvalidArgument(
        "OpenSnapshot requires a freshly constructed (empty) database");
  }
  if (db->durability_log() != nullptr) {
    return Status::InvalidArgument(
        "OpenSnapshot requires no durability log attached yet");
  }

  std::string bytes;
  Status s = ReadFileToString(CheckpointPath(dir), &bytes);
  if (!s.ok()) return s;
  StatusOr<FileReader> parsed =
      FileReader::Parse(std::move(bytes), kSnapshotMagic, kSnapshotVersion);
  if (!parsed.ok()) return parsed.status();

  const std::string* meta_payload = parsed->Find(kMeta);
  const std::string* catalog_payload = parsed->Find(kCatalog);
  const std::string* indexes_payload = parsed->Find(kIndexes);
  const std::string* stats_payload = parsed->Find(kStats);
  if (meta_payload == nullptr || catalog_payload == nullptr ||
      indexes_payload == nullptr || stats_payload == nullptr) {
    return Status::InvalidArgument(
        "checkpoint is missing a required section");
  }

  Reader meta(*meta_payload);
  const uint64_t checkpoint_version = meta.GetU64();
  const bool has_tuning = meta.GetBool();
  if (!meta.ok()) return meta.status();
  report->info.checkpoint_data_version = checkpoint_version;

  {
    Reader r(*catalog_payload);
    s = RestoreCatalog(db, &r, report);
    if (!s.ok()) return s;
  }
  {
    // Stats precede index builds only by convention — index construction
    // reads heap rows, not statistics — but restoring them before any
    // replayed statement runs keeps cost estimates identical to the saved
    // process from the first query on.
    Reader r(*stats_payload);
    db->stats_manager().Load(&r);
    if (!r.ok()) return r.status();
  }
  {
    Reader r(*indexes_payload);
    s = RestoreIndexes(db, &r, report);
    if (!s.ok()) return s;
  }
  if (has_tuning && manager != nullptr) {
    const std::string* tuning_payload = parsed->Find(kTuning);
    if (tuning_payload == nullptr) {
      return Status::InvalidArgument(
          "checkpoint advertises tuning state but has no tuning section");
    }
    Reader r(*tuning_payload);
    s = manager->LoadTuningState(&r);
    if (!s.ok()) return s;
    report->tuning_state_restored = true;
  }

  // --- WAL tail ---
  WalReplay replay;
  std::unique_ptr<Wal> wal;
  StatusOr<std::unique_ptr<Wal>> opened = Wal::Open(WalPath(dir), &replay);
  if (opened.ok()) {
    wal = std::move(*opened);
  } else if (opened.status().code() == StatusCode::kNotFound ||
             opened.status().code() == StatusCode::kInvalidArgument) {
    // Absent (never created) or torn before the header completed — in
    // both cases no record was ever durable, so start a fresh log at the
    // checkpoint's version.
    StatusOr<std::unique_ptr<Wal>> created =
        Wal::Create(WalPath(dir), checkpoint_version);
    if (!created.ok()) return created.status();
    wal = std::move(*created);
    replay.epoch = checkpoint_version;
  } else {
    return opened.status();
  }
  report->info.wal_epoch = replay.epoch;
  report->info.wal_bytes_truncated = replay.bytes_truncated;
  if (replay.epoch > checkpoint_version) {
    return Status::Internal(
        StrCat("WAL epoch ", replay.epoch, " is beyond checkpoint version ",
               checkpoint_version,
               " — the log belongs to a lost checkpoint"));
  }

  uint64_t recovered_version = checkpoint_version;
  for (const WalRecord& record : replay.records) {
    // Records at or below the checkpoint version are already inside the
    // checkpoint image (stale log after a crash mid-checkpoint).
    if (record.data_version <= checkpoint_version) continue;
    s = ApplyWalRecord(db, manager, record);
    if (!s.ok()) {
      return Status::Internal(
          StrCat("WAL replay failed at data version ", record.data_version,
                 ": ", s.ToString()));
    }
    report->info.replayed_data_versions.push_back(record.data_version);
    recovered_version = record.data_version;
    ++report->wal_records_replayed;
  }

  // Replay re-executed statements through the normal paths, which bump
  // the counter arbitrarily; pin it to the recorded history.
  db->RestoreDataVersion(recovered_version);
  report->info.recovered_data_version = recovered_version;

  s = ValidateRecovery(*db, report->info);
  if (!s.ok()) return s;

  if (replay.epoch < checkpoint_version) {
    // Stale log fully superseded by the checkpoint: reset it so future
    // appends extend the right epoch.
    s = wal->OnCheckpoint(checkpoint_version);
    if (!s.ok()) return s;
  }
  db->set_durability_log(wal.get());
  return wal;
}

}  // namespace persist
}  // namespace autoindex
