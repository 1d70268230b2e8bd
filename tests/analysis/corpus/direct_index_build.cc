// direct-index-build fixture: IndexManager DDL entry points driven from
// outside the Database facade, plus the facade-call spellings that must
// stay clean.

namespace corpus {

struct IndexManager {
  int BeginBuild(int def);
  int PublishBuild(int key);
  int FinishBuildDrain(int key);
  int AbortBuild(int key);
  int DropIndex(int key);
};

struct Database {
  int CreateIndex(int def);
  IndexManager& index_manager();
  IndexManager* index_manager_;
  IndexManager* indexes_;
};

inline int BypassesFacade(Database& db, IndexManager& indexes) {
  int sum = 0;
  sum += db.index_manager_->BeginBuild(1);   // lint:expect(direct-index-build)
  sum += db.index_manager().BeginBuild(1);   // lint:expect(direct-index-build)
  sum += db.indexes_->PublishBuild(2);       // lint:expect(direct-index-build)
  sum += indexes.FinishBuildDrain(3);        // lint:expect(direct-index-build)
  sum += indexes.AbortBuild(4);              // lint:expect(direct-index-build)
  return sum;
}

inline int UsesFacade(Database* db, IndexManager& indexes) {
  // The facade call and non-lifecycle methods are fine.
  return db->CreateIndex(1) + indexes.DropIndex(2);
}

}  // namespace corpus
