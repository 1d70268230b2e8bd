#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "util/mutex.h"
#include "util/status.h"

namespace autoindex {

// Owns all tables of one database instance. Table names are
// case-insensitive.
//
// Thread safety: the table *map* is guarded by an internal shared_mutex,
// so concurrent lookups and DDL are safe. The returned HeapTable pointers
// stay stable until DropTable; protecting the table *contents* is the
// LatchManager's job, not the catalog's.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Creates an empty table; fails if the name is taken.
  StatusOr<HeapTable*> CreateTable(const std::string& name, Schema schema)
      EXCLUDES(mu_);

  Status DropTable(const std::string& name) EXCLUDES(mu_);

  // nullptr when absent.
  HeapTable* GetTable(const std::string& name) EXCLUDES(mu_);
  const HeapTable* GetTable(const std::string& name) const EXCLUDES(mu_);

  std::vector<std::string> TableNames() const EXCLUDES(mu_);

  size_t num_tables() const EXCLUDES(mu_);

 private:
  mutable util::SharedMutex mu_;
  std::unordered_map<std::string, std::unique_ptr<HeapTable>> tables_
      GUARDED_BY(mu_);
};

}  // namespace autoindex
