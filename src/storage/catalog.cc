#include "storage/catalog.h"

#include <algorithm>

#include "util/string_util.h"

namespace autoindex {

StatusOr<HeapTable*> Catalog::CreateTable(const std::string& name,
                                          Schema schema) {
  const std::string key = ToLower(name);
  util::WriterLock lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + key);
  }
  auto table = std::make_unique<HeapTable>(key, std::move(schema));
  HeapTable* ptr = table.get();
  tables_.emplace(key, std::move(table));
  return ptr;
}

Status Catalog::DropTable(const std::string& name) {
  util::WriterLock lock(mu_);
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  return Status::Ok();
}

HeapTable* Catalog::GetTable(const std::string& name) {
  util::ReaderLock lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const HeapTable* Catalog::GetTable(const std::string& name) const {
  util::ReaderLock lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  util::ReaderLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t Catalog::num_tables() const {
  util::ReaderLock lock(mu_);
  return tables_.size();
}

}  // namespace autoindex
