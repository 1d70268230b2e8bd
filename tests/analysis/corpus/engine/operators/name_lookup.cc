// operator-name-lookup fixture: catalog/schema name lookups inside
// per-tuple operator bodies, next to the spellings that must stay clean
// (constructors, declarations, calls, other functions, comments).

#include <string>

namespace corpus {

struct Schema {
  int FindColumn(const std::string& name) const;
};
struct Table {
  const Schema& schema() const;
};
struct Catalog {
  const Table* GetTable(const std::string& name) const;
};
std::string ToLower(const std::string& s);

struct Tuple {};

class ScanOp {
 public:
  ScanOp(const Catalog& catalog, const std::string& name)
      : table_(catalog.GetTable(name)),
        ord_(table_->schema().FindColumn(ToLower("k"))) {}

  bool DoNext(Tuple* out);  // a declaration: no body to check
  bool Rebind(const Tuple* outer) {
    return table_->schema().FindColumn("k") >= 0;  // lint:expect(operator-name-lookup)
  }
  void EnsureSorted() const {
    if (true) {
      (void)ToLower("nested braces");  // lint:expect(operator-name-lookup)
    }
  }
  int ord() const { return table_->schema().FindColumn("k"); }

 private:
  void EnsureMaterialized();
  void BuildHashTable();

  const Catalog* catalog_ = nullptr;
  const Table* table_;
  int ord_;
};

bool ScanOp::DoNext(Tuple* out) {
  (void)out;
  // A comment naming GetTable("t") or FindColumn("c") stays silent.
  const Table* t =
      catalog_->GetTable("t");  // lint:expect(operator-name-lookup)
  return t != nullptr && ord_ >= 0;
}

void ScanOp::EnsureMaterialized() {
  const Table* t = catalog_->GetTable(  // lint:expect(operator-name-lookup)
      "t");
  (void)t->schema().FindColumn("k");  // lint:expect(operator-name-lookup)
}

void ScanOp::BuildHashTable() {
  Tuple t;
  (void)Rebind(&t);  // a call, not a definition
}

int Bind(const Catalog& catalog) {
  // Lowering-time binding may look names up freely.
  return catalog.GetTable("t")->schema().FindColumn(ToLower("K"));
}

}  // namespace corpus
