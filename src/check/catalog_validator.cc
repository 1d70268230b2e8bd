#include "check/catalog_validator.h"

#include "index/index_manager.h"
#include "storage/catalog.h"
#include "util/string_util.h"

namespace autoindex {

void CatalogConsistencyValidator::Validate(const CheckContext& ctx,
                                           CheckReport* report) const {
  if (ctx.catalog == nullptr || ctx.indexes == nullptr) return;
  const Catalog& catalog = *ctx.catalog;
  const IndexManager& manager = *ctx.indexes;

  size_t summed_bytes = 0;
  for (const BuiltIndex* index : manager.AllIndexes()) {
    report->NoteStructureChecked();
    const IndexDef& def = index->def();
    const std::string display = def.DisplayName();

    const HeapTable* table = catalog.GetTable(def.table);
    if (table == nullptr) {
      report->AddIssue(name(), StrCat("index ", display,
                                      " references dropped table ",
                                      def.table));
      continue;
    }
    for (const std::string& col : def.columns) {
      if (!table->schema().HasColumn(col)) {
        report->AddIssue(name(),
                         StrCat("index ", display, " references column ", col,
                                " missing from table ", def.table));
      }
    }
    if (def.columns.empty()) {
      report->AddIssue(name(), StrCat("index ", display, " has no columns"));
    }

    // Indexes carry exactly one entry per live row: the write path keeps
    // them in lock-step and the build scans only live rows. Drift here is
    // the "index-size accounting" class of bug.
    if (index->num_entries() != table->num_rows()) {
      report->AddIssue(
          name(), StrCat("index ", display, " holds ", index->num_entries(),
                         " entries but table ", def.table, " has ",
                         table->num_rows(), " live rows"));
    }

    // Local indexes must shard by the table's partitioning; global ones
    // keep a single tree.
    if (def.kind == IndexKind::kLocal && table->partitioned() &&
        index->num_trees() != table->num_partitions()) {
      report->AddIssue(
          name(), StrCat("local index ", display, " has ", index->num_trees(),
                         " trees for ", table->num_partitions(),
                         " partitions"));
    }
    if (def.kind == IndexKind::kGlobal && index->num_trees() != 1) {
      report->AddIssue(name(), StrCat("global index ", display, " has ",
                                      index->num_trees(), " trees"));
    }
    summed_bytes += index->SizeBytes();
  }

  report->NoteStructureChecked();  // the manager-level accounting itself
  if (summed_bytes != manager.TotalIndexBytes()) {
    report->AddIssue(
        name(), StrCat("TotalIndexBytes reports ", manager.TotalIndexBytes(),
                       " but per-index sizes sum to ", summed_bytes));
  }

  // Hypothetical indexes: must reference live tables/columns and must
  // never appear in the physical set — a what-if round that leaks its
  // hypotheticals would double-count them against real plans.
  for (const HypotheticalIndex& hypo : manager.hypothetical()) {
    report->NoteStructureChecked();
    const std::string display = hypo.def.DisplayName();
    if (manager.HasIndex(hypo.def)) {
      report->AddIssue(name(),
                       StrCat("hypothetical index ", display,
                              " also exists in the physical index set"));
    }
    const HeapTable* table = catalog.GetTable(hypo.def.table);
    if (table == nullptr) {
      report->AddIssue(name(), StrCat("hypothetical index ", display,
                                      " references dropped table ",
                                      hypo.def.table));
      continue;
    }
    for (const std::string& col : hypo.def.columns) {
      if (!table->schema().HasColumn(col)) {
        report->AddIssue(name(), StrCat("hypothetical index ", display,
                                        " references column ", col,
                                        " missing from table ",
                                        hypo.def.table));
      }
    }
  }
}

}  // namespace autoindex
