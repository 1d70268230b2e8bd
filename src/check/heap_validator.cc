#include "check/validator.h"

#include "storage/catalog.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

constexpr char kLabel[] = "heap";

}  // namespace

void CheckHeapTables(const Catalog& catalog, CheckReport* report) {
  for (const std::string& table_name : catalog.TableNames()) {
    const HeapTable* table = catalog.GetTable(table_name);
    if (table == nullptr) {
      report->AddIssue(kLabel, StrCat("table ", table_name,
                                      " listed but not resolvable"));
      continue;
    }
    report->NoteStructureChecked();

    // Live-row counter vs a fresh scan; also verify every scanned slot
    // resolves and respects schema arity.
    const size_t arity = table->schema().num_columns();
    size_t scanned = 0;
    table->Scan([&](RowId rid, const Row& row) {
      ++scanned;
      if (!table->IsLive(rid)) {
        report->AddIssue(kLabel, StrCat("table ", table_name, ": slot ", rid,
                                        " scanned but IsLive says dead"));
      }
      if (row.size() != arity) {
        report->AddIssue(
            kLabel, StrCat("table ", table_name, ": row ", rid, " has ",
                           row.size(), " columns, schema declares ", arity));
      }
    });
    if (scanned != table->num_rows()) {
      report->AddIssue(
          kLabel, StrCat("table ", table_name, ": live-row counter says ",
                         table->num_rows(), " but a fresh scan found ",
                         scanned));
    }
    if (table->num_rows() > table->num_slots()) {
      report->AddIssue(
          kLabel, StrCat("table ", table_name, ": ", table->num_rows(),
                         " live rows exceed ", table->num_slots(),
                         " allocated slots"));
    }

    // Page accounting.
    if (table->RowsPerPage() == 0) {
      report->AddIssue(kLabel,
                       StrCat("table ", table_name, ": RowsPerPage is 0"));
      continue;
    }
    const size_t want_pages =
        (table->num_slots() + table->RowsPerPage() - 1) / table->RowsPerPage();
    if (table->NumPages() != want_pages) {
      report->AddIssue(
          kLabel, StrCat("table ", table_name, ": NumPages reports ",
                         table->NumPages(), " for ", table->num_slots(),
                         " slots at ", table->RowsPerPage(),
                         " rows/page (want ", want_pages, ")"));
    }
    if (table->num_slots() > 0 &&
        table->PageOfRow(table->num_slots() - 1) >= want_pages &&
        want_pages > 0) {
      report->AddIssue(kLabel,
                       StrCat("table ", table_name,
                              ": PageOfRow(last slot) lands past NumPages"));
    }

    // Partitioning metadata, when declared.
    if (table->partitioned()) {
      if (table->num_partitions() == 0) {
        report->AddIssue(kLabel, StrCat("table ", table_name,
                                        ": partitioned with 0 partitions"));
      }
      if (table->partition_column() >= static_cast<int>(arity)) {
        report->AddIssue(
            kLabel, StrCat("table ", table_name, ": partition column ordinal ",
                           table->partition_column(),
                           " outside the schema's ", arity, " columns"));
      }
    }
  }
}

}  // namespace autoindex
