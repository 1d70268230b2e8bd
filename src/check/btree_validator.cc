#include "check/validator.h"

#include "index/index_manager.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

constexpr char kLabel[] = "btree";

}  // namespace

void CheckBTrees(const IndexManager& indexes, CheckReport* report) {
  for (const BuiltIndex* index : indexes.AllIndexes()) {
    const std::string display = index->def().DisplayName();
    size_t entries = 0;
    for (size_t t = 0; t < index->num_trees(); ++t) {
      const BTree& tree = index->tree_at(t);
      report->NoteStructureChecked();
      const Status s = tree.ValidateStructure();
      if (!s.ok()) {
        report->AddIssue(kLabel, StrCat(display, " tree ", t, ": ",
                                        s.message()));
      }
      entries += tree.num_entries();
    }
    // The per-index rollup must agree with its trees (local indexes sum
    // over partitions).
    if (entries != index->num_entries()) {
      report->AddIssue(
          kLabel, StrCat(display, ": index reports ", index->num_entries(),
                         " entries but its trees hold ", entries));
    }
  }
}

}  // namespace autoindex
