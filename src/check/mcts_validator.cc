#include "check/validator.h"

#include "core/mcts.h"

namespace autoindex {
namespace {

constexpr char kLabel[] = "mcts";

}  // namespace

void CheckPolicyTree(const MctsIndexSelector& mcts, CheckReport* report) {
  report->NoteStructureChecked();
  const Status s = mcts.ValidateTree();
  if (!s.ok()) {
    report->AddIssue(kLabel, s.message());
  }
}

}  // namespace autoindex
