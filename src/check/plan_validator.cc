#include "check/validator.h"

#include <cstdint>
#include <string>
#include <unordered_map>

#include "engine/cost_model.h"
#include "engine/operators/operator.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

constexpr char kLabel[] = "physical_plan";

// Expected child count per operator. Unknown names are themselves issues:
// a snapshot can only contain operators the lowering emits.
const std::unordered_map<std::string, size_t>& ArityMap() {
  static const std::unordered_map<std::string, size_t> arity = {
      {"SeqScan", 0},        {"IndexScan", 0},
      {"Filter", 1},         {"Project", 1},
      {"Sort", 1},           {"Limit", 1},
      {"HashAggregate", 1},  {"NestedLoopJoin", 2},
      {"HashJoin", 2},       {"IndexNestedLoopJoin", 2},
  };
  return arity;
}

struct CounterSums {
  int64_t heap_pages_read = 0;
  int64_t index_pages_read = 0;
  int64_t tuples_examined = 0;
  int64_t index_tuples_read = 0;
  int64_t sort_rows = 0;
};

void WalkNode(const PlanNodeSnapshot& node, CheckReport* report,
              CounterSums* sums) {
  auto it = ArityMap().find(node.op);
  if (it == ArityMap().end()) {
    report->AddIssue(kLabel,
                     StrCat("unknown operator \"", node.op, "\" in plan"));
  } else if (node.children.size() != it->second) {
    report->AddIssue(
        kLabel, StrCat("operator ", node.op, " has ", node.children.size(),
                       " children, expected ", it->second));
  }

  const struct {
    const char* label;
    int64_t value;
  } counters[] = {
      {"rows_in", node.actual.rows_in},
      {"rows_out", node.actual.rows_out},
      {"heap_pages_read", node.actual.heap_pages_read},
      {"index_pages_read", node.actual.index_pages_read},
      {"tuples_examined", node.actual.tuples_examined},
      {"index_tuples_read", node.actual.index_tuples_read},
      {"sort_rows", node.actual.sort_rows},
      {"comparisons", node.actual.comparisons},
  };
  for (const auto& c : counters) {
    if (c.value < 0) {
      report->AddIssue(kLabel, StrCat("operator ", node.op,
                                      ": negative counter ", c.label, " (",
                                      c.value, ")"));
    }
  }

  // Tuple-width propagation: scans and row-shaping operators emit width 1,
  // joins extend their outer child by one slot, the rest pass through.
  if (node.op == "SeqScan" || node.op == "IndexScan" ||
      node.op == "Project" || node.op == "HashAggregate") {
    if (node.out_width != 1) {
      report->AddIssue(kLabel, StrCat("operator ", node.op, ": width ",
                                      node.out_width, ", expected 1"));
    }
  } else if (node.op == "NestedLoopJoin" || node.op == "HashJoin" ||
             node.op == "IndexNestedLoopJoin") {
    if (node.children.size() == 2) {
      if (node.out_width != node.children[0].out_width + 1) {
        report->AddIssue(
            kLabel,
            StrCat("join ", node.op, ": width ", node.out_width,
                   ", expected outer width + 1 = ",
                   node.children[0].out_width + 1));
      }
      if (node.children[1].out_width != 1) {
        report->AddIssue(kLabel,
                         StrCat("join ", node.op, ": inner child width ",
                                node.children[1].out_width, ", expected 1"));
      }
    }
  } else if (node.op == "Filter" || node.op == "Sort" || node.op == "Limit") {
    if (node.children.size() == 1 &&
        node.out_width != node.children[0].out_width) {
      report->AddIssue(
          kLabel,
          StrCat("operator ", node.op, ": width ", node.out_width,
                 " differs from child width ", node.children[0].out_width));
    }
  }

  // Row-count sanity: filters and limits never create tuples.
  if ((node.op == "Filter" || node.op == "Limit") &&
      node.actual.rows_out > node.actual.rows_in) {
    report->AddIssue(kLabel,
                     StrCat("operator ", node.op, ": rows_out ",
                            node.actual.rows_out, " exceeds rows_in ",
                            node.actual.rows_in));
  }

  sums->heap_pages_read += node.actual.heap_pages_read;
  sums->index_pages_read += node.actual.index_pages_read;
  sums->tuples_examined += node.actual.tuples_examined;
  sums->index_tuples_read += node.actual.index_tuples_read;
  sums->sort_rows += node.actual.sort_rows;

  for (const PlanNodeSnapshot& child : node.children) {
    WalkNode(child, report, sums);
  }
}

}  // namespace

void CheckLastPlan(const PlanNodeSnapshot& plan, const ExecStats& stats,
                   CheckReport* report) {
  report->NoteStructureChecked();

  CounterSums sums;
  WalkNode(plan, report, &sums);

  const struct {
    const char* label;
    int64_t summed;
    size_t statement;
  } totals[] = {
      {"heap_pages_read", sums.heap_pages_read, stats.heap_pages_read},
      {"index_pages_read", sums.index_pages_read, stats.index_pages_read},
      {"tuples_examined", sums.tuples_examined, stats.tuples_examined},
      {"index_tuples_read", sums.index_tuples_read, stats.index_tuples_read},
      {"sort_rows", sums.sort_rows, stats.sort_rows},
  };
  for (const auto& t : totals) {
    if (t.summed < 0 ||
        static_cast<size_t>(t.summed) != t.statement) {
      report->AddIssue(
          kLabel, StrCat("operator counters sum to ", t.summed, " ", t.label,
                         " but statement ExecStats says ", t.statement));
    }
  }
  if (plan.actual.rows_out >= 0 &&
      static_cast<size_t>(plan.actual.rows_out) != stats.rows_returned) {
    report->AddIssue(kLabel,
                     StrCat("root operator emitted ", plan.actual.rows_out,
                            " rows but statement ExecStats says rows_returned ",
                            stats.rows_returned));
  }
}

}  // namespace autoindex
