#include "engine/cost_model.h"

#include <cmath>

namespace autoindex {
namespace {

// IO cost of touching `pages` pages sequentially / randomly.
double SeqIoCost(size_t pages) {
  return static_cast<double>(pages) * kSeqPageCost;
}

double RandomIoCost(size_t pages) {
  return static_cast<double>(pages) * kRandomPageCost;
}

}  // namespace

double IndexUpdateCpuCost(size_t num_entries, size_t height,
                          size_t num_insert) {
  const double log_n =
      num_entries <= 1 ? 0.0
                       : std::ceil(std::log2(static_cast<double>(num_entries)));
  const double t_start =
      (log_n + (static_cast<double>(height) + 1.0) * 50.0) * kCpuOperatorCost;
  const double t_running = static_cast<double>(num_insert) * kCpuIndexTupleCost;
  return t_start + t_running;
}

double PriceHashJoin(size_t table_pages, size_t table_rows, double outer_rows) {
  return SeqIoCost(table_pages) +
         static_cast<double>(table_rows) * kCpuTupleCost +
         outer_rows * kCpuOperatorCost;
}

CostBreakdown ExecStats::ToCost() const {
  CostBreakdown cost;
  const double io = SeqIoCost(heap_pages_read) + RandomIoCost(index_pages_read);
  double cpu = static_cast<double>(tuples_examined) * kCpuTupleCost +
               static_cast<double>(index_tuples_read) * kCpuIndexTupleCost;
  if (sort_rows > 1) {
    cpu += static_cast<double>(sort_rows) *
           std::log2(static_cast<double>(sort_rows)) * kCpuOperatorCost;
  }
  cost.data = io + cpu;
  cost.maint_io = SeqIoCost(pages_written + index_pages_written);
  cost.maint_cpu = maint_cpu_cost;
  return cost;
}

ExecStats& ExecStats::operator+=(const ExecStats& o) {
  heap_pages_read += o.heap_pages_read;
  index_pages_read += o.index_pages_read;
  tuples_examined += o.tuples_examined;
  index_tuples_read += o.index_tuples_read;
  rows_returned += o.rows_returned;
  sort_rows += o.sort_rows;
  pages_written += o.pages_written;
  index_entries_written += o.index_entries_written;
  index_pages_written += o.index_pages_written;
  maint_cpu_cost += o.maint_cpu_cost;
  used_index = used_index || o.used_index;
  return *this;
}

}  // namespace autoindex
