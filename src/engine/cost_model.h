#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace autoindex {

// Engine cost weights (Sec. V-A of the paper; the values follow the
// PostgreSQL/openGauss defaults the paper builds on).
constexpr double kSeqPageCost = 1.0;
constexpr double kRandomPageCost = 4.0;
constexpr double kCpuTupleCost = 0.01;
constexpr double kCpuOperatorCost = 0.0025;
constexpr double kCpuIndexTupleCost = 0.005;

// The paper's index-update CPU cost (Sec. V-A):
//   t_start   = (ceil(log2 N) + (H+1)*50) * kCpuOperatorCost
//   t_running = N_insert * kCpuIndexTupleCost
// N = index entries, H = tree height, N_insert = tuples inserted/updated.
double IndexUpdateCpuCost(size_t num_entries, size_t height,
                          size_t num_insert);

// A hash join over a table of `table_pages` pages and `table_rows` rows:
// one sequential build scan plus one probe per outer row.
double PriceHashJoin(size_t table_pages, size_t table_rows, double outer_rows);

// Aggregated cost of one statement execution, split the way the paper's
// estimator consumes it: data-processing cost C_data (the read side: pages
// read, tuples examined, sort/agg work), index-maintenance IO C_io and CPU
// C_cpu (write-side).
struct CostBreakdown {
  double data = 0.0;       // C_data
  double maint_io = 0.0;   // index pages dirtied by writes (C^io)
  double maint_cpu = 0.0;  // index-update CPU (C^cpu)

  double Total() const { return data + maint_io + maint_cpu; }

  // Feature vector {C_data, C_io, C_cpu} consumed by the learned estimator
  // (Sec. V-B).
  std::vector<double> Features() const { return {data, maint_io, maint_cpu}; }

  CostBreakdown& operator+=(const CostBreakdown& o) {
    data += o.data;
    maint_io += o.maint_io;
    maint_cpu += o.maint_cpu;
    return *this;
  }
};

// Raw execution counters produced by the executor; ToCost() prices them.
struct ExecStats {
  size_t heap_pages_read = 0;
  size_t index_pages_read = 0;
  size_t tuples_examined = 0;   // heap tuples materialized/filtered
  size_t index_tuples_read = 0; // index entries touched by scans
  size_t rows_returned = 0;
  size_t sort_rows = 0;   // rows passed through sort/group operators
  size_t pages_written = 0;       // heap pages dirtied
  size_t index_entries_written = 0;
  size_t index_pages_written = 0; // leaf writes + splits
  double maint_cpu_cost = 0.0;    // accumulated via IndexUpdateCpuCost
  bool used_index = false;

  CostBreakdown ToCost() const;

  ExecStats& operator+=(const ExecStats& o);
};

}  // namespace autoindex
