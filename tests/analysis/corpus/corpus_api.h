#pragma once

// Self-contained stand-in API for the status-ignored fixtures: the rule
// harvests Status-returning names from scanned headers, so the corpus
// brings its own declarations and never depends on the real src/ API.

namespace corpus {

struct Status {};
template <typename T>
struct StatusOr {};

Status DoWork();
Status Flush(int fd);
StatusOr<int> Lookup(int key);

// `Insert` returns a StatusOr on Table but nothing on Tree: a bare call is
// reported only on a receiver known to be a Table.
class Table {
 public:
  StatusOr<int> Insert(int row);
};

class Tree {
 public:
  void Insert(int key);
};

}  // namespace corpus
