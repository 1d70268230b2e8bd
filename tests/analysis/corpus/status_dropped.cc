// status-ignored fixture: a bare-statement call to a Status-returning
// function (declared in corpus_api.h) drops the error.

#include "corpus_api.h"

namespace corpus {

void Careless() {
  DoWork();  // lint:expect(status-ignored)
  Lookup(7);  // lint:expect(status-ignored)
}

void Receivers(Tree& tree, Table* table) {
  tree.Insert(1);  // void on Tree: nothing to drop
  table->Insert(2);  // lint:expect(status-ignored)
}

Status Careful() {
  // Consumed forms never fire: returned, assigned, or (void)-discarded.
  (void)Flush(3);
  Status s = DoWork();
  return s;
}

}  // namespace corpus
