#pragma once

#include "check/validator.h"

namespace autoindex {

// Validates catalog <-> index-manager consistency: every built index
// references a live table and existing columns, its entry count matches
// the table's live rows, and the manager's byte accounting sums over its
// indexes exactly.
class CatalogConsistencyValidator : public Validator {
 public:
  const char* name() const override { return "catalog"; }
  void Validate(const CheckContext& ctx, CheckReport* report) const override;
};

}  // namespace autoindex
