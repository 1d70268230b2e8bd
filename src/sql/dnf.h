#pragma once

#include <vector>

#include "sql/expr.h"

namespace autoindex {

// One conjunct of a DNF form: a list of atomic predicates all of which must
// hold. Owned clones of the original atoms.
using DnfConjunction = std::vector<ExprPtr>;

// Rewrites an arbitrary boolean expression into Disjunctive Normal Form
// (Sec. IV-A step 2 of the paper): NOTs are pushed to the leaves via
// De Morgan, then ANDs are distributed over ORs. The result is a list of
// conjunctions whose disjunction is equivalent to the input.
//
// `max_conjunctions` caps the exponential blow-up; when exceeded the tail
// conjunctions are dropped (candidate generation only needs the dominant
// access patterns, not logical completeness).
std::vector<DnfConjunction> ToDnf(const Expr& expr,
                                  size_t max_conjunctions = 64);

// Flattens nested ANDs into their conjuncts. Anything else, an OR or a NOT
// included, is one opaque atom; the conjunction of the atoms is `expr`.
void ExtractConjunctionAtoms(const Expr& expr, std::vector<const Expr*>* out);

}  // namespace autoindex
