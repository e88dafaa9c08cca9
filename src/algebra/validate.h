#ifndef ECA_ALGEBRA_VALIDATE_H_
#define ECA_ALGEBRA_VALIDATE_H_

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "catalog/schema.h"
#include "common/status.h"

namespace eca {

// Structural well-formedness checks for plans. The rewrite layer produces
// well-formed plans by construction; validation catches hand-built or
// corrupted plans before execution and is run on every optimizer output in
// the test suite. Returns an empty vector when the plan is valid, else a
// list of human-readable problems.
//
// Checked invariants:
//  - leaf rel_ids are within the base schema vector and used at most once
//  - join operands cover disjoint relation sets
//  - every predicate's referenced relations are visible in the operand
//    schemas where it is evaluated
//  - gamma/gamma*/lambda attribute sets are visible in their child's output
//  - pi keeps a non-empty subset of the child's output
//  - gamma* actually nullifies something (its keep set does not cover the
//    whole child output)
//  - every column referenced by a join/lambda predicate exists in its base
//    relation's schema (so execution cannot hit an unresolved column)
struct ValidateOptions {
  // Accept a relation appearing once per semi/antijoin pruning side in
  // addition to its visible leaf. The enumerator never produces such
  // plans (strict mode stays the default), but the Yannakakis pass of the
  // semijoin policy references each relation a second time inside the
  // reducers' pruning sides — hidden subtrees whose rows never reach the
  // output, so the once-per-output invariant still holds. Each pruning
  // side is checked with a fresh leaf set of its own, keeping genuine
  // duplicates within one subtree detectable.
  bool allow_hidden_duplicates = false;
};

std::vector<std::string> ValidatePlan(const Plan& plan,
                                      const std::vector<Schema>& base,
                                      const ValidateOptions& opts = {});

// Status form for propagating callers (tools, the ecad session):
// INVALID_ARGUMENT joining every problem found, OK when valid.
Status ValidatePlanStatus(const Plan& plan, const std::vector<Schema>& base,
                          const ValidateOptions& opts = {});

// Convenience: CHECK-fails with the first problem (for tests).
void CheckPlanValid(const Plan& plan, const std::vector<Schema>& base);

}  // namespace eca

#endif  // ECA_ALGEBRA_VALIDATE_H_
