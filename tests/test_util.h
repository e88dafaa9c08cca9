#ifndef ECA_TESTS_TEST_UTIL_H_
#define ECA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "exec/database.h"
#include "exec/executor.h"
#include "expr/expr.h"
#include "storage/relation.h"

namespace eca {

// Asserts that two relations hold the same multiset of rows (after
// canonicalizing column order), with a readable diff on failure.
inline void ExpectSameRelation(const Relation& expected,
                               const Relation& actual,
                               const std::string& context = "") {
  Relation ce = CanonicalizeColumnOrder(expected);
  Relation ca = CanonicalizeColumnOrder(actual);
  if (!SameMultiset(ce, ca)) {
    ADD_FAILURE() << context << "\nrelations differ:\n"
                  << ExplainDifference(ce, ca) << "\nexpected:\n"
                  << ce.ToString() << "actual:\n"
                  << ca.ToString();
  }
}

// Asserts that two plans produce the same result on `db`.
inline void ExpectPlansEquivalent(const Plan& a, const Plan& b,
                                  const Database& db,
                                  const std::string& context = "") {
  Executor ea, eb;
  Relation ra = ea.Execute(a, db).value();
  Relation rb = eb.Execute(b, db).value();
  ExpectSameRelation(ra, rb,
                     context + "\nplan A:\n" + a.ToString() + "plan B:\n" +
                         b.ToString());
}

// The executor's oracle: evaluates `plan` operator by operator straight
// from the definitions — nested-loop joins (EvalJoinNaive), the O(n^2)
// best-match (EvalBetaNaive) and row-at-a-time lambda / gamma / gamma*
// (Section 2.2, Equations 7 and 8) — sharing none of the executor's hash,
// fused-chain or morsel code.
inline Relation EvalPlanNaive(const Plan& plan, const Database& db) {
  if (plan.kind() == Plan::Kind::kLeaf) return db.table(plan.rel_id());
  if (plan.kind() == Plan::Kind::kJoin) {
    return EvalJoinNaive(plan.op(), plan.pred(),
                         EvalPlanNaive(*plan.left(), db),
                         EvalPlanNaive(*plan.right(), db));
  }
  const CompOp& c = plan.comp();
  Relation in = EvalPlanNaive(*plan.child(), db);
  if (c.kind == CompOp::Kind::kBeta) return EvalBetaNaive(in);
  if (c.kind == CompOp::Kind::kProject) return EvalProject(c.attrs, in);
  const Schema& schema = in.schema();
  auto all_null = [&](const Tuple& t, RelSet attrs) {
    for (int col : schema.ColumnsOf(attrs)) {
      if (!t[static_cast<size_t>(col)].is_null()) return false;
    }
    return true;
  };
  auto nullify = [&](Tuple* t, int col) {
    (*t)[static_cast<size_t>(col)] = Value::Null(schema.column(col).type);
  };
  CompiledPredicate lambda_pred;
  if (c.kind == CompOp::Kind::kLambda) {
    lambda_pred = CompiledPredicate(c.pred, schema);
  }
  Relation out(schema);
  for (Tuple t : in.rows()) {
    switch (c.kind) {
      case CompOp::Kind::kLambda:
        if (!lambda_pred.EvalTrue(t)) {
          for (int col : schema.ColumnsOf(c.attrs)) nullify(&t, col);
        }
        break;
      case CompOp::Kind::kGamma:
        if (!all_null(t, c.attrs)) continue;
        break;
      case CompOp::Kind::kGammaStar:
        if (!all_null(t, c.attrs)) {
          for (int col = 0; col < schema.NumColumns(); ++col) {
            if (!c.keep.Contains(schema.column(col).rel_id)) nullify(&t, col);
          }
        }
        break;
      default:
        break;
    }
    out.Add(std::move(t));
  }
  return c.kind == CompOp::Kind::kGammaStar ? EvalBetaNaive(out) : out;
}

// Builds a relation from an inline spec. Columns are (rel_id, name, type);
// rows as vectors of Values.
inline Relation MakeRelation(std::vector<Column> cols,
                             std::vector<Tuple> rows) {
  return Relation(Schema(std::move(cols)), std::move(rows));
}

inline Value N() { return Value::Null(DataType::kInt64); }
inline Value I(int64_t x) { return Value::Int(x); }
inline Value S(const char* s) { return Value::Str(s); }

}  // namespace eca

#endif  // ECA_TESTS_TEST_UTIL_H_
