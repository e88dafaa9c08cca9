#include "rewrite/property_probe.h"

#include "common/rng.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "testing/random_data.h"

namespace eca {

namespace {

// Predicate endpoints for each transform pattern: p_a joins (a0,a1),
// p_b joins (b0,b1) — see transform.h.
void PatternPredicatePairs(TransformType t, int* a0, int* a1, int* b0,
                           int* b1) {
  switch (t) {
    case TransformType::kAssoc:
      *a0 = 0; *a1 = 1; *b0 = 1; *b1 = 2;
      return;
    case TransformType::kLAsscom:
      *a0 = 0; *a1 = 1; *b0 = 0; *b1 = 2;
      return;
    case TransformType::kRAsscom:
      *a0 = 0; *a1 = 2; *b0 = 1; *b1 = 2;
      return;
  }
}

RandomDataOptions TrialOptions(int trial) {
  RandomDataOptions opts;
  // Rotate through several regimes so counterexamples requiring empties,
  // heavy NULLs, or dense matches all get exercised.
  switch (trial % 4) {
    case 0:
      opts.max_rows = 4;
      opts.domain = 2;
      opts.null_prob = 0.3;
      break;
    case 1:
      opts.max_rows = 8;
      opts.domain = 3;
      opts.null_prob = 0.15;
      break;
    case 2:
      opts.max_rows = 3;
      opts.domain = 2;
      opts.null_prob = 0.5;
      opts.empty_prob = 0.3;
      break;
    default:
      opts.max_rows = 10;
      opts.domain = 5;
      opts.null_prob = 0.1;
      opts.empty_prob = 0.0;
      break;
  }
  return opts;
}

}  // namespace

ProbeResult ClassifyTransform(TransformType t, JoinOp a, JoinOp b, int trials,
                              uint64_t seed0, bool tolerant_preds) {
  ProbeResult result;
  if (!TransformWellFormed(t, a, b)) {
    result.validity = Validity::kNotApplicable;
    return result;
  }
  int a0 = 0, a1 = 0, b0 = 0, b1 = 0;
  PatternPredicatePairs(t, &a0, &a1, &b0, &b1);
  for (int trial = 0; trial < trials; ++trial) {
    uint64_t seed = seed0 + static_cast<uint64_t>(trial);
    Rng rng(seed * 0x2545F4914F6CDD1DULL + 1);
    RandomDataOptions opts = TrialOptions(trial);
    Database db = RandomDatabase(rng, 3, opts);
    auto make_pred = [&](int r0, int r1, const char* label) {
      return tolerant_preds
                 ? RandomTolerantJoinPredicate(rng, RelSet::Single(r0),
                                               RelSet::Single(r1), opts,
                                               label)
                 : RandomJoinPredicate(rng, RelSet::Single(r0),
                                       RelSet::Single(r1), opts, label);
    };
    PredRef p_a = a == JoinOp::kCross ? nullptr : make_pred(a0, a1, "pa");
    PredRef p_b = b == JoinOp::kCross ? nullptr : make_pred(b0, b1, "pb");
    PlanPtr lhs = BuildTransformLHS(t, a, b, p_a, p_b);
    PlanPtr rhs = BuildTransformRHS(t, a, b, p_a, p_b);
    Executor el, er;
    Relation rl = CanonicalizeColumnOrder(el.Execute(*lhs, db).value());
    Relation rr = CanonicalizeColumnOrder(er.Execute(*rhs, db).value());
    ++result.trials_run;
    if (!SameMultiset(rl, rr)) {
      result.validity = Validity::kInvalid;
      result.counterexample_seed = seed;
      result.counterexample_detail =
          "LHS:\n" + lhs->ToString() + "RHS:\n" + rhs->ToString() +
          "diff:\n" + ExplainDifference(rl, rr);
      return result;
    }
  }
  result.validity = Validity::kValid;
  return result;
}

std::string RenderEmpiricalMatrix(TransformType t, int trials,
                                  bool tolerant_preds) {
  const JoinOp ops[] = {JoinOp::kCross,    JoinOp::kInner,
                        JoinOp::kLeftSemi, JoinOp::kLeftAnti,
                        JoinOp::kLeftOuter, JoinOp::kFullOuter};
  std::string out = StrFormat("%-10s", TransformTypeName(t));
  for (JoinOp b : ops) out += StrFormat("%7s", JoinOpName(b));
  out += "\n";
  for (JoinOp a : ops) {
    out += StrFormat("%-10s", JoinOpName(a));
    for (JoinOp b : ops) {
      ProbeResult r = ClassifyTransform(t, a, b, trials, 0, tolerant_preds);
      out += StrFormat("%7s", ValidityName(r.validity));
    }
    out += "\n";
  }
  return out;
}

}  // namespace eca
