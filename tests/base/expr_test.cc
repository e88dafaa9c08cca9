#include "expr/expr.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "tpch/paper_queries.h"

namespace eca {
namespace {

Schema TestSchema() {
  return Schema({{0, "x", DataType::kInt64},
                 {0, "y", DataType::kDouble},
                 {1, "x", DataType::kInt64}});
}

TEST(ScalarTest, ColumnAndConstEval) {
  Schema s = TestSchema();
  Tuple t = {I(3), Value::Real(1.5), I(7)};
  EXPECT_EQ(Col(0, "x")->Eval(s, t).AsInt(), 3);
  EXPECT_EQ(Col(1, "x")->Eval(s, t).AsInt(), 7);
  EXPECT_EQ(Lit(9)->Eval(s, t).AsInt(), 9);
}

TEST(ScalarTest, ArithmeticPropagatesNull) {
  Schema s = TestSchema();
  Tuple t = {N(), Value::Real(1.5), I(7)};
  ScalarRef sum =
      Scalar::Arith(Scalar::ArithOp::kAdd, Col(0, "x"), Col(1, "x"));
  EXPECT_TRUE(sum->Eval(s, t).is_null());
  ScalarRef prod =
      Scalar::Arith(Scalar::ArithOp::kMul, Lit(2), Col(1, "x"));
  EXPECT_DOUBLE_EQ(prod->Eval(s, t).NumericValue(), 14.0);
}

TEST(ScalarTest, DivisionByZeroIsNull) {
  Schema s = TestSchema();
  Tuple t = {I(3), Value::Real(0.0), I(7)};
  ScalarRef div =
      Scalar::Arith(Scalar::ArithOp::kDiv, Col(0, "x"), Col(0, "y"));
  EXPECT_TRUE(div->Eval(s, t).is_null());
}

TEST(PredicateTest, ComparisonNullIntolerance) {
  Schema s = TestSchema();
  PredRef p = Eq(Col(0, "x"), Col(1, "x"));
  EXPECT_TRUE(p->null_intolerant());
  EXPECT_EQ(p->Eval(s, {I(7), Value::Real(0), I(7)}), TriBool::kTrue);
  EXPECT_EQ(p->Eval(s, {I(3), Value::Real(0), I(7)}), TriBool::kFalse);
  EXPECT_EQ(p->Eval(s, {N(), Value::Real(0), I(7)}), TriBool::kUnknown);
  EXPECT_EQ(p->Eval(s, {I(3), Value::Real(0), N()}), TriBool::kUnknown);
}

TEST(PredicateTest, AndOrNotSemantics) {
  Schema s = TestSchema();
  PredRef eq = Eq(Col(0, "x"), Col(1, "x"));
  PredRef gt = Gt(Col(0, "x"), Lit(0));
  PredRef both = Predicate::And({eq, gt});
  EXPECT_EQ(both->Eval(s, {I(7), Value::Real(0), I(7)}), TriBool::kTrue);
  EXPECT_EQ(both->Eval(s, {I(-1), Value::Real(0), I(-1)}), TriBool::kFalse);
  // NULL x: eq unknown, gt unknown -> unknown, never true.
  EXPECT_EQ(both->Eval(s, {N(), Value::Real(0), I(7)}), TriBool::kUnknown);

  PredRef either = Predicate::Or({eq, gt});
  EXPECT_EQ(either->Eval(s, {I(3), Value::Real(0), I(7)}), TriBool::kTrue);
  EXPECT_EQ(either->Eval(s, {N(), Value::Real(0), I(7)}), TriBool::kUnknown);

  PredRef neg = Predicate::Not(eq);
  EXPECT_EQ(neg->Eval(s, {I(3), Value::Real(0), I(7)}), TriBool::kTrue);
  EXPECT_EQ(neg->Eval(s, {N(), Value::Real(0), I(7)}), TriBool::kUnknown);
}

TEST(PredicateTest, IsNullIsNullTolerant) {
  Schema s = TestSchema();
  PredRef p = Predicate::IsNull(Col(0, "x"));
  EXPECT_FALSE(p->null_intolerant());
  EXPECT_EQ(p->Eval(s, {N(), Value::Real(0), I(7)}), TriBool::kTrue);
  EXPECT_EQ(p->Eval(s, {I(1), Value::Real(0), I(7)}), TriBool::kFalse);
}

TEST(PredicateTest, ConstBool) {
  Schema s = TestSchema();
  EXPECT_EQ(Predicate::ConstBool(false)->Eval(s, {I(1), Value::Real(0), I(1)}),
            TriBool::kFalse);
  EXPECT_TRUE(Predicate::ConstBool(false)->null_intolerant());
  EXPECT_FALSE(Predicate::ConstBool(true)->null_intolerant());
}

TEST(PredicateTest, RefsAndLabels) {
  PredRef p = EquiJoin(0, "x", 1, "x", "p01");
  EXPECT_EQ(p->refs(), RelSet::FirstN(2));
  EXPECT_EQ(p->DisplayName(), "p01");
  EXPECT_EQ(p->ToString(), "R0.x = R1.x");
}

TEST(CompiledPredicateTest, MatchesInterpretedEval) {
  Schema s = TestSchema();
  ScalarRef expr =
      Scalar::Arith(Scalar::ArithOp::kMul, LitReal(0.5), Col(1, "x"));
  PredRef p = Predicate::And(
      {Gt(Col(0, "x"), expr), Predicate::Not(Eq(Col(0, "x"), Lit(99)))});
  CompiledPredicate compiled(p, s);
  std::vector<Tuple> tuples = {
      {I(7), Value::Real(0), I(7)},  {I(3), Value::Real(0), I(7)},
      {N(), Value::Real(0), I(7)},   {I(99), Value::Real(0), I(7)},
      {I(4), Value::Real(0), N()},
  };
  for (const Tuple& t : tuples) {
    EXPECT_EQ(compiled.Eval(t), p->Eval(s, t));
  }
}

// Pair evaluation ------------------------------------------------------------

// Columns of three relations; a random split puts any prefix on the left.
Schema PairSchema() {
  return Schema({{0, "a", DataType::kInt64},
                 {0, "b", DataType::kDouble},
                 {1, "c", DataType::kInt64},
                 {1, "s", DataType::kString},
                 {2, "d", DataType::kInt64},
                 {2, "t", DataType::kString}});
}

class RandomPredicates {
 public:
  explicit RandomPredicates(uint64_t seed) : rng_(seed) {}

  PredRef Pred(int depth) {
    switch (rng_.Uniform(0, depth > 0 ? 7 : 3)) {
      case 0:
      case 1:
        return Compare(Numeric(depth), Numeric(depth));
      case 2:
        return Compare(String(), String());
      case 3:
        return rng_.Bernoulli(0.5) ? Predicate::IsNull(Numeric(depth))
                                   : Predicate::IsNull(String());
      case 4:
        return Predicate::AllNull(RandomRels());
      case 5:
        return Predicate::And({Pred(depth - 1), Pred(depth - 1)});
      case 6:
        return Predicate::Or({Pred(depth - 1), Pred(depth - 1)});
      default:
        return Predicate::Not(Pred(depth - 1));
    }
  }

  Tuple Row() {
    Tuple t;
    t.push_back(Maybe(I(rng_.Uniform(-2, 2))));
    const double half = 0.5 * static_cast<double>(rng_.Uniform(-4, 4));
    t.push_back(Maybe(Value::Real(half)));
    t.push_back(Maybe(I(rng_.Uniform(-2, 2))));
    t.push_back(Maybe(Str()));
    t.push_back(Maybe(I(rng_.Uniform(-2, 2))));
    t.push_back(Maybe(Str()));
    return t;
  }

  int64_t Uniform(int64_t lo, int64_t hi) { return rng_.Uniform(lo, hi); }

 private:
  PredRef Compare(ScalarRef l, ScalarRef r) {
    return rng_.Bernoulli(0.5) ? Eq(std::move(l), std::move(r))
                               : Lt(std::move(l), std::move(r));
  }
  ScalarRef Numeric(int depth) {
    struct ColRef {
      int rel_id;
      const char* name;
    };
    static const ColRef kCols[] = {{0, "a"}, {0, "b"}, {1, "c"}, {2, "d"}};
    int64_t pick = rng_.Uniform(0, depth > 0 ? 5 : 4);
    if (pick < 4) return Col(kCols[pick].rel_id, kCols[pick].name);
    if (pick == 4) {
      return rng_.Bernoulli(0.5) ? Lit(rng_.Uniform(-2, 2)) : LitReal(0.5);
    }
    auto op = static_cast<Scalar::ArithOp>(rng_.Uniform(0, 3));
    return Scalar::Arith(op, Numeric(depth - 1), Numeric(depth - 1));
  }
  ScalarRef String() {
    switch (rng_.Uniform(0, 2)) {
      case 0:
        return Col(1, "s");
      case 1:
        return Col(2, "t");
      default:
        return LitStr(Str().AsStr());
    }
  }
  RelSet RandomRels() {
    RelSet s = RelSet::Single(static_cast<int>(rng_.Uniform(0, 2)));
    if (rng_.Bernoulli(0.5)) {
      s = s.Union(RelSet::Single(static_cast<int>(rng_.Uniform(0, 2))));
    }
    return s;
  }
  Value Str() {
    static const char* const kStrs[] = {"", "a", "b", "ab"};
    return Value::Str(kStrs[rng_.Uniform(0, 3)]);
  }
  Value Maybe(Value v) {
    if (!rng_.Bernoulli(0.25)) return v;
    return Value::Null(v.type());
  }

  Rng rng_;
};

TEST(CompiledPredicateTest, PairEvalMatchesConcatenatedRow) {
  const Schema schema = PairSchema();
  const int width = schema.NumColumns();
  RandomPredicates gen(20260519);
  int64_t trues = 0, checks = 0;
  for (int p = 0; p < 400; ++p) {
    PredRef pred = gen.Pred(3);
    CompiledPredicate compiled(pred, schema);
    for (int r = 0; r < 40; ++r) {
      const Tuple row = gen.Row();
      // Split anywhere, including an empty left or right side.
      const int64_t split = gen.Uniform(0, width);
      const Tuple left(row.begin(), row.begin() + split);
      const Tuple right(row.begin() + split, row.end());
      const bool want = compiled.EvalTrue(ConcatTuples(left, right));
      ASSERT_EQ(compiled.EvalTrue(left, right), want)
          << pred->ToString() << " split " << split;
      ASSERT_EQ(want, IsTrue(pred->Eval(schema, row))) << pred->ToString();
      trues += want ? 1 : 0;
      ++checks;
    }
  }
  // Both verdicts occur often enough for the comparison to mean something.
  EXPECT_GT(trues, checks / 10);
  EXPECT_LT(trues, checks * 9 / 10);
}

// The cross-sample estimate the cost model now computes with pair
// evaluation, recomputed over concatenated sample rows.
double ConcatSampleSelectivity(const BaseStats& stats, const PredRef& pred) {
  std::vector<const Relation*> rels;
  for (int id : pred->refs()) {
    rels.push_back(&stats.samples[static_cast<size_t>(id)]);
  }
  EXPECT_EQ(rels.size(), 2u);
  CompiledPredicate compiled(pred, rels[0]->schema().Concat(rels[1]->schema()));
  int64_t trues = 0, total = 0;
  for (const Tuple& a : rels[0]->rows()) {
    for (const Tuple& b : rels[1]->rows()) {
      ++total;
      if (compiled.EvalTrue(ConcatTuples(a, b))) ++trues;
    }
  }
  return static_cast<double>(trues) / static_cast<double>(total);
}

TEST(CompiledPredicateTest, SampleSelectivityUnchangedOnPaperPredicates) {
  const TpchData data = GenerateTpch(TpchScale::OfSF(0.002), 7);
  const PaperQuery q3 = BuildQ3(data, 0);
  const BaseStats stats = BaseStats::Build(q3.db);
  const CostModel model = CostModel::FromDatabase(q3.db);
  std::vector<PredRef> preds = {PredP23(), PredP24(), PredP45()};
  for (double nu : {0.0, 5.0, 50.0, 1000.0}) preds.push_back(PredP12(nu));
  int nonzero = 0;
  for (const PredRef& pred : preds) {
    const double want = ConcatSampleSelectivity(stats, pred);
    const double got = model.SampleSelectivity(*pred);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << pred->ToString() << ": " << got << " vs " << want;
    nonzero += want > 0 ? 1 : 0;
  }
  EXPECT_GT(nonzero, 0);
}

}  // namespace
}  // namespace eca
