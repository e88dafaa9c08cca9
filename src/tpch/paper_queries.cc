#include "tpch/paper_queries.h"

#include "exec/executor.h"

namespace eca {

PredRef PredP12(double nu) {
  PredRef p = Predicate::And(
      {Eq(Col(kSupplier, "s_suppkey"), Col(kPartsupp, "ps_suppkey")),
       Gt(Col(kSupplier, "s_acctbal"),
          Scalar::Arith(Scalar::ArithOp::kMul, LitReal(nu),
                        Col(kPartsupp, "ps_supplycost")))});
  return Predicate::WithLabel(std::move(p), "p12");
}

PredRef PredP23() {
  return EquiJoin(kPartsupp, "ps_partkey", kPart, "p_partkey", "p23");
}

PredRef PredP24() {
  PredRef p = Predicate::And(
      {Eq(Col(kPartsupp, "ps_suppkey"), Col(kLineitem, "l_suppkey")),
       Eq(Col(kPartsupp, "ps_partkey"), Col(kLineitem, "l_partkey"))});
  return Predicate::WithLabel(std::move(p), "p24");
}

PredRef PredP45() {
  return EquiJoin(kLineitem, "l_orderkey", kOrders, "o_orderkey", "p45");
}

namespace {

Database MakeDatabase(const TpchData& data, const std::string& part_name,
                      bool with_lineitem, bool with_orders,
                      double price_cutoff) {
  Database db;
  db.Add(data.supplier);
  db.Add(data.partsupp);
  db.Add(FilterPartByName(data.part, part_name));
  if (with_lineitem || with_orders) {
    db.Add(data.lineitem);
  }
  if (with_orders) {
    db.Add(FilterOrdersByTotalPrice(data.orders, price_cutoff));
  }
  return db;
}

}  // namespace

PaperQuery BuildQ1(const TpchData& data, double nu,
                   const std::string& part_name) {
  PaperQuery q;
  q.name = "Q1";
  q.db = MakeDatabase(data, part_name, false, false, 0);
  q.plan = Plan::Join(
      JoinOp::kLeftAnti, PredP12(nu), Plan::Leaf(kSupplier),
      Plan::Join(JoinOp::kLeftAnti, PredP23(), Plan::Leaf(kPartsupp),
                 Plan::Leaf(kPart)));
  return q;
}

PaperQuery BuildQ2(const TpchData& data, double nu,
                   const std::string& part_name) {
  PaperQuery q;
  q.name = "Q2";
  q.db = MakeDatabase(data, part_name, true, false, 0);
  q.plan = Plan::Join(
      JoinOp::kLeftAnti, PredP12(nu), Plan::Leaf(kSupplier),
      Plan::Join(JoinOp::kLeftAnti, PredP23(),
                 Plan::Join(JoinOp::kInner, PredP24(),
                            Plan::Leaf(kPartsupp), Plan::Leaf(kLineitem)),
                 Plan::Leaf(kPart)));
  return q;
}

PaperQuery BuildQ3(const TpchData& data, double nu,
                   const std::string& part_name, double price_cutoff) {
  PaperQuery q;
  q.name = "Q3";
  q.db = MakeDatabase(data, part_name, true, true, price_cutoff);
  q.plan = Plan::Join(
      JoinOp::kLeftAnti, PredP12(nu), Plan::Leaf(kSupplier),
      Plan::Join(
          JoinOp::kLeftAnti, PredP23(),
          Plan::Join(JoinOp::kInner, PredP45(),
                     Plan::Join(JoinOp::kInner, PredP24(),
                                Plan::Leaf(kPartsupp),
                                Plan::Leaf(kLineitem)),
                     Plan::Leaf(kOrders)),
          Plan::Leaf(kPart)));
  return q;
}

double MeasureF12(const Database& db, double nu) {
  PlanPtr anti = Plan::Join(JoinOp::kLeftAnti, PredP12(nu),
                            Plan::Leaf(kSupplier), Plan::Leaf(kPartsupp));
  Executor ex;
  Relation out = ex.Execute(*anti, db).value();
  int64_t total = db.table(kSupplier).NumRows();
  return total == 0 ? 0.0
                    : static_cast<double>(out.NumRows()) /
                          static_cast<double>(total);
}

}  // namespace eca
