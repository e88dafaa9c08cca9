#include "sqlgen/sqlgen.h"

#include "common/str_util.h"

namespace eca {

namespace {

// Alias for a column in generated SQL: r<rel>_<name>.
std::string ColAlias(int rel_id, const std::string& name) {
  return StrCat("r", std::to_string(rel_id), "_", name);
}

std::string Indent(const std::string& s, int n) {
  std::string pad(static_cast<size_t>(n), ' ');
  std::string out = pad;
  for (char c : s) {
    out += c;
    if (c == '\n') out += pad;
  }
  return out;
}

class SqlGenerator {
 public:
  SqlGenerator(const std::vector<Schema>& base, const SqlOptions& options)
      : base_(base), options_(options) {}

  std::string Render(const Plan& plan) { return RenderNode(plan, 0).sql; }

 private:
  struct Rendered {
    std::string sql;      // a complete SELECT statement
    Schema schema;        // output columns (rel_id + name per column)
  };

  std::string TableName(int rel_id) const {
    if (rel_id >= 0 &&
        rel_id < static_cast<int>(options_.table_names.size())) {
      return options_.table_names[static_cast<size_t>(rel_id)];
    }
    return StrCat("t", std::to_string(rel_id));
  }

  static std::string SelectList(const Schema& schema) {
    std::vector<std::string> cols;
    for (const Column& c : schema.columns()) {
      cols.push_back(ColAlias(c.rel_id, c.name));
    }
    return StrJoin(cols, ", ");
  }

  std::string RenderScalar(const Scalar& s) const {
    switch (s.kind()) {
      case Scalar::Kind::kColumn:
        return ColAlias(s.rel_id(), s.column_name());
      case Scalar::Kind::kConst:
        return s.const_value().ToString();
      case Scalar::Kind::kArith: {
        const char* op = "+";
        switch (s.arith_op()) {
          case Scalar::ArithOp::kAdd:
            op = "+";
            break;
          case Scalar::ArithOp::kSub:
            op = "-";
            break;
          case Scalar::ArithOp::kMul:
            op = "*";
            break;
          case Scalar::ArithOp::kDiv:
            op = "/";
            break;
        }
        return StrCat("(", RenderScalar(*s.left()), " ", op, " ",
                      RenderScalar(*s.right()), ")");
      }
    }
    return "NULL";
  }

  std::string RenderPred(const Predicate& p, const Schema& schema) const {
    switch (p.kind()) {
      case Predicate::Kind::kCompare: {
        const char* op = "=";
        switch (p.cmp_op()) {
          case Predicate::CmpOp::kEq:
            op = "=";
            break;
          case Predicate::CmpOp::kNe:
            op = "<>";
            break;
          case Predicate::CmpOp::kLt:
            op = "<";
            break;
          case Predicate::CmpOp::kLe:
            op = "<=";
            break;
          case Predicate::CmpOp::kGt:
            op = ">";
            break;
          case Predicate::CmpOp::kGe:
            op = ">=";
            break;
        }
        return RenderScalar(*p.scalar_left()) + " " + op + " " +
               RenderScalar(*p.scalar_right());
      }
      case Predicate::Kind::kAnd: {
        std::vector<std::string> parts;
        for (const PredRef& c : p.children()) {
          parts.push_back(RenderPred(*c, schema));
        }
        return "(" + StrJoin(parts, " AND ") + ")";
      }
      case Predicate::Kind::kOr: {
        std::vector<std::string> parts;
        for (const PredRef& c : p.children()) {
          parts.push_back(RenderPred(*c, schema));
        }
        return "(" + StrJoin(parts, " OR ") + ")";
      }
      case Predicate::Kind::kNot:
        return "NOT (" + RenderPred(*p.children()[0], schema) + ")";
      case Predicate::Kind::kConstBool:
        return p.const_bool() ? "TRUE" : "FALSE";
      case Predicate::Kind::kIsNull:
        return RenderScalar(*p.scalar_left()) + " IS NULL";
      case Predicate::Kind::kAllNullBlock: {
        std::vector<std::string> parts;
        for (int c : schema.ColumnsOf(p.all_null_rels())) {
          const Column& col = schema.column(c);
          parts.push_back(ColAlias(col.rel_id, col.name) + " IS NULL");
        }
        return parts.empty() ? "TRUE" : "(" + StrJoin(parts, " AND ") + ")";
      }
    }
    return "TRUE";
  }

  Rendered RenderLeaf(const Plan& plan) const {
    const Schema& schema = base_[static_cast<size_t>(plan.rel_id())];
    std::vector<std::string> cols;
    for (const Column& c : schema.columns()) {
      cols.push_back(c.name + " AS " + ColAlias(c.rel_id, c.name));
    }
    return {"SELECT " + StrJoin(cols, ", ") + " FROM " +
                TableName(plan.rel_id()),
            schema};
  }

  Rendered RenderJoin(const Plan& plan, int depth) {
    Rendered left = RenderNode(*plan.left(), depth + 1);
    Rendered right = RenderNode(*plan.right(), depth + 1);
    Schema joint = left.schema.Concat(right.schema);
    std::string on =
        plan.pred() ? RenderPred(*plan.pred(), joint) : "TRUE";
    auto wrap = [&](const std::string& s) {
      return "(\n" + Indent(s, 2) + "\n)";
    };
    switch (plan.op()) {
      case JoinOp::kCross:
      case JoinOp::kInner:
      case JoinOp::kLeftOuter:
      case JoinOp::kRightOuter:
      case JoinOp::kFullOuter: {
        const char* kw = "JOIN";
        if (plan.op() == JoinOp::kCross) kw = "CROSS JOIN";
        if (plan.op() == JoinOp::kLeftOuter) kw = "LEFT JOIN";
        if (plan.op() == JoinOp::kRightOuter) kw = "RIGHT JOIN";
        if (plan.op() == JoinOp::kFullOuter) kw = "FULL JOIN";
        std::string sql = "SELECT " + SelectList(joint) + "\nFROM " +
                          wrap(left.sql) + " AS lhs\n" + kw + " " +
                          wrap(right.sql) + " AS rhs";
        if (plan.op() != JoinOp::kCross) sql += "\nON " + on;
        return {std::move(sql), std::move(joint)};
      }
      case JoinOp::kLeftSemi:
      case JoinOp::kLeftAnti: {
        const char* kw =
            plan.op() == JoinOp::kLeftSemi ? "EXISTS" : "NOT EXISTS";
        std::string sql = "SELECT " + SelectList(left.schema) + "\nFROM " +
                          wrap(left.sql) + " AS lhs\nWHERE " + kw +
                          " (\n  SELECT 1 FROM " + wrap(Indent(right.sql, 2)) +
                          " AS rhs\n  WHERE " + on + "\n)";
        return {std::move(sql), std::move(left.schema)};
      }
      case JoinOp::kRightSemi:
      case JoinOp::kRightAnti: {
        const char* kw =
            plan.op() == JoinOp::kRightSemi ? "EXISTS" : "NOT EXISTS";
        std::string sql = "SELECT " + SelectList(right.schema) + "\nFROM " +
                          wrap(right.sql) + " AS rhs\nWHERE " + kw +
                          " (\n  SELECT 1 FROM " + wrap(Indent(left.sql, 2)) +
                          " AS lhs\n  WHERE " + on + "\n)";
        return {std::move(sql), std::move(right.schema)};
      }
    }
    return {};
  }

  // The paper's window-function best-match (Figure 7(b)): sort so that a
  // dominating tuple immediately precedes the tuples it dominates, carry
  // the predecessor's values with LAG, and keep a row iff it differs from
  // its predecessor on some non-null attribute.
  Rendered RenderBeta(Rendered child) const {
    std::string order;
    {
      std::vector<std::string> keys;
      for (const Column& c : child.schema.columns()) {
        keys.push_back(ColAlias(c.rel_id, c.name) + " NULLS LAST");
      }
      order = StrJoin(keys, ", ");
    }
    std::vector<std::string> inner_cols, keep_conds;
    for (const Column& c : child.schema.columns()) {
      std::string a = ColAlias(c.rel_id, c.name);
      inner_cols.push_back("LAG(" + a + ") OVER (ORDER BY " + order +
                           ") AS prev_" + a);
      keep_conds.push_back("(" + a + " IS NOT NULL AND (prev_" + a +
                           " IS NULL OR " + a + " <> prev_" + a + "))");
    }
    std::string sql =
        "SELECT " + SelectList(child.schema) + "\nFROM (\n" +
        Indent("SELECT " + SelectList(child.schema) + ", " +
                   StrJoin(inner_cols, ", ") +
                   ",\n       ROW_NUMBER() OVER (ORDER BY " + order +
                   ") AS rn\nFROM (\n" + Indent(child.sql, 2) + "\n) AS b",
               2) +
        "\n) AS w\nWHERE rn = 1 OR " + StrJoin(keep_conds, " OR ");
    return {std::move(sql), std::move(child.schema)};
  }

  Rendered RenderComp(const Plan& plan, int depth) {
    Rendered child = RenderNode(*plan.child(), depth + 1);
    const CompOp& comp = plan.comp();
    switch (comp.kind) {
      case CompOp::Kind::kProject: {
        Schema projected = child.schema.Project(comp.attrs);
        std::string sql = "SELECT " + SelectList(projected) + "\nFROM (\n" +
                          Indent(child.sql, 2) + "\n) AS p";
        return {std::move(sql), std::move(projected)};
      }
      case CompOp::Kind::kGamma: {
        std::vector<std::string> conds;
        for (int c : child.schema.ColumnsOf(comp.attrs)) {
          const Column& col = child.schema.column(c);
          conds.push_back(ColAlias(col.rel_id, col.name) + " IS NULL");
        }
        std::string sql = "SELECT " + SelectList(child.schema) +
                          "\nFROM (\n" + Indent(child.sql, 2) +
                          "\n) AS g\nWHERE " + StrJoin(conds, " AND ");
        return {std::move(sql), std::move(child.schema)};
      }
      case CompOp::Kind::kLambda: {
        std::string pred = RenderPred(*comp.pred, child.schema);
        std::vector<std::string> cols;
        for (const Column& c : child.schema.columns()) {
          std::string a = ColAlias(c.rel_id, c.name);
          if (comp.attrs.Contains(c.rel_id)) {
            cols.push_back("CASE WHEN " + pred + " THEN " + a + " END AS " +
                           a);
          } else {
            cols.push_back(a);
          }
        }
        std::string sql = "SELECT " + StrJoin(cols, ", ") + "\nFROM (\n" +
                          Indent(child.sql, 2) + "\n) AS l";
        return {std::move(sql), std::move(child.schema)};
      }
      case CompOp::Kind::kGammaStar: {
        // Nullify everything outside `keep` unless the gamma test holds,
        // then best-match.
        std::vector<std::string> test;
        for (int c : child.schema.ColumnsOf(comp.attrs)) {
          const Column& col = child.schema.column(c);
          test.push_back(ColAlias(col.rel_id, col.name) + " IS NULL");
        }
        std::string gamma_test = "(" + StrJoin(test, " AND ") + ")";
        std::vector<std::string> cols;
        for (const Column& c : child.schema.columns()) {
          std::string a = ColAlias(c.rel_id, c.name);
          if (!comp.keep.Contains(c.rel_id)) {
            cols.push_back("CASE WHEN " + gamma_test + " THEN " + a +
                           " END AS " + a);
          } else {
            cols.push_back(a);
          }
        }
        Rendered modified{"SELECT " + StrJoin(cols, ", ") + "\nFROM (\n" +
                              Indent(child.sql, 2) + "\n) AS gs",
                          child.schema};
        return RenderBeta(std::move(modified));
      }
      case CompOp::Kind::kBeta:
        return RenderBeta(std::move(child));
    }
    return {};
  }

  Rendered RenderNode(const Plan& plan, int depth) {
    switch (plan.kind()) {
      case Plan::Kind::kLeaf:
        return RenderLeaf(plan);
      case Plan::Kind::kJoin:
        return RenderJoin(plan, depth);
      case Plan::Kind::kComp:
        return RenderComp(plan, depth);
    }
    return {};
  }

  const std::vector<Schema>& base_;
  const SqlOptions& options_;
};

}  // namespace

std::string PlanToSql(const Plan& plan,
                      const std::vector<Schema>& base_schemas,
                      const SqlOptions& options) {
  SqlGenerator gen(base_schemas, options);
  return gen.Render(plan) + ";";
}

}  // namespace eca
