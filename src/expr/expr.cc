#include "expr/expr.h"

#include "common/str_util.h"

namespace eca {

// ---------------------------------------------------------------------------
// Scalar
// ---------------------------------------------------------------------------

ScalarRef Scalar::Column(int rel_id, std::string name) {
  auto s = std::shared_ptr<Scalar>(new Scalar());
  s->kind_ = Kind::kColumn;
  s->rel_id_ = rel_id;
  s->column_name_ = std::move(name);
  s->refs_ = RelSet::Single(rel_id);
  return s;
}

ScalarRef Scalar::Const(Value v) {
  auto s = std::shared_ptr<Scalar>(new Scalar());
  s->kind_ = Kind::kConst;
  s->const_value_ = std::move(v);
  return s;
}

ScalarRef Scalar::Arith(ArithOp op, ScalarRef l, ScalarRef r) {
  ECA_CHECK(l != nullptr && r != nullptr);
  auto s = std::shared_ptr<Scalar>(new Scalar());
  s->kind_ = Kind::kArith;
  s->arith_op_ = op;
  s->refs_ = l->refs().Union(r->refs());
  s->left_ = std::move(l);
  s->right_ = std::move(r);
  return s;
}

namespace {

Value ApplyArith(Scalar::ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null(DataType::kDouble);
  double x = a.NumericValue(), y = b.NumericValue();
  double r = 0;
  switch (op) {
    case Scalar::ArithOp::kAdd:
      r = x + y;
      break;
    case Scalar::ArithOp::kSub:
      r = x - y;
      break;
    case Scalar::ArithOp::kMul:
      r = x * y;
      break;
    case Scalar::ArithOp::kDiv:
      if (y == 0) return Value::Null(DataType::kDouble);
      r = x / y;
      break;
  }
  return Value::Real(r);
}

const char* ArithOpSymbol(Scalar::ArithOp op) {
  switch (op) {
    case Scalar::ArithOp::kAdd:
      return "+";
    case Scalar::ArithOp::kSub:
      return "-";
    case Scalar::ArithOp::kMul:
      return "*";
    case Scalar::ArithOp::kDiv:
      return "/";
  }
  return "?";
}

const char* CmpOpSymbol(Predicate::CmpOp op) {
  switch (op) {
    case Predicate::CmpOp::kEq:
      return "=";
    case Predicate::CmpOp::kNe:
      return "<>";
    case Predicate::CmpOp::kLt:
      return "<";
    case Predicate::CmpOp::kLe:
      return "<=";
    case Predicate::CmpOp::kGt:
      return ">";
    case Predicate::CmpOp::kGe:
      return ">=";
  }
  return "?";
}

TriBool ApplyCompare(Predicate::CmpOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  int c = a.Compare(b);
  switch (op) {
    case Predicate::CmpOp::kEq:
      return FromBool(c == 0);
    case Predicate::CmpOp::kNe:
      return FromBool(c != 0);
    case Predicate::CmpOp::kLt:
      return FromBool(c < 0);
    case Predicate::CmpOp::kLe:
      return FromBool(c <= 0);
    case Predicate::CmpOp::kGt:
      return FromBool(c > 0);
    case Predicate::CmpOp::kGe:
      return FromBool(c >= 0);
  }
  return TriBool::kUnknown;
}

}  // namespace

Value Scalar::Eval(const Schema& schema, const Tuple& tuple) const {
  switch (kind_) {
    case Kind::kColumn: {
      int idx = schema.FindColumn(rel_id_, column_name_);
      ECA_CHECK_MSG(idx >= 0, ("unresolved column " + ToString()).c_str());
      return tuple[static_cast<size_t>(idx)];
    }
    case Kind::kConst:
      return const_value_;
    case Kind::kArith:
      return ApplyArith(arith_op_, left_->Eval(schema, tuple),
                        right_->Eval(schema, tuple));
  }
  return Value::Null();
}

std::string Scalar::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return StrCat("R", std::to_string(rel_id_), ".", column_name_);
    case Kind::kConst:
      return const_value_.ToString();
    case Kind::kArith:
      return StrCat("(", left_->ToString(), " ", ArithOpSymbol(arith_op_), " ",
                    right_->ToString(), ")");
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Predicate
// ---------------------------------------------------------------------------

PredRef Predicate::Compare(CmpOp op, ScalarRef l, ScalarRef r) {
  ECA_CHECK(l != nullptr && r != nullptr);
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kCompare;
  p->cmp_op_ = op;
  p->refs_ = l->refs().Union(r->refs());
  p->scalar_left_ = std::move(l);
  p->scalar_right_ = std::move(r);
  p->null_intolerant_ = true;
  return p;
}

PredRef Predicate::And(std::vector<PredRef> children) {
  ECA_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAnd;
  for (const PredRef& c : children) {
    ECA_CHECK(c != nullptr);
    p->refs_ = p->refs_.Union(c->refs());
    p->null_intolerant_ = p->null_intolerant_ && c->null_intolerant();
  }
  p->children_ = std::move(children);
  return p;
}

PredRef Predicate::Or(std::vector<PredRef> children) {
  ECA_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kOr;
  for (const PredRef& c : children) {
    ECA_CHECK(c != nullptr);
    p->refs_ = p->refs_.Union(c->refs());
    p->null_intolerant_ = p->null_intolerant_ && c->null_intolerant();
  }
  p->children_ = std::move(children);
  return p;
}

PredRef Predicate::Not(PredRef child) {
  ECA_CHECK(child != nullptr);
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kNot;
  p->refs_ = child->refs();
  // NOT(unknown) = unknown, so NOT of a null-intolerant predicate is still
  // never true on null inputs only if the child is never *false* on them;
  // conservatively classify NOT as null-intolerant (comparisons yield
  // kUnknown on nulls and NOT preserves kUnknown).
  p->null_intolerant_ = child->null_intolerant();
  p->children_.push_back(std::move(child));
  return p;
}

PredRef Predicate::ConstBool(bool b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kConstBool;
  p->const_bool_ = b;
  // FALSE is vacuously null-intolerant; TRUE is null-tolerant (it is true
  // regardless of nulls).
  p->null_intolerant_ = !b;
  return p;
}

PredRef Predicate::IsNull(ScalarRef s) {
  ECA_CHECK(s != nullptr);
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kIsNull;
  p->refs_ = s->refs();
  p->scalar_left_ = std::move(s);
  p->null_intolerant_ = false;
  return p;
}

PredRef Predicate::AllNull(RelSet rels) {
  ECA_CHECK(!rels.Empty());
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAllNullBlock;
  p->all_null_rels_ = rels;
  // The tested relations count as referenced: the rewrite layer's
  // containment and projection-survival checks must keep these attributes
  // visible wherever the predicate is evaluated (a conservative choice —
  // the test only observes nullness, but losing the columns would change
  // its meaning silently).
  p->refs_ = rels;
  p->null_intolerant_ = false;
  return p;
}

PredRef Predicate::WithLabel(PredRef src, std::string label) {
  ECA_CHECK(src != nullptr);
  auto p = std::shared_ptr<Predicate>(new Predicate(*src));
  p->label_ = std::move(label);
  return p;
}

TriBool Predicate::Eval(const Schema& schema, const Tuple& tuple) const {
  switch (kind_) {
    case Kind::kCompare:
      return ApplyCompare(cmp_op_, scalar_left_->Eval(schema, tuple),
                          scalar_right_->Eval(schema, tuple));
    case Kind::kAnd: {
      TriBool acc = TriBool::kTrue;
      for (const PredRef& c : children_) {
        acc = TriAnd(acc, c->Eval(schema, tuple));
        if (acc == TriBool::kFalse) break;
      }
      return acc;
    }
    case Kind::kOr: {
      TriBool acc = TriBool::kFalse;
      for (const PredRef& c : children_) {
        acc = TriOr(acc, c->Eval(schema, tuple));
        if (acc == TriBool::kTrue) break;
      }
      return acc;
    }
    case Kind::kNot:
      return TriNot(children_[0]->Eval(schema, tuple));
    case Kind::kConstBool:
      return FromBool(const_bool_);
    case Kind::kIsNull:
      return FromBool(scalar_left_->Eval(schema, tuple).is_null());
    case Kind::kAllNullBlock: {
      for (int c : schema.ColumnsOf(all_null_rels_)) {
        if (!tuple[static_cast<size_t>(c)].is_null()) {
          return TriBool::kFalse;
        }
      }
      return TriBool::kTrue;
    }
  }
  return TriBool::kUnknown;
}

std::string Predicate::DisplayName() const {
  return label_.empty() ? ToString() : label_;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kCompare:
      return scalar_left_->ToString() + " " + CmpOpSymbol(cmp_op_) + " " +
             scalar_right_->ToString();
    case Kind::kAnd: {
      std::vector<std::string> parts;
      parts.reserve(children_.size());
      for (const PredRef& c : children_) parts.push_back(c->ToString());
      return StrCat("(", StrJoin(parts, " AND "), ")");
    }
    case Kind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children_.size());
      for (const PredRef& c : children_) parts.push_back(c->ToString());
      return StrCat("(", StrJoin(parts, " OR "), ")");
    }
    case Kind::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
    case Kind::kConstBool:
      return const_bool_ ? "TRUE" : "FALSE";
    case Kind::kIsNull:
      return scalar_left_->ToString() + " IS NULL";
    case Kind::kAllNullBlock:
      return "ALLNULL" + all_null_rels_.ToString();
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Structural fingerprints
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * kFnvPrime;
}

uint64_t MixStr(uint64_t h, const std::string& s) {
  for (char c : s) h = Mix(h, static_cast<uint64_t>(c));
  return Mix(h, s.size());
}

}  // namespace

uint64_t StructuralFingerprint(const Scalar& s) {
  uint64_t h = Mix(kFnvOffset, static_cast<uint64_t>(s.kind()));
  switch (s.kind()) {
    case Scalar::Kind::kColumn:
      h = Mix(h, static_cast<uint64_t>(s.rel_id()));
      h = MixStr(h, s.column_name());
      break;
    case Scalar::Kind::kConst:
      h = Mix(h, s.const_value().is_null() ? 0x517cc1b7ULL
                                           : s.const_value().Hash());
      h = Mix(h, static_cast<uint64_t>(s.const_value().type()));
      break;
    case Scalar::Kind::kArith:
      h = Mix(h, static_cast<uint64_t>(s.arith_op()));
      h = Mix(h, StructuralFingerprint(*s.left()));
      h = Mix(h, StructuralFingerprint(*s.right()));
      break;
  }
  return h;
}

uint64_t StructuralFingerprint(const Predicate& p) {
  uint64_t h = Mix(kFnvOffset, static_cast<uint64_t>(p.kind()) + 0x51ULL);
  switch (p.kind()) {
    case Predicate::Kind::kCompare:
      h = Mix(h, static_cast<uint64_t>(p.cmp_op()));
      h = Mix(h, StructuralFingerprint(*p.scalar_left()));
      h = Mix(h, StructuralFingerprint(*p.scalar_right()));
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot:
      for (const PredRef& c : p.children()) {
        h = Mix(h, StructuralFingerprint(*c));
      }
      h = Mix(h, p.children().size());
      break;
    case Predicate::Kind::kConstBool:
      h = Mix(h, p.const_bool() ? 1 : 2);
      break;
    case Predicate::Kind::kIsNull:
      h = Mix(h, StructuralFingerprint(*p.scalar_left()));
      break;
    case Predicate::Kind::kAllNullBlock:
      for (int id : p.all_null_rels()) h = Mix(h, static_cast<uint64_t>(id));
      break;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

ScalarRef Col(int rel_id, std::string name) {
  return Scalar::Column(rel_id, std::move(name));
}
ScalarRef Lit(int64_t v) { return Scalar::Const(Value::Int(v)); }
ScalarRef LitReal(double v) { return Scalar::Const(Value::Real(v)); }
ScalarRef LitStr(std::string v) {
  return Scalar::Const(Value::Str(std::move(v)));
}

PredRef Eq(ScalarRef l, ScalarRef r) {
  return Predicate::Compare(Predicate::CmpOp::kEq, std::move(l), std::move(r));
}
PredRef Lt(ScalarRef l, ScalarRef r) {
  return Predicate::Compare(Predicate::CmpOp::kLt, std::move(l), std::move(r));
}
PredRef Gt(ScalarRef l, ScalarRef r) {
  return Predicate::Compare(Predicate::CmpOp::kGt, std::move(l), std::move(r));
}

PredRef EquiJoin(int rel_a, const std::string& col_a, int rel_b,
                 const std::string& col_b, std::string label) {
  PredRef p = Eq(Col(rel_a, col_a), Col(rel_b, col_b));
  if (!label.empty()) p = Predicate::WithLabel(p, std::move(label));
  return p;
}

// ---------------------------------------------------------------------------
// CompiledPredicate
// ---------------------------------------------------------------------------

CompiledPredicate::CompiledPredicate(const PredRef& pred,
                                     const Schema& schema) {
  ECA_CHECK(pred != nullptr);
  root_ = CompilePred(*pred, schema);
}

int CompiledPredicate::CompileScalar(const Scalar& s, const Schema& schema) {
  ScalarNode node;
  node.kind = s.kind();
  switch (s.kind()) {
    case Scalar::Kind::kColumn:
      node.column_index = schema.FindColumn(s.rel_id(), s.column_name());
      ECA_CHECK_MSG(node.column_index >= 0, s.ToString().c_str());
      break;
    case Scalar::Kind::kConst:
      node.const_value = s.const_value();
      break;
    case Scalar::Kind::kArith:
      node.arith_op = s.arith_op();
      node.l = CompileScalar(*s.left(), schema);
      node.r = CompileScalar(*s.right(), schema);
      break;
  }
  scalars_.push_back(std::move(node));
  return static_cast<int>(scalars_.size()) - 1;
}

int CompiledPredicate::CompilePred(const Predicate& p, const Schema& schema) {
  Node node;
  node.kind = p.kind();
  node.cmp_op = p.cmp_op();
  node.const_bool = p.const_bool();
  switch (p.kind()) {
    case Predicate::Kind::kCompare:
      node.scalar_l = CompileScalar(*p.scalar_left(), schema);
      node.scalar_r = CompileScalar(*p.scalar_right(), schema);
      break;
    case Predicate::Kind::kIsNull:
      node.scalar_l = CompileScalar(*p.scalar_left(), schema);
      break;
    case Predicate::Kind::kAllNullBlock:
      node.all_null_columns = schema.ColumnsOf(p.all_null_rels());
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot:
      for (const PredRef& c : p.children()) {
        node.children.push_back(CompilePred(*c, schema));
      }
      break;
    case Predicate::Kind::kConstBool:
      break;
  }
  preds_.push_back(std::move(node));
  return static_cast<int>(preds_.size()) - 1;
}

namespace {

// The row `left ++ right`, read in place.
struct RowPair {
  const Tuple& left;
  const Tuple& right;
  const Value& operator[](size_t i) const {
    return i < left.size() ? left[i] : right[i - left.size()];
  }
};

}  // namespace

template <typename Row>
const Value& CompiledPredicate::EvalScalar(int idx, const Row& row,
                                           Value* tmp) const {
  const ScalarNode& n = scalars_[static_cast<size_t>(idx)];
  switch (n.kind) {
    case Scalar::Kind::kColumn:
      return row[static_cast<size_t>(n.column_index)];
    case Scalar::Kind::kConst:
      return n.const_value;
    case Scalar::Kind::kArith: {
      Value l, r;
      *tmp = ApplyArith(n.arith_op, EvalScalar(n.l, row, &l),
                        EvalScalar(n.r, row, &r));
      return *tmp;
    }
  }
  *tmp = Value::Null();
  return *tmp;
}

template <typename Row>
TriBool CompiledPredicate::EvalNode(int idx, const Row& row) const {
  const Node& n = preds_[static_cast<size_t>(idx)];
  switch (n.kind) {
    case Predicate::Kind::kCompare: {
      Value l, r;
      return ApplyCompare(n.cmp_op, EvalScalar(n.scalar_l, row, &l),
                          EvalScalar(n.scalar_r, row, &r));
    }
    case Predicate::Kind::kAnd: {
      TriBool acc = TriBool::kTrue;
      for (int c : n.children) {
        acc = TriAnd(acc, EvalNode(c, row));
        if (acc == TriBool::kFalse) break;
      }
      return acc;
    }
    case Predicate::Kind::kOr: {
      TriBool acc = TriBool::kFalse;
      for (int c : n.children) {
        acc = TriOr(acc, EvalNode(c, row));
        if (acc == TriBool::kTrue) break;
      }
      return acc;
    }
    case Predicate::Kind::kNot:
      return TriNot(EvalNode(n.children[0], row));
    case Predicate::Kind::kConstBool:
      return FromBool(n.const_bool);
    case Predicate::Kind::kIsNull: {
      Value tmp;
      return FromBool(EvalScalar(n.scalar_l, row, &tmp).is_null());
    }
    case Predicate::Kind::kAllNullBlock: {
      for (int col : n.all_null_columns) {
        if (!row[static_cast<size_t>(col)].is_null()) {
          return TriBool::kFalse;
        }
      }
      return TriBool::kTrue;
    }
  }
  return TriBool::kUnknown;
}

TriBool CompiledPredicate::Eval(const Tuple& tuple) const {
  ECA_DCHECK(root_ >= 0);
  return EvalNode(root_, tuple);
}

bool CompiledPredicate::EvalTrue(const Tuple& left, const Tuple& right) const {
  ECA_DCHECK(root_ >= 0);
  return IsTrue(EvalNode(root_, RowPair{left, right}));
}

}  // namespace eca
