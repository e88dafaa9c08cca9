#ifndef ECA_EXPR_EXPR_H_
#define ECA_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/rel_set.h"
#include "storage/relation.h"
#include "types/tri_bool.h"
#include "types/value.h"

namespace eca {

// ---------------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------------

class Scalar;
using ScalarRef = std::shared_ptr<const Scalar>;

// An immutable scalar expression: a column reference, a constant, or an
// arithmetic combination. Scalars are shared between plans (plans clone
// cheaply by sharing ScalarRefs).
class Scalar {
 public:
  enum class Kind { kColumn, kConst, kArith };
  enum class ArithOp { kAdd, kSub, kMul, kDiv };

  static ScalarRef Column(int rel_id, std::string name);
  static ScalarRef Const(Value v);
  static ScalarRef Arith(ArithOp op, ScalarRef l, ScalarRef r);

  Kind kind() const { return kind_; }
  int rel_id() const { return rel_id_; }
  const std::string& column_name() const { return column_name_; }
  const Value& const_value() const { return const_value_; }
  ArithOp arith_op() const { return arith_op_; }
  const ScalarRef& left() const { return left_; }
  const ScalarRef& right() const { return right_; }

  // Relations referenced by this expression.
  RelSet refs() const { return refs_; }

  // Evaluates against a tuple; NULL if any referenced column is NULL.
  // Slow path (per-call column lookup); the executor uses Compile().
  Value Eval(const Schema& schema, const Tuple& tuple) const;

  std::string ToString() const;

 private:
  Scalar() = default;

  Kind kind_ = Kind::kConst;
  int rel_id_ = -1;
  std::string column_name_;
  Value const_value_;
  ArithOp arith_op_ = ArithOp::kAdd;
  ScalarRef left_, right_;
  RelSet refs_;
};

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

class Predicate;
using PredRef = std::shared_ptr<const Predicate>;

// An immutable boolean expression evaluated under SQL three-valued logic.
//
// Comparisons are null-intolerant: they evaluate to kUnknown whenever an
// operand is NULL, so they can never be true on NULL inputs (the class of
// predicates the paper's completeness results assume). kIsNull is the one
// null-tolerant form; it is used by the SQL generator (gamma rendering) and
// by the Appendix D null-tolerant extension.
class Predicate {
 public:
  enum class Kind {
    kCompare,
    kAnd,
    kOr,
    kNot,
    kConstBool,
    kIsNull,
    kAllNullBlock,
  };
  enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

  static PredRef Compare(CmpOp op, ScalarRef l, ScalarRef r);
  static PredRef And(std::vector<PredRef> children);
  static PredRef Or(std::vector<PredRef> children);
  static PredRef Not(PredRef child);
  static PredRef ConstBool(bool b);
  static PredRef IsNull(ScalarRef s);
  // True iff every attribute of the relations in `rels` is NULL — the
  // gamma-test as a predicate (used when folding gamma* into a join
  // predicate during pull-up; null-tolerant by nature).
  static PredRef AllNull(RelSet rels);

  // Attaches a display label (e.g. "p12"). Returns a relabeled copy.
  static PredRef WithLabel(PredRef p, std::string label);

  Kind kind() const { return kind_; }
  CmpOp cmp_op() const { return cmp_op_; }
  const ScalarRef& scalar_left() const { return scalar_left_; }
  const ScalarRef& scalar_right() const { return scalar_right_; }
  const std::vector<PredRef>& children() const { return children_; }
  bool const_bool() const { return const_bool_; }
  RelSet all_null_rels() const { return all_null_rels_; }
  const std::string& label() const { return label_; }

  RelSet refs() const { return refs_; }

  // True if the predicate contains no null-tolerant subexpression, i.e. it
  // cannot evaluate to kTrue when any referenced column is NULL.
  bool null_intolerant() const { return null_intolerant_; }

  TriBool Eval(const Schema& schema, const Tuple& tuple) const;

  // Short form: the label if one is set, else the full expression.
  std::string DisplayName() const;
  std::string ToString() const;

 private:
  Predicate() = default;

  Kind kind_ = Kind::kConstBool;
  CmpOp cmp_op_ = CmpOp::kEq;
  ScalarRef scalar_left_, scalar_right_;
  std::vector<PredRef> children_;
  bool const_bool_ = false;
  RelSet all_null_rels_;
  std::string label_;
  RelSet refs_;
  bool null_intolerant_ = true;
};

// Structural fingerprints ----------------------------------------------------

// A 64-bit hash of the expression's structure (kinds, operators, column
// references, constants). Structurally identical expressions fingerprint
// equal regardless of where they live in memory; labels are ignored.
// Used wherever expressions key a cache that outlives the expression
// objects themselves (e.g. the cost model's sampled-selectivity cache).
uint64_t StructuralFingerprint(const Scalar& s);
uint64_t StructuralFingerprint(const Predicate& p);

// Convenience builders -------------------------------------------------------

ScalarRef Col(int rel_id, std::string name);
ScalarRef Lit(int64_t v);
ScalarRef LitReal(double v);
ScalarRef LitStr(std::string v);

PredRef Eq(ScalarRef l, ScalarRef r);
PredRef Lt(ScalarRef l, ScalarRef r);
PredRef Gt(ScalarRef l, ScalarRef r);

// Equi-join predicate R<a>.x = R<b>.y with label.
PredRef EquiJoin(int rel_a, const std::string& col_a, int rel_b,
                 const std::string& col_b, std::string label = "");

// ---------------------------------------------------------------------------
// Compiled predicates (fast evaluation path)
// ---------------------------------------------------------------------------

// A predicate bound to a concrete schema: column references are resolved to
// tuple indexes once, so evaluation is lookup-free.
class CompiledPredicate {
 public:
  CompiledPredicate() = default;
  // Binds `pred` to `schema`. All referenced columns must be present.
  CompiledPredicate(const PredRef& pred, const Schema& schema);

  TriBool Eval(const Tuple& tuple) const;
  bool EvalTrue(const Tuple& tuple) const { return IsTrue(Eval(tuple)); }

  // Evaluates over the row `left ++ right` without building it: column
  // indexes below left.size() read `left`, the rest read `right`. Equal
  // to EvalTrue(ConcatTuples(left, right)) for a predicate bound to the
  // concatenated schema.
  bool EvalTrue(const Tuple& left, const Tuple& right) const;

 private:
  struct Node {
    Predicate::Kind kind;
    Predicate::CmpOp cmp_op;
    bool const_bool;
    int scalar_l = -1, scalar_r = -1;  // indexes into scalar node pool
    std::vector<int> children;         // indexes into pred node pool
    std::vector<int> all_null_columns; // kAllNullBlock: resolved columns
  };
  struct ScalarNode {
    Scalar::Kind kind;
    int column_index = -1;  // kColumn
    Value const_value;      // kConst
    Scalar::ArithOp arith_op = Scalar::ArithOp::kAdd;
    int l = -1, r = -1;
  };

  int CompilePred(const Predicate& p, const Schema& schema);
  int CompileScalar(const Scalar& s, const Schema& schema);
  // `Row` is Tuple or the two-row view behind EvalTrue(left, right):
  // anything with `const Value& operator[](size_t)`. Column and constant
  // scalars return a reference into the row or the node; computed ones
  // are written to `*tmp`, so no Value (or string payload) is copied.
  template <typename Row>
  const Value& EvalScalar(int idx, const Row& row, Value* tmp) const;
  template <typename Row>
  TriBool EvalNode(int idx, const Row& row) const;

  std::vector<Node> preds_;
  std::vector<ScalarNode> scalars_;
  int root_ = -1;
};

}  // namespace eca

#endif  // ECA_EXPR_EXPR_H_
