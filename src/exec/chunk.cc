#include "exec/chunk.h"

namespace eca {

namespace {

// True when `e` is a bare column reference; fills the bound index.
bool BindColumn(const ScalarRef& e, const Schema& schema, int* col,
                DataType* type) {
  if (e->kind() != Scalar::Kind::kColumn) return false;
  int idx = schema.FindColumn(e->rel_id(), e->column_name());
  ECA_CHECK(idx >= 0);
  *col = idx;
  *type = schema.column(idx).type;
  return true;
}

}  // namespace

KeyColumn::Tag KeyColumn::TagFor(const ScalarRef& build_expr,
                                 const Schema& build_schema,
                                 const ScalarRef& probe_expr,
                                 const Schema& probe_schema) {
  int bc = -1, pc = -1;
  DataType bt, pt;
  if (!BindColumn(build_expr, build_schema, &bc, &bt) ||
      !BindColumn(probe_expr, probe_schema, &pc, &pt)) {
    return Tag::kGeneric;
  }
  if (bt == pt) {
    switch (bt) {
      case DataType::kInt64:
        return Tag::kInt64;
      case DataType::kDouble:
        return Tag::kDouble;
      case DataType::kString:
        return Tag::kString;
    }
  }
  bool b_num = bt != DataType::kString;
  bool p_num = pt != DataType::kString;
  // Mixed numeric types meet under promotion; mixed string/numeric pairs
  // never compare equal, but kGeneric reproduces the row engine's
  // Value::SameAs verdicts (including that one) verbatim.
  return (b_num && p_num) ? Tag::kNumeric : Tag::kGeneric;
}

void KeyColumn::Reset(Tag tag, int64_t n) {
  tag_ = tag;
  ints_.clear();
  doubles_.clear();
  strs_.clear();
  vals_.clear();
  size_t sn = static_cast<size_t>(n);
  switch (tag_) {
    case Tag::kInt64:
      ints_.resize(sn);
      break;
    case Tag::kDouble:
    case Tag::kNumeric:
      doubles_.resize(sn);
      break;
    case Tag::kString:
      strs_.resize(sn, nullptr);
      break;
    case Tag::kGeneric:
      vals_.resize(sn);
      break;
  }
}

bool KeyColumn::SetFromRow(int64_t r, const Tuple& row, int col,
                           const ScalarRef& expr, const Schema& schema) {
  size_t sr = static_cast<size_t>(r);
  if (col >= 0) {
    const Value& v = row[static_cast<size_t>(col)];
    if (v.is_null()) return false;
    // The tag came from the schema's declared column types; a value of
    // another runtime type would read the wrong member of Value's union.
    switch (tag_) {
      case Tag::kInt64:
        ECA_DCHECK(v.type() == DataType::kInt64);
        ints_[sr] = v.raw_int();
        return true;
      case Tag::kDouble:
        ECA_DCHECK(v.type() == DataType::kDouble);
        doubles_[sr] = v.raw_double();
        return true;
      case Tag::kNumeric:
        ECA_DCHECK(v.type() != DataType::kString);
        doubles_[sr] = v.NumericValue();
        return true;
      case Tag::kString:
        ECA_DCHECK(v.type() == DataType::kString);
        strs_[sr] = &v.raw_str();
        return true;
      case Tag::kGeneric:
        vals_[sr] = v;
        return true;
    }
    return true;
  }
  Value v = expr->Eval(schema, row);
  if (v.is_null()) return false;
  ECA_DCHECK(tag_ == Tag::kGeneric);  // computed keys always take kGeneric
  vals_[sr] = std::move(v);
  return true;
}

uint64_t KeyColumn::HashAt(int64_t r) const {
  size_t sr = static_cast<size_t>(r);
  switch (tag_) {
    case Tag::kInt64:
      return HashInt64Key(ints_[sr]);
    case Tag::kDouble:
    case Tag::kNumeric:
      return HashDoubleKey(doubles_[sr]);
    case Tag::kString:
      return HashStringKey(*strs_[sr]);
    case Tag::kGeneric:
      return vals_[sr].Hash();
  }
  return 0;
}

bool KeyColumn::Equal(const KeyColumn& a, int64_t ra, const KeyColumn& b,
                      int64_t rb) {
  ECA_DCHECK(a.tag_ == b.tag_);
  size_t sa = static_cast<size_t>(ra);
  size_t sb = static_cast<size_t>(rb);
  switch (a.tag_) {
    case Tag::kInt64:
      // Value::Compare orders numerics after double promotion; for two
      // int64 columns raw equality matches it everywhere the promotion is
      // exact, and the existing hash lookup already separated values that
      // only collide after promotion.
      return a.ints_[sa] == b.ints_[sb];
    case Tag::kDouble:
    case Tag::kNumeric:
      return a.doubles_[sa] == b.doubles_[sb];
    case Tag::kString:
      return *a.strs_[sa] == *b.strs_[sb];
    case Tag::kGeneric:
      return a.vals_[sa].SameAs(b.vals_[sb]);
  }
  return false;
}

void KeyChunkSet::Reset(const std::vector<KeyColumn::Tag>& tags, int64_t n) {
  cols.resize(tags.size());
  for (size_t k = 0; k < tags.size(); ++k) cols[k].Reset(tags[k], n);
  hashes.assign(static_cast<size_t>(n), 0);
  valid.assign(static_cast<size_t>(n), 0);
}

void KeyChunkSet::ExtractRow(int64_t r, const Tuple& row,
                             const std::vector<int>& col_idx,
                             const std::vector<ScalarRef>& exprs,
                             const Schema& schema) {
  // FNV combine over per-column hashes, matching HashTuple's shape so a
  // single-column key buckets like the row engine did.
  uint64_t h = 14695981039346656037ULL;
  for (size_t k = 0; k < cols.size(); ++k) {
    if (!cols[k].SetFromRow(r, row, col_idx[k], exprs[k], schema)) {
      return;  // NULL key: row stays invalid
    }
    h ^= cols[k].HashAt(r);
    h *= 1099511628211ULL;
  }
  hashes[static_cast<size_t>(r)] = h;
  valid[static_cast<size_t>(r)] = 1;
}

void NullMaskMatrix::Build(const Relation& in) {
  num_rows_ = in.NumRows();
  const size_t cols = static_cast<size_t>(in.schema().NumColumns());
  words_per_row_ = cols == 0 ? 1 : (cols + 63) / 64;
  words_.assign(static_cast<size_t>(num_rows_) * words_per_row_, 0);
  for (int64_t r = 0; r < num_rows_; ++r) {
    const Tuple& t = in.rows()[static_cast<size_t>(r)];
    uint64_t* w = words_.data() + static_cast<size_t>(r) * words_per_row_;
    for (size_t c = 0; c < t.size(); ++c) {
      if (t[c].is_null()) w[c / 64] |= uint64_t{1} << (c % 64);
    }
  }
}

}  // namespace eca
