#include "catalog/schema.h"

#include "common/str_util.h"

namespace eca {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (const Column& c : columns_) {
    ECA_CHECK(c.rel_id >= 0 && c.rel_id < 64);
    rels_ = rels_.With(c.rel_id);
  }
}

StatusOr<Schema> Schema::Make(std::vector<Column> columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    const Column& c = columns[i];
    if (c.rel_id < 0 || c.rel_id >= 64) {
      return Status::OutOfRange(
          StrFormat("column %zu ('%s'): rel_id %d outside [0, 64)", i,
                    c.name.c_str(), c.rel_id));
    }
    for (size_t j = 0; j < i; ++j) {
      if (columns[j].rel_id == c.rel_id && columns[j].name == c.name) {
        return Status::InvalidArgument("duplicate column " +
                                       c.QualifiedName());
      }
    }
  }
  return Schema(std::move(columns));
}

int Schema::FindColumn(int rel_id, const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].rel_id == rel_id && columns_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

StatusOr<int> Schema::ResolveColumn(int rel_id,
                                    const std::string& name) const {
  int idx = FindColumn(rel_id, name);
  if (idx >= 0) return idx;
  return Status::NotFound("no column R" + std::to_string(rel_id) + "." +
                          name + " in schema " + ToString());
}

std::vector<int> Schema::ColumnsOf(RelSet set) const {
  std::vector<int> out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (set.Contains(columns_[i].rel_id)) out.push_back(static_cast<int>(i));
  }
  return out;
}

Schema Schema::Project(RelSet set) const {
  std::vector<Column> cols;
  for (const Column& c : columns_) {
    if (set.Contains(c.rel_id)) cols.push_back(c);
  }
  return Schema(std::move(cols));
}

Schema Schema::Concat(const Schema& other) const {
  ECA_CHECK_MSG(!rels_.Intersects(other.rels_),
                "schemas to concatenate must cover disjoint relations");
  std::vector<Column> cols = columns_;
  cols.insert(cols.end(), other.columns_.begin(), other.columns_.end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].QualifiedName();
    out += ':';
    out += DataTypeName(columns_[i].type);
  }
  out += ')';
  return out;
}

bool operator==(const Schema& a, const Schema& b) {
  if (a.columns_.size() != b.columns_.size()) return false;
  for (size_t i = 0; i < a.columns_.size(); ++i) {
    const Column& x = a.columns_[i];
    const Column& y = b.columns_[i];
    if (x.rel_id != y.rel_id || x.name != y.name || x.type != y.type) {
      return false;
    }
  }
  return true;
}

}  // namespace eca
