#ifndef ECA_CATALOG_SCHEMA_H_
#define ECA_CATALOG_SCHEMA_H_

#include <string>
#include <vector>

#include "common/rel_set.h"
#include "common/status.h"
#include "common/str_util.h"
#include "types/value.h"

namespace eca {

// A column of an intermediate or base relation. Columns are owned by a
// query relation (rel_id), which is how the rewrite layer's relation-level
// attribute sets (RelSet) map onto physical columns.
struct Column {
  int rel_id = -1;        // id of the query relation this column belongs to
  std::string name;       // column name, unique within its relation
  DataType type = DataType::kInt64;

  std::string QualifiedName() const {
    return StrCat("R", std::to_string(rel_id), ".", name);
  }
};

// An ordered list of columns describing the tuples of a relation.
class Schema {
 public:
  Schema() = default;
  // Aborts on out-of-range rel_ids: for schemas built by trusted code. For
  // schemas assembled from user input, use Make().
  explicit Schema(std::vector<Column> columns);

  // Validating factory for externally-supplied column lists: rejects
  // rel_ids outside [0, 64) and duplicate (rel_id, name) pairs with an
  // actionable error instead of aborting.
  static StatusOr<Schema> Make(std::vector<Column> columns);

  int NumColumns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  const std::vector<Column>& columns() const { return columns_; }

  // The set of query relations whose columns appear in this schema.
  RelSet rels() const { return rels_; }

  // Index of the column (rel_id, name); -1 if absent.
  int FindColumn(int rel_id, const std::string& name) const;

  // FindColumn with an error channel: NOT_FOUND lists the columns the
  // schema does have, so a typo'd predicate is diagnosable from the
  // message alone.
  StatusOr<int> ResolveColumn(int rel_id, const std::string& name) const;

  // Indexes of all columns owned by relations in `set`, in schema order.
  std::vector<int> ColumnsOf(RelSet set) const;

  // Schema obtained by keeping only columns of relations in `set`
  // (relation-level projection, the paper's pi_R).
  Schema Project(RelSet set) const;

  // Concatenation: this schema's columns followed by `other`'s. The two
  // must cover disjoint relation sets.
  Schema Concat(const Schema& other) const;

  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<Column> columns_;
  RelSet rels_;
};

}  // namespace eca

#endif  // ECA_CATALOG_SCHEMA_H_
