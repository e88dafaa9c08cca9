#ifndef ECA_STORAGE_RELATION_H_
#define ECA_STORAGE_RELATION_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "types/value.h"

namespace eca {

// A tuple is a row of values aligned with a Schema.
using Tuple = std::vector<Value>;

// Compares two tuples under the Value total order (NULL first).
// Returns <0, 0, >0.
int CompareTuples(const Tuple& a, const Tuple& b);

uint64_t HashTuple(const Tuple& t);

// An in-memory row-major relation (bag of tuples with a schema).
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {
#ifndef NDEBUG
    for (const Tuple& t : rows_) {
      ECA_DCHECK(static_cast<int>(t.size()) == schema_.NumColumns());
    }
#endif
  }

  const Schema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  std::vector<Tuple>& mutable_rows() { return rows_; }
  int64_t NumRows() const { return static_cast<int64_t>(rows_.size()); }

  void Add(Tuple t) {
    ECA_DCHECK(static_cast<int>(t.size()) == schema_.NumColumns());
    rows_.push_back(std::move(t));
  }

  // Sorts rows in place under the tuple total order. Canonical form for
  // multiset comparison.
  void SortRows();

  // A table rendering for debugging and examples.
  std::string ToString(int max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

// True iff the two relations have equal schemas and equal row multisets.
bool SameMultiset(const Relation& a, const Relation& b);

// Human-oriented diff of two relations (first differing rows); empty string
// when SameMultiset holds. Used by test assertions.
std::string ExplainDifference(const Relation& a, const Relation& b,
                              int max_diffs = 5);

// Accounting heuristic for one in-memory tuple: container overhead plus
// sizeof(Value) (16 bytes) per value plus every referenced string
// payload (header and capacity, Value::payload_bytes). Rows share string
// payloads (types/value.h), yet each referencing value is charged the
// whole payload: an over-count, so a hard limit still holds. Shared by
// the executor's memory-tracker charge sites and the spill machinery's
// run thresholds so "bytes" mean one thing across the resource governor.
int64_t ApproxTupleBytes(const Tuple& t);

// Sum of ApproxTupleBytes over a row vector (the relation's row storage).
int64_t ApproxRowsBytes(const std::vector<Tuple>& rows);

// A tuple of `n` NULL values typed per the schema columns [begin, begin+n).
Tuple NullsFor(const Schema& schema, int begin, int n);

// Concatenation of two tuples.
Tuple ConcatTuples(const Tuple& a, const Tuple& b);

}  // namespace eca

#endif  // ECA_STORAGE_RELATION_H_
