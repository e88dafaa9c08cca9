#include "storage/relation.h"

#include <algorithm>

#include "common/str_util.h"

namespace eca {

int CompareTuples(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

uint64_t HashTuple(const Tuple& t) {
  uint64_t h = 14695981039346656037ULL;
  for (const Value& v : t) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

void Relation::SortRows() {
  std::sort(rows_.begin(), rows_.end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
}

std::string Relation::ToString(int max_rows) const {
  std::string out = schema_.ToString() + "\n";
  int64_t shown = 0;
  for (const Tuple& t : rows_) {
    if (shown++ >= max_rows) {
      out += StrFormat("... (%lld rows total)\n",
                       static_cast<long long>(NumRows()));
      break;
    }
    std::vector<std::string> parts;
    parts.reserve(t.size());
    for (const Value& v : t) parts.push_back(v.ToString());
    out += "  [" + StrJoin(parts, ", ") + "]\n";
  }
  if (rows_.empty()) out += "  (empty)\n";
  return out;
}

bool SameMultiset(const Relation& a, const Relation& b) {
  if (!(a.schema() == b.schema())) return false;
  if (a.NumRows() != b.NumRows()) return false;
  std::vector<Tuple> ra = a.rows(), rb = b.rows();
  auto less = [](const Tuple& x, const Tuple& y) {
    return CompareTuples(x, y) < 0;
  };
  std::sort(ra.begin(), ra.end(), less);
  std::sort(rb.begin(), rb.end(), less);
  for (size_t i = 0; i < ra.size(); ++i) {
    if (CompareTuples(ra[i], rb[i]) != 0) return false;
  }
  return true;
}

std::string ExplainDifference(const Relation& a, const Relation& b,
                              int max_diffs) {
  if (!(a.schema() == b.schema())) {
    return "schemas differ: " + a.schema().ToString() + " vs " +
           b.schema().ToString();
  }
  std::vector<Tuple> ra = a.rows(), rb = b.rows();
  auto less = [](const Tuple& x, const Tuple& y) {
    return CompareTuples(x, y) < 0;
  };
  std::sort(ra.begin(), ra.end(), less);
  std::sort(rb.begin(), rb.end(), less);
  std::string out;
  int diffs = 0;
  size_t i = 0, j = 0;
  auto render = [](const Tuple& t) {
    std::vector<std::string> parts;
    parts.reserve(t.size());
    for (const Value& v : t) parts.push_back(v.ToString());
    return StrCat("[", StrJoin(parts, ", "), "]");
  };
  while ((i < ra.size() || j < rb.size()) && diffs < max_diffs) {
    int c;
    if (i >= ra.size()) {
      c = 1;
    } else if (j >= rb.size()) {
      c = -1;
    } else {
      c = CompareTuples(ra[i], rb[j]);
    }
    if (c == 0) {
      ++i;
      ++j;
    } else if (c < 0) {
      out += "only in left:  " + render(ra[i++]) + "\n";
      ++diffs;
    } else {
      out += "only in right: " + render(rb[j++]) + "\n";
      ++diffs;
    }
  }
  if (!out.empty()) {
    out = StrFormat("left has %lld rows, right has %lld rows\n",
                    static_cast<long long>(a.NumRows()),
                    static_cast<long long>(b.NumRows())) +
          out;
  }
  return out;
}

int64_t ApproxTupleBytes(const Tuple& t) {
  int64_t bytes = static_cast<int64_t>(sizeof(Tuple)) +
                  static_cast<int64_t>(t.capacity() * sizeof(Value));
  for (const Value& v : t) bytes += v.payload_bytes();
  return bytes;
}

int64_t ApproxRowsBytes(const std::vector<Tuple>& rows) {
  int64_t bytes = 0;
  for (const Tuple& t : rows) bytes += ApproxTupleBytes(t);
  return bytes;
}

Tuple NullsFor(const Schema& schema, int begin, int n) {
  Tuple t;
  t.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    t.push_back(Value::Null(schema.column(begin + i).type));
  }
  return t;
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace eca
