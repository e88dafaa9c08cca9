#include "types/value.h"

#include <cmath>

#include "common/str_util.h"

namespace eca {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "?";
}

Value Value::Str(std::string s) {
  Value v;
  v.type_ = DataType::kString;
  v.null_ = false;
  v.u_.str = s.empty() ? nullptr : new StrPayload{{1}, std::move(s)};
  return v;
}

const std::string& Value::EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}

int Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  // Numeric types compare by numeric value so that Int(3) == Real(3.0);
  // mixed numeric/string never occurs in well-typed plans but is ordered by
  // type tag for totality.
  bool a_num = type_ != DataType::kString;
  bool b_num = other.type_ != DataType::kString;
  if (a_num != b_num) return a_num ? -1 : 1;
  if (a_num) {
    double a = NumericValue(), b = other.NumericValue();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (u_.str == other.u_.str) return 0;  // one shared payload (or both "")
  int c = str().compare(other.str());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

uint64_t HashInt64Key(int64_t x) {
  uint64_t h = static_cast<uint64_t>(x);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t HashDoubleKey(double d) {
  // Hash doubles representing integers identically to the int64 hash so
  // that equi-join hashing across numeric types is consistent with
  // Compare().
  uint64_t h;
  if (d == std::floor(d) && std::abs(d) < 9.0e18) {
    return HashInt64Key(static_cast<int64_t>(d));
  }
  static_assert(sizeof(double) == sizeof(uint64_t));
  __builtin_memcpy(&h, &d, sizeof(h));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t HashStringKey(const std::string& s) {
  // String hashes are in a separate family; no avalanche mixing needed.
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Value::Hash() const {
  if (null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case DataType::kInt64:
      return HashInt64Key(u_.i);
    case DataType::kDouble:
      return HashDoubleKey(u_.d);
    case DataType::kString:
      return HashStringKey(str());
  }
  return 0;
}

std::string Value::ToString() const {
  if (null_) return "null";
  switch (type_) {
    case DataType::kInt64:
      return std::to_string(u_.i);
    case DataType::kDouble:
      return StrFormat("%g", u_.d);
    case DataType::kString:
      return "'" + str() + "'";
  }
  return "?";
}

}  // namespace eca
