#ifndef ECA_TYPES_VALUE_H_
#define ECA_TYPES_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/macros.h"

namespace eca {

// Column data types. Values additionally carry a null flag; NULL is a
// property of a value, not a type.
enum class DataType : uint8_t {
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeName(DataType t);

// A single (nullable) SQL value.
//
// Layout (16 bytes): a one-byte type tag, the null flag, and a union of an
// int64, a double and a pointer to an immutable, reference-counted string
// payload. Copying a string Value shares its payload (one atomic
// increment) and moving it steals the pointer, so building a row from
// other rows never copies string bytes; numeric Values copy as 16 plain
// bytes. The payload is never mutated after construction, so Values that
// share one may be read, copied and destroyed from any number of threads
// at once; only a single Value object itself is not safe to assign from
// one thread while another thread reads it (the usual rule for values).
// The empty string and NULL strings carry no payload; a moved-from string
// Value holds the empty string.
//
// The total order used for sorting and best-match processing places NULL
// before every non-null value; this is an implementation ordering,
// distinct from SQL comparison semantics which are handled by the
// expression evaluator (3-valued logic).
class Value {
 public:
  // A null value of the given type.
  static Value Null(DataType type = DataType::kInt64) {
    Value v;
    v.type_ = type;
    if (type == DataType::kString) v.u_.str = nullptr;
    return v;
  }
  static Value Int(int64_t x) {
    Value v;
    v.null_ = false;
    v.u_.i = x;
    return v;
  }
  static Value Real(double x) {
    Value v;
    v.type_ = DataType::kDouble;
    v.null_ = false;
    v.u_.d = x;
    return v;
  }
  static Value Str(std::string s);

  Value() { u_.i = 0; }
  Value(const Value& o) : type_(o.type_), null_(o.null_), u_(o.u_) { Retain(); }
  Value(Value&& o) noexcept : type_(o.type_), null_(o.null_), u_(o.u_) {
    if (type_ == DataType::kString) o.u_.str = nullptr;
  }
  Value& operator=(const Value& o) {
    o.Retain();  // before Release(): safe under self-assignment
    Release();
    type_ = o.type_;
    null_ = o.null_;
    u_ = o.u_;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      Release();
      type_ = o.type_;
      null_ = o.null_;
      u_ = o.u_;
      if (type_ == DataType::kString) o.u_.str = nullptr;
    }
    return *this;
  }
  ~Value() { Release(); }

  bool is_null() const { return null_; }
  DataType type() const { return type_; }

  int64_t AsInt() const {
    ECA_DCHECK(!null_ && type_ == DataType::kInt64);
    return u_.i;
  }
  double AsDouble() const {
    ECA_DCHECK(!null_ && type_ == DataType::kDouble);
    return u_.d;
  }
  const std::string& AsStr() const {
    ECA_DCHECK(!null_ && type_ == DataType::kString);
    return str();
  }

  // Numeric view: int64 promoted to double. Valid for numeric non-nulls.
  double NumericValue() const {
    ECA_DCHECK(!null_);
    if (type_ == DataType::kInt64) return static_cast<double>(u_.i);
    ECA_DCHECK(type_ == DataType::kDouble);
    return u_.d;
  }

  // Total order for sorting: NULL first, then by type tag, then by value.
  // Returns <0, 0, >0.
  int Compare(const Value& other) const;

  // Exact equality under the total order (NULL == NULL here). Used for
  // duplicate detection and result comparison, not for predicate semantics.
  bool SameAs(const Value& other) const { return Compare(other) == 0; }

  uint64_t Hash() const;

  std::string ToString() const;

  // Columnar accessors: raw payload reads for the vectorized executor's
  // typed column extraction (exec/chunk.h). Unlike AsInt()/AsDouble()/
  // AsStr() these do not assert nullness — the caller has already
  // dispatched on the column's declared type and checked the null flag
  // once per column, not once per value. The type must match: the union
  // would otherwise hand back another member's bits.
  int64_t raw_int() const {
    ECA_DCHECK(type_ == DataType::kInt64);
    return u_.i;
  }
  double raw_double() const {
    ECA_DCHECK(type_ == DataType::kDouble);
    return u_.d;
  }
  const std::string& raw_str() const {
    ECA_DCHECK(type_ == DataType::kString);
    return str();
  }

  // Heap bytes of the string payload this value references: its header
  // plus the string's capacity; 0 when there is none. Every value that
  // shares a payload reports all of it.
  int64_t payload_bytes() const {
    if (type_ != DataType::kString || u_.str == nullptr) return 0;
    return static_cast<int64_t>(sizeof(StrPayload) + u_.str->str.capacity());
  }

 private:
  // The shared, immutable string payload.
  struct StrPayload {
    std::atomic<uint64_t> refs;
    const std::string str;
  };

  static const std::string& EmptyString();

  const std::string& str() const {
    return u_.str != nullptr ? u_.str->str : EmptyString();
  }
  void Retain() const {
    if (type_ == DataType::kString && u_.str != nullptr) {
      u_.str->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Release() {
    if (type_ == DataType::kString && u_.str != nullptr &&
        u_.str->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete u_.str;
    }
  }

  DataType type_ = DataType::kInt64;
  bool null_ = true;
  union {
    int64_t i;
    double d;
    StrPayload* str;
  } u_;
};

static_assert(sizeof(Value) == 16, "Value is a tag, a null flag and 8 bytes");

// Per-type key hash functions, identical to Value::Hash() on non-null
// values of that type but callable on raw column data (exec/chunk.h).
// HashDoubleKey maps integer-valued doubles to HashInt64Key of that
// integer, keeping hashing consistent with Compare()'s numeric promotion
// (Int(3) and Real(3.0) hash — and compare — equal).
uint64_t HashInt64Key(int64_t x);
uint64_t HashDoubleKey(double d);
uint64_t HashStringKey(const std::string& s);

}  // namespace eca

#endif  // ECA_TYPES_VALUE_H_
