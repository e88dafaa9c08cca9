#ifndef ECA_COMMON_REL_SET_H_
#define ECA_COMMON_REL_SET_H_

#include <cstdint>
#include <string>

#include "common/macros.h"

namespace eca {

// A set of query-relation ids (0..63) represented as a 64-bit bitmask.
//
// Every attribute set that appears in the paper's compensation operators
// (the A of lambda/gamma, the A and B of gamma*, the projection list of the
// relation-level pi) is a union of whole-relation attribute sets, so the
// rewrite layer manipulates RelSets instead of column lists. The executor
// maps relation ids back to column ranges.
class RelSet {
 public:
  constexpr RelSet() : bits_(0) {}
  constexpr explicit RelSet(uint64_t bits) : bits_(bits) {}

  static constexpr RelSet Single(int rel_id) {
    return RelSet(uint64_t{1} << rel_id);
  }
  // Relations with ids in [0, n).
  static constexpr RelSet FirstN(int n) {
    return n >= 64 ? RelSet(~uint64_t{0}) : RelSet((uint64_t{1} << n) - 1);
  }

  constexpr bool Empty() const { return bits_ == 0; }
  constexpr bool Contains(int rel_id) const {
    return (bits_ >> rel_id) & uint64_t{1};
  }
  constexpr bool ContainsAll(RelSet other) const {
    return (bits_ & other.bits_) == other.bits_;
  }
  constexpr bool Intersects(RelSet other) const {
    return (bits_ & other.bits_) != 0;
  }
  int Count() const { return __builtin_popcountll(bits_); }

  // The single element of a singleton set.
  int SingleId() const {
    ECA_DCHECK(Count() == 1);
    return __builtin_ctzll(bits_);
  }
  // Smallest element; set must be non-empty.
  int Min() const {
    ECA_DCHECK(!Empty());
    return __builtin_ctzll(bits_);
  }

  constexpr RelSet Union(RelSet other) const {
    return RelSet(bits_ | other.bits_);
  }
  constexpr RelSet Intersect(RelSet other) const {
    return RelSet(bits_ & other.bits_);
  }
  constexpr RelSet Minus(RelSet other) const {
    return RelSet(bits_ & ~other.bits_);
  }
  RelSet With(int rel_id) const { return Union(Single(rel_id)); }
  RelSet Without(int rel_id) const { return Minus(Single(rel_id)); }

  constexpr uint64_t bits() const { return bits_; }

  friend constexpr bool operator==(RelSet a, RelSet b) {
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(RelSet a, RelSet b) {
    return a.bits_ != b.bits_;
  }
  friend constexpr bool operator<(RelSet a, RelSet b) {
    return a.bits_ < b.bits_;
  }

  // Iterates over set members in increasing order.
  class Iterator {
   public:
    explicit Iterator(uint64_t bits) : bits_(bits) {}
    int operator*() const { return __builtin_ctzll(bits_); }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return bits_ != other.bits_;
    }

   private:
    uint64_t bits_;
  };
  Iterator begin() const { return Iterator(bits_); }
  Iterator end() const { return Iterator(0); }

  // Renders as e.g. "{R0,R2,R3}".
  std::string ToString() const {
    std::string out = "{";
    bool first = true;
    for (int id : *this) {
      if (!first) out += ",";
      out += 'R';
      out += std::to_string(id);
      first = false;
    }
    out += "}";
    return out;
  }

 private:
  uint64_t bits_;
};

struct RelSetHash {
  size_t operator()(RelSet s) const {
    uint64_t x = s.bits();
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

}  // namespace eca

#endif  // ECA_COMMON_REL_SET_H_
