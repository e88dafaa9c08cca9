#include "types/value.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "types/tri_bool.h"

namespace eca {
namespace {

TEST(ValueTest, NullBasics) {
  Value v = Value::Null();
  EXPECT_TRUE(v.is_null());
  Value d = Value::Null(DataType::kDouble);
  EXPECT_TRUE(d.is_null());
  EXPECT_EQ(d.type(), DataType::kDouble);
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, CompareTotalOrderNullFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_LT(Value::Null().Compare(Value::Str("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null(DataType::kString)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(3).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, NumericCrossTypeCompare) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Real(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Real(3.5)), 0);
  EXPECT_GT(Value::Real(4.0).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, StringsOrderedAfterNumbers) {
  EXPECT_LT(Value::Int(1'000'000).Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Str("a").Compare(Value::Str("b")), 0);
}

TEST(ValueTest, HashConsistentWithCompare) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Real(42.0).Hash());
  EXPECT_EQ(Value::Str("xyz").Hash(), Value::Str("xyz").Hash());
  // Nulls hash equal to each other regardless of type.
  EXPECT_EQ(Value::Null(DataType::kInt64).Hash(),
            Value::Null(DataType::kString).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Str("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Real(2.5).ToString(), "2.5");
}

// Value is a tag, a null flag and one 8-byte union member (types/value.h).
static_assert(sizeof(Value) == 16);
static_assert(std::is_nothrow_move_constructible_v<Value>);
static_assert(std::is_nothrow_move_assignable_v<Value>);

// Golden results of the total order, hash and rendering, independent of
// Value's layout. Hash values key spill partitions and cache files, so
// they must not change with it.
TEST(ValueTest, GoldenCompareHashToString) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Real(3.0)), 0);
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
  EXPECT_EQ(Value::Int(3).Hash(), 0xfdf50f87b6fa21a4ULL);
  EXPECT_EQ(Value::Real(2.5).Hash(), 0xd08e8c44d1dd4622ULL);
  EXPECT_EQ(Value::Str("abc").Hash(), 0xe16801510db89efdULL);
  EXPECT_EQ(Value::Str("").Hash(), 0x14650fb0739d0383ULL);
  EXPECT_EQ(Value::Null(DataType::kString).Hash(), 0x9e3779b97f4a7c15ULL);
  // NULL sorts first whatever its type; NULLs are equal to each other.
  EXPECT_EQ(Value::Null(DataType::kString).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Str("")), -1);
  EXPECT_EQ(Value::Str("").Compare(Value::Null(DataType::kString)), 1);
  EXPECT_EQ(Value::Null(DataType::kDouble).Compare(Value::Real(-1e300)), -1);
  // Strings: numbers first, then byte order; "" is the least string.
  EXPECT_EQ(Value::Real(1e300).Compare(Value::Str("")), -1);
  EXPECT_EQ(Value::Str("").Compare(Value::Str("a")), -1);
  EXPECT_EQ(Value::Str("ab").Compare(Value::Str("a")), 1);
  EXPECT_EQ(Value::Str("ab").Compare(Value::Str("ab")), 0);
  EXPECT_EQ(Value::Null(DataType::kString).ToString(), "null");
  EXPECT_EQ(Value::Str("").ToString(), "''");
  EXPECT_EQ(Value::Int(-12).ToString(), "-12");
  EXPECT_EQ(Value::Real(3.0).ToString(), "3");
}

// One sample of every kind of Value; ExpectSame compares kind and payload.
std::vector<Value> Samples() {
  return {Value::Int(-7), Value::Real(2.25), Value::Str("a string"),
          Value::Str(""), Value::Null(DataType::kString),
          Value::Null(DataType::kDouble), Value()};
}

void ExpectSame(const Value& a, const Value& b) {
  EXPECT_EQ(a.type(), b.type());
  EXPECT_EQ(a.is_null(), b.is_null());
  EXPECT_EQ(a.Compare(b), 0) << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(ValueTest, CopyAndMoveEveryKind) {
  for (const Value& src : Samples()) {
    SCOPED_TRACE(src.ToString());
    Value copy(src);
    ExpectSame(copy, src);
    Value moved(std::move(copy));
    ExpectSame(moved, src);
    // The moved-from value stays destructible and assignable.
    copy = src;
    ExpectSame(copy, src);
    for (const Value& other : Samples()) {
      Value a = other;
      a = src;  // copy-assign across kinds
      ExpectSame(a, src);
      Value b = other;
      Value tmp = src;
      b = std::move(tmp);  // move-assign across kinds
      ExpectSame(b, src);
      tmp = other;
      ExpectSame(tmp, other);
    }
    Value self = src;
    const Value& alias = self;
    self = alias;  // self copy-assign
    ExpectSame(self, src);
    Value& alias2 = self;
    self = std::move(alias2);  // self move-assign
    ExpectSame(self, src);
  }
}

TEST(ValueTest, MovedFromStringIsEmptyButUsable) {
  Value s = Value::Str("payload");
  Value t = std::move(s);
  EXPECT_EQ(t.AsStr(), "payload");
  EXPECT_EQ(s.type(), DataType::kString);
  EXPECT_EQ(s.raw_str(), "");
  s = Value::Int(4);
  EXPECT_EQ(s.AsInt(), 4);
}

TEST(ValueTest, CopiesShareOneStringPayload) {
  Value a = Value::Str("shared payload beyond the small-string buffer");
  Value b = a;
  EXPECT_EQ(&a.AsStr(), &b.AsStr());
  // Each referencing value reports the whole payload: header and bytes.
  EXPECT_GE(a.payload_bytes(),
            static_cast<int64_t>(sizeof(std::string) + a.AsStr().size()));
  EXPECT_EQ(b.payload_bytes(), a.payload_bytes());
  EXPECT_EQ(Value::Str("").payload_bytes(), 0);
  EXPECT_EQ(Value::Null(DataType::kString).payload_bytes(), 0);
  EXPECT_EQ(Value::Int(5).payload_bytes(), 0);
  Value c = Value::Str(a.AsStr());
  EXPECT_NE(&a.AsStr(), &c.AsStr());
  EXPECT_EQ(a.Compare(c), 0);
  EXPECT_EQ(a.Hash(), c.Hash());
}

// Eight threads copy and destroy copies of one shared string payload; the
// reference count must end where it began (ASan: no leak, no double free;
// TSan: no race on the count).
TEST(ValueTest, ConcurrentCopiesOfOneString) {
  const Value shared = Value::Str("one payload shared by eight threads");
  constexpr int kThreads = 8;
  constexpr int kIters = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared] {
      std::vector<Value> held(4);
      for (int i = 0; i < kIters; ++i) {
        Value copy = shared;
        held[static_cast<size_t>(i) % held.size()] = copy;
        if (copy.AsStr().size() != shared.AsStr().size()) std::abort();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shared.AsStr(), "one payload shared by eight threads");
}

TEST(TriBoolTest, ThreeValuedLogicTables) {
  using enum TriBool;
  EXPECT_EQ(TriAnd(kTrue, kTrue), kTrue);
  EXPECT_EQ(TriAnd(kTrue, kUnknown), kUnknown);
  EXPECT_EQ(TriAnd(kFalse, kUnknown), kFalse);
  EXPECT_EQ(TriOr(kFalse, kUnknown), kUnknown);
  EXPECT_EQ(TriOr(kTrue, kUnknown), kTrue);
  EXPECT_EQ(TriNot(kUnknown), kUnknown);
  EXPECT_EQ(TriNot(kTrue), kFalse);
  EXPECT_FALSE(IsTrue(kUnknown));
}

}  // namespace
}  // namespace eca
