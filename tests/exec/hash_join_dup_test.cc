// Hash joins whose build side is dominated by duplicate keys.
//
// The join table chains every build row onto its bucket with one CAS, so a
// key shared by thousands of build rows costs no more to insert than a
// unique one. What must not move with the table layout: output bytes at
// every (threads, morsel_rows, chunk_rows), the multiset the nested-loop
// oracle produces, the spilled grace join's bytes, and probe_comparisons —
// the number of hash-equal build candidates each probe row meets.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "exec/chunk.h"
#include "exec/executor.h"
#include "exec/query_context.h"

#include "../test_util.h"

namespace eca {
namespace {

using Keys = std::vector<std::optional<int64_t>>;

constexpr JoinOp kAllOps[] = {
    JoinOp::kInner,     JoinOp::kLeftOuter, JoinOp::kRightOuter,
    JoinOp::kFullOuter, JoinOp::kLeftSemi,  JoinOp::kRightSemi,
    JoinOp::kLeftAnti,  JoinOp::kRightAnti,
};

// Columns (rel_id.a, rel_id.b): `a` is the join key (nullopt = NULL), `b`
// a payload the residual predicate compares.
Relation KeyedRel(int rel_id, const Keys& keys) {
  Relation rel(Schema({{rel_id, "a", DataType::kInt64},
                       {rel_id, "b", DataType::kInt64}}));
  for (size_t r = 0; r < keys.size(); ++r) {
    rel.Add({keys[r] ? I(*keys[r]) : N(),
             I(static_cast<int64_t>((r * 37 + static_cast<size_t>(rel_id)) %
                                    101))});
  }
  return rel;
}

// The build side is R1 (right): every shape has |left| >= |right|, so the
// inner, semi and anti joins host the table on the right as the outer
// joins always do. The probe sides carry few matching keys to keep the
// output small.
struct Shape {
  const char* name;
  Keys left;
  Keys right;
};

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  {
    // 1 key x 3,000 build rows; 2 of 3,000 probe rows carry it.
    Shape s{"one-key-3000", Keys(3000), Keys(3000, int64_t{7})};
    for (int64_t i = 0; i < 3000; ++i) {
      s.left[static_cast<size_t>(i)] = i % 1500 == 0 ? 7 : 100 + i;
    }
    shapes.push_back(std::move(s));
  }
  {
    // 30 keys x 80 build rows, interleaved so each key's rows span every
    // morsel; 30 of 2,400 probe rows match, one per key.
    Shape s{"30-keys-x-80", Keys(2400), Keys(2400)};
    for (int64_t i = 0; i < 2400; ++i) {
      s.right[static_cast<size_t>(i)] = i % 30;
      s.left[static_cast<size_t>(i)] = i;
    }
    shapes.push_back(std::move(s));
  }
  {
    // A mix: NULL keys on both sides, one hot key and a spread of
    // moderately duplicated ones.
    Shape s{"mixed-with-nulls", Keys(1200), Keys(1000)};
    for (int64_t i = 0; i < 1000; ++i) {
      std::optional<int64_t> k;
      if (i % 5 != 0 && i % 5 != 3) k = i % 7 == 0 ? 3 : i % 50;
      s.right[static_cast<size_t>(i)] = k;
    }
    for (int64_t i = 0; i < 1200; ++i) {
      std::optional<int64_t> k;
      if (i % 5 != 1) k = i % 400;
      s.left[static_cast<size_t>(i)] = k;
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

PredRef KeyPred(bool residual) {
  PredRef eq = EquiJoin(0, "a", 1, "a", "p01");
  if (!residual) return eq;
  return Predicate::And({eq, Predicate::Compare(Predicate::CmpOp::kLt,
                                                Scalar::Column(0, "b"),
                                                Scalar::Column(1, "b"))});
}

// Hash-equal (probe row, build row) candidate pairs: what the probe loop
// counts as probe_comparisons, whatever the table's layout. Hashes come
// from the executor's own columnar key extraction.
int64_t HashEqualCandidates(const Relation& left, const Relation& right) {
  const ScalarRef lexpr = Scalar::Column(0, "a");
  const ScalarRef rexpr = Scalar::Column(1, "a");
  const std::vector<KeyColumn::Tag> tags = {
      KeyColumn::TagFor(rexpr, right.schema(), lexpr, left.schema())};
  auto extract = [&](const Relation& rel, const ScalarRef& expr) {
    KeyChunkSet keys;
    keys.Reset(tags, rel.NumRows());
    const std::vector<int> cols = {
        rel.schema().FindColumn(expr->rel_id(), expr->column_name())};
    for (int64_t r = 0; r < rel.NumRows(); ++r) {
      keys.ExtractRow(r, rel.rows()[static_cast<size_t>(r)], cols, {expr},
                      rel.schema());
    }
    return keys;
  };
  const KeyChunkSet build = extract(right, rexpr);
  const KeyChunkSet probe = extract(left, lexpr);
  std::unordered_map<uint64_t, int64_t> per_hash;
  for (int64_t r = 0; r < right.NumRows(); ++r) {
    if (build.ValidAt(r)) ++per_hash[build.hashes[static_cast<size_t>(r)]];
  }
  int64_t candidates = 0;
  for (int64_t r = 0; r < left.NumRows(); ++r) {
    if (!probe.ValidAt(r)) continue;
    auto it = per_hash.find(probe.hashes[static_cast<size_t>(r)]);
    if (it != per_hash.end()) candidates += it->second;
  }
  return candidates;
}

// EvalJoinNaive without its |left| x |right| cost: rows with different
// keys never satisfy the equi-conjunct and a NULL key matches nothing, so
// the union of the oracle over each key's slice of both sides (NULL keys
// in a slice of their own) is the oracle over the whole inputs — for
// every operator, padding and semi/anti selection included.
Relation NaiveByKey(JoinOp op, const PredRef& pred, const Relation& left,
                    const Relation& right) {
  std::map<std::optional<int64_t>, std::pair<Relation, Relation>> slices;
  auto slice = [&](const Tuple& row) -> std::pair<Relation, Relation>& {
    std::optional<int64_t> key;
    if (!row[0].is_null()) key = row[0].AsInt();
    auto it = slices.find(key);
    if (it == slices.end()) {
      it = slices
               .emplace(key, std::make_pair(Relation(left.schema()),
                                            Relation(right.schema())))
               .first;
    }
    return it->second;
  };
  for (const Tuple& row : left.rows()) slice(row).first.Add(row);
  for (const Tuple& row : right.rows()) slice(row).second.Add(row);
  Relation out;
  bool first = true;
  for (const auto& [key, sides] : slices) {
    Relation part = EvalJoinNaive(op, pred, sides.first, sides.second);
    if (first) out = Relation(part.schema());
    first = false;
    for (const Tuple& row : part.rows()) out.Add(row);
  }
  return out;
}

void ExpectIdentical(const Relation& expected, const Relation& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.schema(), actual.schema()) << context;
  ASSERT_EQ(expected.NumRows(), actual.NumRows()) << context;
  for (size_t r = 0; r < expected.rows().size(); ++r) {
    ASSERT_EQ(CompareTuples(expected.rows()[r], actual.rows()[r]), 0)
        << context << ": first difference at row " << r;
  }
}

int64_t ValidKeys(const Keys& keys) {
  int64_t n = 0;
  for (const auto& k : keys) n += k.has_value() ? 1 : 0;
  return n;
}

TEST(HashJoinDupTest, EveryOpEveryTuningMatchesOracleAndSpill) {
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool2, &pool4};
  const int64_t morsel_rows[] = {1, 7, 4096};
  const int64_t chunk_rows[] = {1, 1024};

  for (const Shape& shape : Shapes()) {
    const Relation left = KeyedRel(0, shape.left);
    const Relation right = KeyedRel(1, shape.right);
    const int64_t candidates = HashEqualCandidates(left, right);
    ASSERT_GT(candidates, 0) << shape.name;
    for (bool residual : {false, true}) {
      const PredRef pred = KeyPred(residual);
      for (JoinOp op : kAllOps) {
        const std::string ctx_name = std::string(shape.name) + " " +
                                     JoinOpName(op) +
                                     (residual ? " +residual" : "");
        ExecStats ref_stats;
        const Relation reference =
            EvalJoin(op, pred, left, right, Executor::JoinPreference::kHash,
                     &ref_stats);
        EXPECT_EQ(ref_stats.probe_comparisons, candidates) << ctx_name;
        EXPECT_EQ(ref_stats.hash_build_rows, ValidKeys(shape.right))
            << ctx_name << ": the right side hosts the table";
        ExpectSameRelation(NaiveByKey(op, pred, left, right), reference,
                           ctx_name);

        for (ThreadPool* pool : pools) {
          for (int64_t m : morsel_rows) {
            for (int64_t c : chunk_rows) {
              ExecTuning tuning;
              tuning.morsel_rows = m;
              tuning.chunk_rows = c;
              ExecStats stats;
              const Relation got =
                  EvalJoin(op, pred, left, right,
                           Executor::JoinPreference::kHash, &stats, pool,
                           /*ctx=*/nullptr, &tuning);
              const std::string where =
                  ctx_name + " threads=" +
                  std::to_string(pool != nullptr ? pool->num_threads() : 1) +
                  " morsel=" + std::to_string(m) +
                  " chunk=" + std::to_string(c);
              ExpectIdentical(reference, got, where);
              EXPECT_EQ(stats.probe_comparisons, candidates) << where;
            }
          }
        }

        // Soft limit of one byte: the grace join spills every partition
        // and must reproduce the in-memory bytes.
        QueryContext::Limits limits;
        limits.mem_soft_bytes = 1;
        QueryContext qctx(limits);
        ExecStats spill_stats;
        const Relation spilled =
            EvalJoin(op, pred, left, right, Executor::JoinPreference::kHash,
                     &spill_stats, /*pool=*/nullptr, &qctx);
        ASSERT_FALSE(qctx.HasError())
            << ctx_name << ": " << qctx.StopStatus().ToString();
        EXPECT_GT(spill_stats.spilled_partitions, 0) << ctx_name;
        ExpectIdentical(reference, spilled, ctx_name + " spilled");
        EXPECT_EQ(spill_stats.probe_comparisons, candidates) << ctx_name;
        EXPECT_EQ(qctx.tracker()->used(), 0) << ctx_name;
      }
    }
  }
}

}  // namespace
}  // namespace eca
