// Tests of the benchmark's own code (perfbench_lib.h).

#include "perfbench_lib.h"

#include <gtest/gtest.h>

#include <map>

#include "algebra/plan_parser.h"
#include "algebra/validate.h"
#include "eca/optimizer.h"
#include "expr/pred_parser.h"
#include "storage/csv.h"

namespace perfbench {
namespace {

// --- percentile rule ------------------------------------------------------

TEST(PercentileTest, P95NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesForPercentile(0.95), 200);
  EXPECT_EQ(MinSamplesForPercentile(0.99), 1000);

  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  double out = -1;
  EXPECT_FALSE(Percentile(v, 0.95, &out));
  EXPECT_EQ(out, -1);

  v.push_back(200);
  ASSERT_TRUE(Percentile(v, 0.95, &out));
  EXPECT_EQ(out, 190);  // nearest rank: exactly ten samples (191..200) beyond
}

TEST(PercentileTest, MedianIsNearestRankAndOrderFree) {
  double out = 0;
  ASSERT_TRUE(Percentile({5, 1, 3}, 0.5, &out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(Percentile({4, 1, 3, 2}, 0.5, &out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(Percentile({}, 0.5, &out));
}

// --- self time ------------------------------------------------------------

TEST(SelfTimeTest, ChildrenAreSubtractedOnceAndClippedToTheParent) {
  // query [0, 100) with children optimize [10, 30) and execute [25, 90),
  // which overlap on [25, 30); execute has a child [40, 50).
  std::vector<Span> spans = {
      {"query", 0, 100, -1, 0},
      {"eca.optimize", 10, 30, 0, 0},
      {"exec.execute", 25, 90, 0, 0},
      {"exec.inner", 40, 50, 2, 0},
      {"query", 200, 210, -1, 1},
      {"service.decode", 195, 205, 4, 1},  // starts before its parent
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 80);  // [10, 90) covered
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 65 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 10 - 5);    // only [200, 205) lies inside
}

TEST(SelfTimeTest, RecorderNestsScopes) {
  SpanRecorder rec(true);
  rec.set_query(7);
  {
    SpanRecorder::Scope q(&rec, "query");
    { SpanRecorder::Scope a(&rec, "eca.optimize"); }
    { SpanRecorder::Scope b(&rec, "exec.execute"); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[2].query, 7);
  std::vector<int64_t> self = SelfTimesNs(rec.spans());
  const Span& q = rec.spans()[0];
  EXPECT_EQ(self[0] + self[1] + self[2], q.end_ns - q.start_ns);
  EXPECT_NE(rec.ToChromeJson().find("\"name\":\"exec.execute\""), std::string::npos);

  SpanRecorder off(false);
  { SpanRecorder::Scope q(&off, "query"); }
  EXPECT_TRUE(off.spans().empty());
}

// --- cj-serve request stream ---------------------------------------------

TEST(ServeStreamTest, SameSeedGivesByteIdenticalStreams) {
  std::vector<ServeRequest> a = MakeServeStream(42, 300);
  std::vector<ServeRequest> b = MakeServeStream(42, 300);
  std::vector<ServeRequest> c = MakeServeStream(43, 300);
  ASSERT_EQ(a.size(), 300u);
  ASSERT_EQ(b.size(), 300u);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].payload, b[i].payload) << "request " << i;
    EXPECT_EQ(a[i].repeat, b[i].repeat);
    differs = differs || a[i].payload != c[i].payload;
  }
  EXPECT_TRUE(differs);
}

TEST(ServeStreamTest, AboutThirtyPercentRepeatAnEarlierRequestExactly) {
  std::vector<ServeRequest> s = MakeServeStream(7, 2000);
  int repeats = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const ServeRequest& r = s[i];
    ASSERT_LE(static_cast<size_t>(r.distinct), i);
    EXPECT_EQ(r.payload, s[static_cast<size_t>(r.distinct)].payload);
    EXPECT_FALSE(s[static_cast<size_t>(r.distinct)].repeat);
    EXPECT_EQ(r.repeat, static_cast<size_t>(r.distinct) != i);
    repeats += r.repeat;
  }
  EXPECT_GT(repeats, 2000 * 0.25);
  EXPECT_LT(repeats, 2000 * 0.35);
}

TEST(ServeStreamTest, EveryRequestRoundTripsThroughTheServiceParsers) {
  const eca::Database db = ServeCatalog();
  ASSERT_EQ(db.NumTables(), 10);
  for (const ServeRequest& r : MakeServeStream(3, 400)) {
    eca::StatusOr<eca::WireMessage> msg = eca::DecodeMessage(r.payload);
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    ASSERT_EQ(msg->type, "QUERY");
    ASSERT_EQ(msg->FindInt("rows", 0).value(), 1);
    std::map<std::string, eca::PredRef> preds;
    for (const std::string& spec : msg->FindAll("pred")) {
      const size_t eq = spec.find('=');
      ASSERT_NE(eq, std::string::npos);
      std::string error;
      eca::PredRef p = eca::ParsePredicate(spec.substr(eq + 1), spec.substr(0, eq), &error);
      ASSERT_NE(p, nullptr) << spec << ": " << error;
      EXPECT_TRUE(p->null_intolerant()) << spec;
      preds[spec.substr(0, eq)] = p;
    }
    std::string error;
    eca::PlanPtr plan = eca::ParsePlan(*msg->Find("plan"), preds, &error);
    ASSERT_NE(plan, nullptr) << *msg->Find("plan") << ": " << error;
    EXPECT_EQ(plan->ToInlineString(), *msg->Find("plan"));
    const int rels = plan->leaves().Count();
    EXPECT_GE(rels, 7);
    EXPECT_LE(rels, 10);
    EXPECT_EQ(preds.size(), static_cast<size_t>(rels - 1));
    EXPECT_EQ(plan->ToInlineString().find("foj"), std::string::npos);
    EXPECT_TRUE(eca::ValidatePlanStatus(*plan, db.BaseSchemas()).ok());
  }
}

// --- answer check ---------------------------------------------------------

TEST(AnswerCheckTest, ReorderedPlanRepliesMatchTheirReference) {
  const eca::Database db = ServeCatalog();
  int checked = 0;
  int permuted = 0;  // replies whose relation blocks come in another order
  for (const ServeRequest& r : MakeServeStream(11, 60)) {
    if (r.repeat) continue;
    eca::PlanPtr plan = ParseRequestPlan(r.message);
    ASSERT_NE(plan, nullptr);
    eca::Optimizer opt;
    const eca::Relation reference = CanonicalRows(opt.Execute(*plan, db));
    auto best = opt.Optimize(*plan, db);
    const eca::Relation result = opt.Execute(*best.plan, db);
    EXPECT_TRUE(MatchesUpToRelationOrder(reference, eca::RelationToTbl(result)))
        << *r.message.Find("plan");
    ++checked;
    permuted += !(result.schema() == reference.schema());
  }
  EXPECT_GT(checked, 30);
  EXPECT_GT(permuted, 0);
}

TEST(AnswerCheckTest, RejectsWrongRowsAndAcceptsPermutedBlocks) {
  // Two relations R0(k, a) and R3(k, a); the reply lists R3's block first.
  eca::Schema schema({{0, "k", eca::DataType::kInt64},
                      {0, "a", eca::DataType::kInt64},
                      {3, "k", eca::DataType::kInt64},
                      {3, "a", eca::DataType::kInt64}});
  eca::Relation ref(schema);
  ref.Add({eca::Value::Int(0), eca::Value::Int(1), eca::Value::Int(5), eca::Value::Null()});
  ref.Add({eca::Value::Int(1), eca::Value::Int(1), eca::Value::Int(6), eca::Value::Int(2)});
  ref = CanonicalRows(ref);

  EXPECT_TRUE(MatchesUpToRelationOrder(ref, "6|2|1|1\n5|\\N|0|1\n"));
  EXPECT_TRUE(MatchesUpToRelationOrder(ref, "0|1|5|\\N\n1|1|6|2\n"));
  // Same column multisets, rows recombined wrongly.
  EXPECT_FALSE(MatchesUpToRelationOrder(ref, "6|2|0|1\n5|\\N|1|1\n"));
  EXPECT_FALSE(MatchesUpToRelationOrder(ref, "6|2|1|1\n"));
  EXPECT_FALSE(MatchesUpToRelationOrder(ref, "6|2|1|1\n5|\\N|0|2\n"));
  EXPECT_TRUE(MatchesUpToRelationOrder(eca::Relation(schema), ""));
}

TEST(ResultJsonTest, PrintsEveryMetricWithItsUnit) {
  EXPECT_EQ(ResultJson(true, 3, 0, {{"qps", 2.5, "queries/s"}, {"setup_s", 0.125, "s"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"qps\": {\"value\": 2.5, \"unit\": \"queries/s\"}, "
            "\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
