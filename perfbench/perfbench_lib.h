#ifndef ECA_PERFBENCH_PERFBENCH_LIB_H_
#define ECA_PERFBENCH_PERFBENCH_LIB_H_

// The testable pieces of the end-to-end benchmark (perfbench_main.cc):
// percentiles, the span recorder and its self-time rule, the seeded
// cj-serve request stream, and the reply check that tolerates the column
// reordering a join reordering causes. perfbench_test.cc covers each.

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "exec/database.h"
#include "service/wire.h"
#include "storage/relation.h"

namespace perfbench {

// --- percentiles ----------------------------------------------------------

// Smallest sample count for which the nearest-rank q-quantile has at
// least ten samples strictly beyond it (200 for q = 0.95).
int64_t MinSamplesForPercentile(double q);

// Nearest-rank q-quantile (0 < q <= 1) of `samples`. Returns false, and
// leaves *out alone, when fewer than ten samples would lie beyond it: a
// tail percentile read off fewer samples is noise, not a measurement.
// The median (q = 0.5) is exempt from the ten-beyond rule.
bool Percentile(std::vector<double> samples, double q, double* out);

double Mean(const std::vector<double>& samples);

// --- spans ----------------------------------------------------------------

struct Span {
  std::string name;  // "<layer>.<call>", or "query" for the request root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     // index into the span list; -1 for a root
  int64_t query = -1;  // request id shared by every span of one request
};

// Self time of each span: its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Records nested spans from the benchmark's own code. Disabled, Scope
// construction is one branch and nothing is stored. Single-threaded: one
// recorder per replay thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  // Tags spans opened from now on with request id `query`.
  void set_query(int64_t query) { query_ = query; }
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("traceEvents", ph "X"), loadable in
  // https://ui.perfetto.dev and chrome://tracing.
  std::string ToChromeJson() const;

 private:
  bool enabled_;
  int64_t query_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indexes
};

int64_t NowNs();

// --- cj-serve inputs ------------------------------------------------------

// The served catalog: ten RandomDatabase relations in the default small
// shape, from a fixed seed (the same catalog for every run).
eca::Database ServeCatalog();

struct ServeRequest {
  eca::WireMessage message;  // QUERY: plan, one pred per join, rows=1
  std::string payload;       // EncodeMessage(message)
  int distinct = 0;          // index of the first request with these bytes
  bool repeat = false;       // true when an earlier request had these bytes
};

// `count` requests from `seed`: C_J^{no-foj} RandomQuery plans over 7-10
// relations (inner, left/right outer, semi and anti joins; null-intolerant
// predicates), with about 30% of requests repeating an earlier request
// byte for byte. Deterministic in (seed, count).
std::vector<ServeRequest> MakeServeStream(uint64_t seed, int count);

// The plan of a QUERY request, parsed with its pred fields the way the
// service parses it; nullptr when a field does not parse.
eca::PlanPtr ParseRequestPlan(const eca::WireMessage& msg);

// --- answer checks --------------------------------------------------------

// `rel` with its relation blocks in rel_id order (each block keeps its
// base-table column order, as every plan emits it) and its rows sorted:
// the form in which a reordered plan's result equals the written query's.
eca::Relation CanonicalRows(const eca::Relation& rel);

// True when `tbl` (RelationToTbl text) holds the same multiset of rows as
// `reference` (in CanonicalRows form) once the reply's per-relation column blocks are put back in
// reference order. Reordered plans emit the same columns with relation
// blocks permuted; the wire reply carries no schema, so the block order is
// recovered from the data (a search over the block permutations whose
// per-block value multisets agree).
bool MatchesUpToRelationOrder(const eca::Relation& reference,
                              const std::string& tbl);

// --- result line ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The benchmark's last stdout line.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // ECA_PERFBENCH_PERFBENCH_LIB_H_
