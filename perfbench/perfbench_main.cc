// End-to-end benchmark of the ECA optimizer, executor and ecad service.
//
//   perfbench --workload tpch-antijoin|cj-serve --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Untraced (--trace 0), a run sets up, measures a closed loop for S
// seconds through the public entry points (Optimizer::OptimizeGoverned +
// ExecuteGoverned under a QueryContext for tpch-*, an in-process EcadServer
// over its unix socket for cj-serve), checks every answer against a
// reference computed from the query as written, and prints the end-to-end
// metrics. Traced (--trace 1), it replays the same inputs twice, first
// without and then with spans around every call into a layer's public
// function, prints the per-layer metrics and writes a Chrome/Perfetto
// trace to DIR. The last stdout line is one JSON object; README.md lists
// every metric.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "algebra/plan_parser.h"
#include "algebra/validate.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "eca/optimizer.h"
#include "expr/pred_parser.h"
#include "fig6_common.h"
#include "perfbench_lib.h"
#include "service/server.h"
#include "service/session.h"
#include "storage/csv.h"
#include "tpch/paper_queries.h"

namespace perfbench {
namespace {

using eca::Database;
using eca::ExecStats;
using eca::Optimizer;
using eca::PlanPtr;
using eca::QueryContext;
using eca::Relation;
using eca::StatusOr;
using eca::WireMessage;

// --- configuration ----------------------------------------------------------

// Figure 6's selectivity sweep. The TPC-H data is fixed (the seed Figure 6
// uses for its largest scale), so --seed only orders the stream. SF 0.003
// keeps a query near 35 ms on a 4-core host, so a 20 s run holds well
// over the 200 queries its p95 needs.
const double kNuSweep[] = {0, 5, 50, 200, 1000, 5000};
constexpr uint64_t kTpchDataSeed = 44;
constexpr double kTpchSf = 0.003;
// One executor thread: at this scale a second one adds no throughput, and
// with two, ten seeds spread 22-26% (IQR / median) instead of 5-8%.
constexpr int kTpchExecThreads = 1;
constexpr int64_t kSpillSoftBytes = 64 << 10;  // as in bench_spill
constexpr int kSpillRounds = 2;
// Execution's least share of traced tpch-antijoin latency.
constexpr double kMinExecShare = 0.3;
constexpr double kTailQuantile = 0.95;

// cj-serve: two closed-loop clients. The stream is generated up front, so
// it must outlast the fastest run. The plan cache is charged ~100 KiB per
// served request; its cap leaves room for ~20000 requests, twice what a
// 20 s run serves, so a run's distinct queries never get evicted.
constexpr int kServeClients = 2;
constexpr int kServeRequestsPerSecond = 1200;
constexpr int64_t kServeCacheBytes = 2048ll << 20;

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Mb(int64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

int64_t MemoCounter(const char* name) {
  return eca::MetricsRegistry::Global().counter(name)->value();
}

// Run-wide failure list: wrong answers and workload guards. Any entry
// makes the run print correct=false and exit nonzero.
std::vector<std::string>& Problems() {
  static std::vector<std::string> problems;
  return problems;
}

void Require(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  Problems().push_back(what);
}

// --- per-query records --------------------------------------------------------

struct QueryRecord {
  bool repeat = false;  // an earlier request of the run had the same query
  bool answered = false;
  bool correct = false;
  double latency_ms = 0;
  int64_t peak_bytes = 0;
  eca::EnumeratorStats enum_stats;
  int64_t rule_applications = 0;
  bool compensated = false;
  bool degraded = false;
  ExecStats exec;
  int64_t memo_hits = 0;  // memo.hits delta of this query's planning
  int64_t reply_bytes = 0;
};

void NotePlan(const Optimizer::Optimized& best, QueryRecord* rec) {
  rec->enum_stats = best.stats;
  rec->degraded = best.stats.degraded;
  for (const auto& [rule, n] : best.provenance.rule_applications) {
    rec->rule_applications += n;
  }
  for (const auto& [kind, n] : best.provenance.compensations) {
    if (n > 0) rec->compensated = true;
  }
}

struct RunTotals {
  std::vector<QueryRecord> records;
  double elapsed_s = 0;
};

std::vector<double> Latencies(const std::vector<QueryRecord>& records) {
  std::vector<double> out;
  for (const QueryRecord& r : records) {
    if (r.answered) out.push_back(r.latency_ms);
  }
  return out;
}

double Median(const std::vector<double>& v) {
  double out = 0;
  Percentile(v, 0.5, &out);
  return out;
}

// Tail percentile under the ten-beyond rule; a run too short for it fails.
double Tail(const std::vector<double>& v, const char* what) {
  double out = 0;
  if (!Percentile(v, kTailQuantile, &out)) {
    Require(false, std::string(what) + ": " + std::to_string(v.size()) +
                       " samples, p95 needs " +
                       std::to_string(MinSamplesForPercentile(kTailQuantile)));
  }
  return out;
}

// The seven end-to-end metrics. fail_frac is printed with the others but
// travels in the result line as attempted/failed (it is 0 on a healthy
// run, and the result line's metrics must be nonzero).
std::vector<Metric> PrintEndToEnd(const RunTotals& run, double setup_s) {
  std::vector<double> lat = Latencies(run.records);
  int64_t failed = 0;
  std::vector<double> peaks;
  for (const QueryRecord& r : run.records) {
    if (!r.correct) ++failed;
    if (r.answered) peaks.push_back(Mb(r.peak_bytes));
  }
  const double attempted = static_cast<double>(run.records.size());
  std::vector<Metric> metrics = {
      {"qps", (attempted - static_cast<double>(failed)) / run.elapsed_s, "queries/s"},
      {"latency_p50_ms", Median(lat), "ms"},
      {"latency_p95_ms", Tail(lat, "latency_p95_ms"), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"query_peak_mb_mean", Mean(peaks), "MiB"},
  };
  std::printf("%-22s %14s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-22s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-22s %14.6g  %s\n", "fail_frac",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              "ratio");
  std::printf("(%zu answered of %.0f attempted in %.3f s)\n", lat.size(),
              attempted, run.elapsed_s);
  return metrics;
}

// --- per-layer metrics ----------------------------------------------------------

// Per-request sums of layer self times, from the span list.
struct SpanTotals {
  std::vector<int64_t> query_ns;                        // per request
  std::vector<std::map<std::string, int64_t>> call_ns;  // per request
  std::map<std::string, int64_t> layer_ns;  // "service" / "eca" / "exec"
  int64_t covered_ns = 0;                   // all layer spans
};

SpanTotals SumSpans(const std::vector<Span>& spans, size_t num_queries) {
  SpanTotals t;
  t.query_ns.assign(num_queries, 0);
  t.call_ns.assign(num_queries, {});
  std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.query < 0 || static_cast<size_t>(s.query) >= num_queries) continue;
    const size_t q = static_cast<size_t>(s.query);
    if (s.name == "query") {
      t.query_ns[q] += s.end_ns - s.start_ns;
      continue;
    }
    t.call_ns[q][s.name] += self[i];
    t.layer_ns[s.name.substr(0, s.name.find('.'))] += self[i];
    t.covered_ns += self[i];
  }
  return t;
}

// Per-request sums of the named calls' self times, in `unit_ns` units,
// for the requests (optionally only those `keep` accepts) that made them.
template <typename Keep>
std::vector<double> CallSamples(const SpanTotals& t, std::initializer_list<const char*> names,
                                double unit_ns, Keep keep) {
  std::vector<double> out;
  for (size_t q = 0; q < t.call_ns.size(); ++q) {
    if (!keep(q)) continue;
    double sum = 0;
    bool seen = false;
    for (const char* name : names) {
      auto it = t.call_ns[q].find(name);
      if (it == t.call_ns[q].end()) continue;
      sum += static_cast<double>(it->second);
      seen = true;
    }
    if (seen) out.push_back(sum / unit_ns);
  }
  return out;
}

std::vector<double> CallSamples(const SpanTotals& t, std::initializer_list<const char*> names,
                                double unit_ns) {
  return CallSamples(t, names, unit_ns, [](size_t) { return true; });
}

template <typename F>
double MeanOf(const std::vector<QueryRecord>& records, F field) {
  std::vector<double> v;
  for (const QueryRecord& r : records) v.push_back(static_cast<double>(field(r)));
  return Mean(v);
}

struct LayerInputs {
  const std::vector<QueryRecord>* records = nullptr;  // the traced phase
  const std::vector<Span>* spans = nullptr;
  eca::MetricsSnapshot registry_diff;
  double untraced_p50_ms = 0;
  double regret = 0;  // 0 = not measured on this workload
  // Queries run under the spill threshold; null = no spill replay.
  const std::vector<QueryRecord>* spill_records = nullptr;
};

std::vector<Metric> LayerMetrics(const LayerInputs& in, SpanTotals* totals) {
  const std::vector<QueryRecord>& recs = *in.records;
  const std::vector<QueryRecord> none;
  const std::vector<QueryRecord>& spill = in.spill_records != nullptr ? *in.spill_records : none;
  *totals = SumSpans(*in.spans, recs.size());
  const SpanTotals& t = *totals;
  auto counter = [&](const char* name) -> double {
    auto it = in.registry_diff.counters.find(name);
    return it == in.registry_diff.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  auto p95 = [](const std::vector<double>& v, const char* what) {
    return v.empty() ? 0.0 : Tail(v, what);
  };

  const std::vector<double> opt_ms = CallSamples(t, {"eca.optimize"}, 1e6);
  const std::vector<double> opt_first =
      CallSamples(t, {"eca.optimize"}, 1e6, [&](size_t q) { return !recs[q].repeat; });
  const std::vector<double> opt_repeat =
      CallSamples(t, {"eca.optimize"}, 1e6, [&](size_t q) { return recs[q].repeat; });
  std::vector<double> exec_ms = CallSamples(t, {"exec.execute"}, 1e6);
  double exec_total_ms = 0;
  for (double v : exec_ms) exec_total_ms += v;
  int64_t rows = 0;
  for (const QueryRecord& r : recs) rows += r.exec.rows_produced;

  std::vector<double> query_ms;
  int64_t query_total_ns = 0;
  for (int64_t ns : t.query_ns) {
    query_ms.push_back(Ms(ns));
    query_total_ns += ns;
  }
  const double probes = counter("memo.probes");

  return {
      {"service.decode_us_p50", Median(CallSamples(t, {"service.decode"}, 1e3)), "us"},
      {"service.parse_us_p50",
       Median(CallSamples(t, {"service.parse_pred", "service.parse_plan", "service.validate"}, 1e3)),
       "us"},
      {"service.admit_wait_us_p95",
       p95(CallSamples(t, {"service.admit"}, 1e3), "service.admit_wait_us_p95"), "us"},
      {"service.encode_us_p50",
       Median(CallSamples(t, {"service.encode_tbl", "service.encode_msg"}, 1e3)), "us"},
      {"service.reply_bytes_mean", MeanOf(recs, [](const QueryRecord& r) { return r.reply_bytes; }), "bytes"},
      {"eca.optimize_ms_p50", Median(opt_ms), "ms"},
      {"eca.optimize_ms_p95", p95(opt_ms, "eca.optimize_ms_p95"), "ms"},
      {"eca.optimize_ms_first_p50", Median(opt_first), "ms"},
      {"eca.optimize_ms_repeat_p50", Median(opt_repeat), "ms"},
      {"eca.compensated_frac", MeanOf(recs, [](const QueryRecord& r) { return r.compensated; }), "ratio"},
      {"eca.degraded_frac", MeanOf(recs, [](const QueryRecord& r) { return r.degraded; }), "ratio"},
      {"enumerate.subplan_calls_mean", MeanOf(recs, [](const QueryRecord& r) { return r.enum_stats.subplan_calls; }), "count"},
      {"enumerate.cloned_nodes_mean", MeanOf(recs, [](const QueryRecord& r) { return r.enum_stats.cloned_nodes; }), "count"},
      {"enumerate.prunes_mean", MeanOf(recs, [](const QueryRecord& r) { return r.enum_stats.prunes; }), "count"},
      {"enumerate.reuses_mean", MeanOf(recs, [](const QueryRecord& r) { return r.enum_stats.reuses; }), "count"},
      {"enumerate.memo_hit_rate", probes > 0 ? counter("memo.hits") / probes : 0.0, "ratio"},
      {"enumerate.memo_publishes", counter("memo.publishes"), "count"},
      {"enumerate.memo_lru_evictions", counter("memo.lru_evictions"), "count"},
      {"cost.evals_mean", MeanOf(recs, [](const QueryRecord& r) { return r.enum_stats.cost_evals; }), "count"},
      {"cost.choice_regret", in.regret, "ratio"},
      {"rewrite.rule_applications_mean", MeanOf(recs, [](const QueryRecord& r) { return r.rule_applications; }), "count"},
      {"exec.execute_ms_p50", Median(exec_ms), "ms"},
      {"exec.execute_ms_p95", p95(exec_ms, "exec.execute_ms_p95"), "ms"},
      {"exec.join_ms_mean", MeanOf(recs, [](const QueryRecord& r) { return r.exec.join_ms; }), "ms"},
      {"exec.comp_ms_mean", MeanOf(recs, [](const QueryRecord& r) { return r.exec.comp_ms; }), "ms"},
      {"exec.other_ms_mean",
       Mean(exec_ms) - MeanOf(recs, [](const QueryRecord& r) { return r.exec.join_ms + r.exec.comp_ms; }),
       "ms"},
      {"exec.rows_produced_mean", MeanOf(recs, [](const QueryRecord& r) { return r.exec.rows_produced; }), "count"},
      {"exec.hash_build_rows_mean", MeanOf(recs, [](const QueryRecord& r) { return r.exec.hash_build_rows; }), "count"},
      {"exec.probe_comparisons_mean", MeanOf(recs, [](const QueryRecord& r) { return r.exec.probe_comparisons; }), "count"},
      {"exec.ns_per_row", rows > 0 ? exec_total_ms * 1e6 / static_cast<double>(rows) : 0.0, "ns/row"},
      {"storage.spill_bytes_mean", MeanOf(spill, [](const QueryRecord& r) { return r.exec.spill_bytes; }), "bytes"},
      {"storage.spill_read_bytes_mean", MeanOf(spill, [](const QueryRecord& r) { return r.exec.spill_read_bytes; }), "bytes"},
      {"storage.spilled_partitions_mean", MeanOf(spill, [](const QueryRecord& r) { return r.exec.spilled_partitions; }), "count"},
      {"storage.spilled_sort_runs_mean", MeanOf(spill, [](const QueryRecord& r) { return r.exec.spilled_sort_runs; }), "count"},
      {"storage.spilled_query_ms_p50", Median(Latencies(spill)), "ms"},
      {"trace.overhead_frac",
       in.untraced_p50_ms > 0 ? Median(query_ms) / in.untraced_p50_ms - 1 : 0.0, "ratio"},
      {"trace.coverage",
       query_total_ns > 0 ? static_cast<double>(t.covered_ns) / static_cast<double>(query_total_ns) : 0.0,
       "ratio"},
  };
}

void PrintLayers(const std::vector<Metric>& metrics, const SpanTotals& t) {
  std::printf("%-34s %14s  %s\n", "per-layer metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [layer, ns] : t.layer_ns) {
    std::printf("layer self time %-18s %14.3f  ms\n", layer.c_str(), Ms(ns));
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

int Finish(int64_t attempted, int64_t failed, const std::vector<Metric>& metrics) {
  const bool correct = Problems().empty();
  std::fflush(stderr);
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Set-up is timed kSetupRepeats times, each after an untimed teardown of
// the previous one, so every repeat starts from the same state; setup_s is
// the median.
template <typename Setup, typename Teardown>
double TimedSetups(Setup setup, Teardown teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    const int64_t t0 = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(seconds);
}

// --- tpch-antijoin ---------------------------------------------------------------

struct TpchVariant {
  std::string name;  // "Q2/nu=200"
  size_t db = 0;     // index into TpchWorkload::dbs
  PlanPtr plan;      // the query as written
  Relation reference;  // CanonicalRows of the written plan's result
};

struct TpchWorkload {
  std::vector<Database> dbs;  // one per paper query (nu changes only p12)
  std::vector<TpchVariant> variants;
};

TpchWorkload BuildTpch(double sf) {
  TpchWorkload w;
  eca::TpchData data = eca::GenerateTpch(eca::TpchScale::OfSF(sf), kTpchDataSeed);
  for (int q = 1; q <= 3; ++q) {
    eca::PaperQuery pq = q == 1   ? eca::BuildQ1(data, kNuSweep[0])
                         : q == 2 ? eca::BuildQ2(data, kNuSweep[0])
                                  : eca::BuildQ3(data, kNuSweep[0]);
    w.dbs.push_back(std::move(pq.db));
    for (double nu : kNuSweep) {
      TpchVariant v;
      v.name = "Q" + std::to_string(q) + "/nu=" + std::to_string(static_cast<int>(nu));
      v.db = w.dbs.size() - 1;
      v.plan = pq.plan->Clone();
      v.plan->set_pred(eca::PredP12(nu));  // p12 is every query's root
      w.variants.push_back(std::move(v));
    }
  }
  return w;
}

// Rounds of every variant in a seeded order: the mix is balanced whatever
// the run length, and the seed decides the order.
std::vector<int> TpchSchedule(uint64_t seed, size_t num_variants, size_t rounds) {
  eca::Rng rng(seed);
  std::vector<int> out;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<int> round(num_variants);
    for (size_t i = 0; i < num_variants; ++i) round[i] = static_cast<int>(i);
    for (size_t i = num_variants - 1; i > 0; --i) {
      std::swap(round[i], round[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i)))]);
    }
    out.insert(out.end(), round.begin(), round.end());
  }
  return out;
}

Optimizer TpchOptimizer() {
  Optimizer::Options opts;
  opts.approach = Optimizer::Approach::kECA;
  opts.plan_policy = eca::PlanPolicy::kDp;
  opts.num_threads = kTpchExecThreads;
  return Optimizer(opts);
}

// Runs schedule[0..) until `deadline_ns` (or exactly `count` queries when
// count >= 0), one caller, closed loop. Keeps the first chosen plan of
// each variant in *chosen when given.
RunTotals RunTpch(const TpchWorkload& w, const std::vector<int>& schedule,
                  const QueryContext::Limits& limits, int64_t deadline_ns,
                  int64_t count, SpanRecorder* rec, std::vector<PlanPtr>* chosen) {
  const Optimizer opt = TpchOptimizer();
  RunTotals run;
  std::vector<bool> seen(w.variants.size(), false);
  const int64_t start = NowNs();
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (count >= 0 ? static_cast<int64_t>(i) >= count : NowNs() >= deadline_ns) break;
    const TpchVariant& v = w.variants[static_cast<size_t>(schedule[i])];
    const Database& db = w.dbs[v.db];
    QueryRecord r;
    r.repeat = seen[static_cast<size_t>(schedule[i])];
    seen[static_cast<size_t>(schedule[i])] = true;
    std::optional<Optimizer::Optimized> best;
    std::optional<StatusOr<Relation>> result;
    rec->set_query(static_cast<int64_t>(i));
    const int64_t t0 = NowNs();
    {
      SpanRecorder::Scope query(rec, "query");
      QueryContext ctx(limits);
      ctx.Arm();
      {
        SpanRecorder::Scope span(rec, "eca.optimize");
        best.emplace(opt.OptimizeGoverned(*v.plan, db, &ctx));
      }
      SpanRecorder::Scope span(rec, "exec.execute");
      result.emplace(opt.ExecuteGoverned(*best->plan, db, &ctx, &r.exec));
    }
    r.latency_ms = Ms(NowNs() - t0);
    r.answered = true;
    r.peak_bytes = r.exec.peak_bytes;
    NotePlan(*best, &r);
    if (!result->ok()) {
      Require(false, v.name + ": " + result->status().ToString());
    } else {
      r.correct = eca::SameMultiset(CanonicalRows(**result), v.reference);
      Require(r.correct, v.name + ": result differs from the query as written");
    }
    if (chosen != nullptr && (*chosen)[static_cast<size_t>(schedule[i])] == nullptr) {
      (*chosen)[static_cast<size_t>(schedule[i])] = std::move(best->plan);
    }
    run.records.push_back(std::move(r));
  }
  run.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return run;
}

// Per-variant latency and plan choice, on stderr.
void PrintVariantTable(const TpchWorkload& w, const std::vector<int>& schedule,
                       const RunTotals& run) {
  std::vector<std::vector<double>> lat(w.variants.size());
  std::vector<bool> compensated(w.variants.size(), false);
  for (size_t i = 0; i < run.records.size(); ++i) {
    lat[static_cast<size_t>(schedule[i])].push_back(run.records[i].latency_ms);
    compensated[static_cast<size_t>(schedule[i])] = run.records[i].compensated;
  }
  std::fprintf(stderr, "%-14s %6s %12s %12s  %s\n", "variant", "runs", "p50_ms", "max_ms", "plan");
  for (size_t v = 0; v < w.variants.size(); ++v) {
    std::fprintf(stderr, "%-14s %6zu %12.3f %12.3f  %s\n", w.variants[v].name.c_str(), lat[v].size(),
                 Median(lat[v]), lat[v].empty() ? 0.0 : *std::max_element(lat[v].begin(), lat[v].end()),
                 compensated[v] ? "compensated" : "as written");
  }
}

// One governed execution of `plan`, timed; checks the answer.
double TimePlanOnce(const TpchVariant& v, const Database& db, const eca::Plan& plan,
                    const QueryContext::Limits& limits, const char* label) {
  const Optimizer opt = TpchOptimizer();
  QueryContext ctx(limits);
  ctx.Arm();
  const int64_t t0 = NowNs();
  StatusOr<Relation> out = opt.ExecuteGoverned(plan, db, &ctx);
  const double ms = Ms(NowNs() - t0);
  Require(out.ok() && eca::SameMultiset(CanonicalRows(*out), v.reference),
          v.name + ": " + label + " plan gives a wrong answer");
  return ms;
}

// Geomean over variants of t(chosen) / min(t(written), t(Figure 5),
// t(chosen)). A chosen plan identical to one of the other two reuses its
// timing, so a right pick reads exactly 1.
double ChoiceRegret(const TpchWorkload& w, const std::vector<PlanPtr>& chosen,
                    const QueryContext::Limits& limits) {
  double log_sum = 0;
  int n = 0;
  std::printf("%-14s %12s %12s %12s %8s\n", "variant", "written_ms", "fig5_ms",
              "chosen_ms", "regret");
  for (size_t i = 0; i < w.variants.size(); ++i) {
    if (chosen[i] == nullptr) continue;
    const TpchVariant& v = w.variants[i];
    const Database& db = w.dbs[v.db];
    eca::OrderingNodePtr theta = eca::bench::EcaTargetOrdering(v.plan->leaves().Count());
    PlanPtr fig5 = eca::RealizeOrdering(*v.plan, *theta, eca::SwapPolicy::kECA);
    Require(fig5 != nullptr, v.name + ": Figure 5 ordering not realizable");
    if (fig5 == nullptr) continue;
    const double t_written = TimePlanOnce(v, db, *v.plan, limits, "written");
    const double t_fig5 = TimePlanOnce(v, db, *fig5, limits, "Figure 5");
    const double t_chosen =
        eca::PlanEquals(*chosen[i], *v.plan) ? t_written
        : eca::PlanEquals(*chosen[i], *fig5) ? t_fig5
                                             : TimePlanOnce(v, db, *chosen[i], limits, "chosen");
    const double regret = t_chosen / std::min({t_written, t_fig5, t_chosen});
    std::printf("%-14s %12.3f %12.3f %12.3f %8.3f\n", v.name.c_str(), t_written,
                t_fig5, t_chosen, regret);
    log_sum += std::log(regret);
    ++n;
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

// Compensated plans must be some but not all of the stream, or the
// workload no longer exercises the plan choice the paper is about.
void RequireMixedPlans(const RunTotals& run) {
  int64_t compensated = 0;
  for (const QueryRecord& r : run.records) compensated += r.compensated;
  const int64_t n = static_cast<int64_t>(run.records.size());
  Require(compensated > 0 && compensated < n,
          "tpch-antijoin: compensated plans in " + std::to_string(compensated) + " of " +
              std::to_string(n) + " queries (want strictly between)");
}

int64_t Failed(const RunTotals& run) {
  int64_t failed = 0;
  for (const QueryRecord& r : run.records) failed += !r.correct;
  return failed;
}

int RunTpchWorkload(const Args& args) {
  TpchWorkload w;
  const double setup_s =
      TimedSetups([&] { w = BuildTpch(kTpchSf); }, [&] { w = TpchWorkload(); });
  // References: the query as written, unoptimized, through the facade.
  for (TpchVariant& v : w.variants) {
    v.reference = CanonicalRows(Optimizer().Execute(*v.plan, w.dbs[v.db]));
  }
  const size_t rounds = static_cast<size_t>(args.seconds * 100) + 100;
  const std::vector<int> schedule = TpchSchedule(args.seed, w.variants.size(), rounds);
  const QueryContext::Limits in_memory;
  SpanRecorder off(false);
  // One untimed round first, so allocator and thread start-up costs are
  // not charged to the first measured queries.
  RunTpch(w, schedule, in_memory, 0, static_cast<int64_t>(w.variants.size()), &off, nullptr);
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  RunTotals plain = RunTpch(w, schedule, in_memory, deadline, -1, &off, nullptr);
  RequireMixedPlans(plain);
  if (!args.trace) {
    PrintVariantTable(w, schedule, plain);
    std::vector<Metric> metrics = PrintEndToEnd(plain, setup_s);
    return Finish(static_cast<int64_t>(plain.records.size()), Failed(plain), metrics);
  }

  // The untraced pass above sets the query count; the traced pass replays
  // exactly those queries with spans.
  SpanRecorder rec(true);
  std::vector<PlanPtr> chosen(w.variants.size());
  const eca::MetricsSnapshot before = eca::MetricsRegistry::Global().Snapshot();
  RunTotals traced = RunTpch(w, schedule, in_memory, 0,
                             static_cast<int64_t>(plain.records.size()), &rec, &chosen);
  LayerInputs in;
  in.registry_diff = eca::MetricsRegistry::Global().Snapshot().DiffSince(before);
  in.records = &traced.records;
  in.spans = &rec.spans();
  in.untraced_p50_ms = Median(Latencies(plain.records));
  in.regret = ChoiceRegret(w, chosen, in_memory);

  // The storage layer: the stream's first rounds once more under a
  // 64 KiB soft threshold, so every hash join escalates to the grace join
  // and beta/gamma* sort externally, in a per-run temp dir.
  QueryContext::Limits spill;
  spill.mem_soft_bytes = kSpillSoftBytes;
  spill.spill_dir = args.out_dir + "/spill-" + std::to_string(getpid());
  std::filesystem::create_directories(spill.spill_dir);
  RunTotals spilled_run = RunTpch(w, schedule, spill, 0,
                                  static_cast<int64_t>(kSpillRounds * w.variants.size()), &off,
                                  nullptr);
  std::filesystem::remove_all(spill.spill_dir);
  in.spill_records = &spilled_run.records;

  SpanTotals totals;
  std::vector<Metric> metrics = LayerMetrics(in, &totals);
  PrintLayers(metrics, totals);

  int64_t query_ns = 0;
  for (int64_t ns : totals.query_ns) query_ns += ns;
  const double exec_share =
      query_ns > 0 ? static_cast<double>(totals.layer_ns["exec"]) / static_cast<double>(query_ns) : 0;
  std::printf("execution share of traced latency: %.4f\n", exec_share);
  RequireMixedPlans(traced);
  Require(exec_share >= kMinExecShare,
          "tpch-antijoin: execution is " + std::to_string(exec_share) + " of traced latency");
  int64_t not_spilled = 0;
  for (const QueryRecord& r : spilled_run.records) {
    not_spilled += r.exec.spilled_partitions + r.exec.spilled_sort_runs == 0;
  }
  Require(not_spilled == 0,
          "tpch-antijoin: " + std::to_string(not_spilled) + " queries did not spill at 64 KiB");

  const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  Require(WriteFile(path, rec.ToChromeJson()), "cannot write " + path);
  std::printf("trace: %s (%zu spans)\n", path.c_str(), rec.spans().size());
  return Finish(static_cast<int64_t>(traced.records.size() + spilled_run.records.size()),
                Failed(traced) + Failed(spilled_run), metrics);
}

// --- cj-serve ---------------------------------------------------------------------

struct ServeWorkload {
  Database db;
  std::vector<ServeRequest> stream;
  std::vector<Relation> reference;  // CanonicalRows, at distinct indexes
};

eca::ServiceOptions ServeOptions(const std::string& spill_dir) {
  eca::ServiceOptions so;
  so.plan_cache_bytes = kServeCacheBytes;
  so.spill_dir = spill_dir;
  so.num_threads = 1;
  return so;
}

void ServeReferences(ServeWorkload* w) {
  w->reference.resize(w->stream.size());
  for (size_t i = 0; i < w->stream.size(); ++i) {
    if (w->stream[i].repeat) continue;
    PlanPtr plan = ParseRequestPlan(w->stream[i].message);
    Require(plan != nullptr, "cj-serve: request " + std::to_string(i) + " does not parse");
    if (plan != nullptr) w->reference[i] = CanonicalRows(Optimizer().Execute(*plan, w->db));
  }
}

// One in-process replay of stream[0..) through the calls
// ServiceState::HandleQuery makes, in its order, spans around each.
RunTotals ReplayServe(const ServeWorkload& w, const std::string& spill_dir,
                      int64_t deadline_ns, int64_t count, SpanRecorder* rec) {
  eca::ServiceState state(&w.db, ServeOptions(spill_dir));
  const eca::ServiceOptions& so = state.options();
  eca::Counter* memo_hits = eca::MetricsRegistry::Global().counter("memo.hits");
  RunTotals run;
  const int64_t start = NowNs();
  for (size_t i = 0; i < w.stream.size(); ++i) {
    if (count >= 0 ? static_cast<int64_t>(i) >= count : NowNs() >= deadline_ns) break;
    const ServeRequest& req = w.stream[i];
    QueryRecord r;
    r.repeat = req.repeat;
    rec->set_query(static_cast<int64_t>(i));
    std::optional<StatusOr<Relation>> result;
    const int64_t t0 = NowNs();
    {
      SpanRecorder::Scope query(rec, "query");
      std::optional<StatusOr<WireMessage>> msg;
      {
        SpanRecorder::Scope span(rec, "service.decode");
        msg.emplace(eca::DecodeMessage(req.payload));
      }
      if (!msg->ok()) {
        Require(false, "cj-serve: request " + std::to_string(i) + " does not decode");
        run.records.push_back(r);
        continue;
      }
      std::map<std::string, eca::PredRef> preds;
      for (const std::string& spec : (*msg)->FindAll("pred")) {
        const size_t eq = spec.find('=');
        SpanRecorder::Scope span(rec, "service.parse_pred");
        preds[spec.substr(0, eq)] = eca::ParsePredicate(spec.substr(eq + 1), spec.substr(0, eq));
      }
      PlanPtr plan;
      {
        SpanRecorder::Scope span(rec, "service.parse_plan");
        plan = eca::ParsePlan(*(*msg)->Find("plan"), preds);
      }
      bool valid = false;
      if (plan != nullptr) {
        SpanRecorder::Scope span(rec, "service.validate");
        valid = eca::ValidatePlanStatus(*plan, w.db.BaseSchemas()).ok();
      }
      std::optional<StatusOr<eca::Admission>> admitted;
      if (valid) {
        SpanRecorder::Scope span(rec, "service.admit");
        admitted.emplace(state.admission().Admit(so.client_mem_limit_bytes, so.default_timeout_ms));
      }
      if (!valid || !admitted->ok()) {
        Require(false, "cj-serve: request " + std::to_string(i) + " rejected");
        run.records.push_back(r);
        continue;
      }
      {
        QueryContext::Limits limits;
        limits.mem_limit_bytes = so.client_mem_limit_bytes;
        limits.timeout_ms = so.default_timeout_ms;
        limits.spill_dir = so.spill_dir;
        limits.parent_tracker = &state.root_tracker();
        QueryContext ctx(limits);
        ctx.Arm();
        Optimizer::Options opts;
        opts.approach = Optimizer::Approach::kECA;
        opts.plan_policy = so.policy;
        opts.num_threads = so.num_threads;
        opts.sizes_only_fallback_ms = so.admission.degrade_below_ms;
        opts.plan_cache = state.plan_cache();
        const Optimizer opt(opts);
        std::optional<Optimizer::Optimized> best;
        const int64_t hits_before = memo_hits->value();
        {
          SpanRecorder::Scope span(rec, "eca.optimize");
          best.emplace(opt.OptimizeGoverned(*plan, w.db, &ctx));
        }
        r.memo_hits = memo_hits->value() - hits_before;
        NotePlan(*best, &r);
        {
          SpanRecorder::Scope span(rec, "exec.execute");
          result.emplace(opt.ExecuteGoverned(*best->plan, w.db, &ctx, &r.exec));
        }
        // The RESULT reply HandleQuery builds (rows=1: data included).
        WireMessage response;
        if (result->ok()) {
          response.type = "RESULT";
          response.Add("status", eca::StatusCodeName(eca::StatusCode::kOk));
          response.AddInt("rows", (*result)->NumRows());
          SpanRecorder::Scope span(rec, "service.encode_tbl");
          response.Add("data", eca::RelationToTbl(**result));
        } else {
          response = eca::ErrorResponse(result->status());
        }
        response.AddInt("degraded", best->stats.degraded ? 1 : 0);
        if (best->stats.degraded) {
          response.Add("trigger", eca::BudgetTriggerName(best->stats.trigger));
        }
        response.Add("policy", best->provenance.policy);
        response.AddInt("queue_wait_ms", (*admitted)->queue_wait_ms);
        response.AddInt("peak_bytes", r.exec.peak_bytes);
        SpanRecorder::Scope span(rec, "service.encode_msg");
        r.reply_bytes = static_cast<int64_t>(eca::EncodeMessage(response).size());
      }
      state.admission().Release(**admitted);
      if (state.plan_cache() != nullptr &&
          state.plan_cache()->used_bytes() >= state.plan_cache()->max_bytes()) {
        state.plan_cache()->TrySweep();
      }
    }
    r.latency_ms = Ms(NowNs() - t0);
    r.answered = true;
    r.peak_bytes = r.exec.peak_bytes;
    r.correct = result->ok() &&
                eca::SameMultiset(CanonicalRows(**result), w.reference[static_cast<size_t>(req.distinct)]);
    Require(r.correct, "cj-serve: request " + std::to_string(i) + " gives a wrong answer");
    run.records.push_back(std::move(r));
  }
  run.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return run;
}

struct ClientSample {
  size_t index = 0;
  double latency_ms = 0;
  std::optional<StatusOr<WireMessage>> reply;
};

int RunServeWorkload(const Args& args) {
  const std::string run_dir = args.out_dir + "/serve-" + std::to_string(getpid());
  std::filesystem::create_directories(run_dir);
  const std::string socket_path = run_dir + "/ecad.sock";
  const int count = static_cast<int>(args.seconds * kServeRequestsPerSecond) + 1000;

  ServeWorkload w;
  std::unique_ptr<eca::EcadServer> server;
  const double setup_s = TimedSetups(
      [&] {
        w.db = ServeCatalog();
        w.stream = MakeServeStream(args.seed, count);
        if (args.trace) return;
        eca::ServerConfig cfg;
        cfg.socket_path = socket_path;
        cfg.service = ServeOptions(run_dir);
        server = std::make_unique<eca::EcadServer>(&w.db, cfg);
        eca::Status started = server->Start();
        Require(started.ok(), "cj-serve: server start: " + started.ToString());
      },
      [&] {
        server.reset();  // stops it; it serves w.db
        w = ServeWorkload();
      });
  ServeReferences(&w);
  int64_t repeats = 0;
  for (const ServeRequest& r : w.stream) repeats += r.repeat;
  std::fprintf(stderr, "cj-serve: %d requests generated, %lld repeats\n", count,
               static_cast<long long>(repeats));

  int code = 0;
  if (!args.trace) {
    const int64_t hits_before = MemoCounter("memo.hits");
    const int64_t evictions_before = MemoCounter("memo.lru_evictions");
    std::atomic<size_t> next{0};
    std::vector<std::vector<ClientSample>> samples(kServeClients);
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
    std::atomic<int> unconnected{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        StatusOr<int> fd = eca::ConnectUnixSocket(socket_path);
        if (!fd.ok()) {
          unconnected.fetch_add(1);
          return;
        }
        while (NowNs() < deadline) {
          const size_t i = next.fetch_add(1);
          if (i >= w.stream.size()) break;
          ClientSample s;
          s.index = i;
          const int64_t t0 = NowNs();
          s.reply.emplace(eca::RoundTrip(*fd, w.stream[i].message));
          s.latency_ms = Ms(NowNs() - t0);
          samples[static_cast<size_t>(c)].push_back(std::move(s));
        }
        close(*fd);
      });
    }
    for (std::thread& t : clients) t.join();
    RunTotals run;
    run.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    std::fprintf(stderr, "cj-serve: plan cache holds %.1f MiB\n",
                 Mb(server->state().plan_cache()->used_bytes()));
    server->Stop();
    Require(unconnected.load() == 0, "cj-serve: a client could not connect");
    Require(next.load() < w.stream.size(), "cj-serve: request stream ran out");

    // Each reply against its reference, after the window so the check
    // never throttles the closed loop.
    int64_t failed = 0;
    for (auto& per_client : samples) {
      for (ClientSample& s : per_client) {
        QueryRecord r;
        r.latency_ms = s.latency_ms;
        const ServeRequest& req = w.stream[s.index];
        const StatusOr<WireMessage>& reply = *s.reply;
        r.answered = reply.ok();
        if (reply.ok() && reply->type == "RESULT" && reply->Find("data") != nullptr) {
          r.correct = MatchesUpToRelationOrder(w.reference[static_cast<size_t>(req.distinct)],
                                               *reply->Find("data"));
          Require(r.correct, "cj-serve: request " + std::to_string(s.index) + " gives a wrong answer");
          r.peak_bytes = reply->FindInt("peak_bytes", 0).ok() ? *reply->FindInt("peak_bytes", 0) : 0;
        }
        failed += !r.correct;
        run.records.push_back(std::move(r));
      }
    }
    const int64_t hits = MemoCounter("memo.hits") - hits_before;
    std::fprintf(stderr, "cj-serve: memo.hits %lld, memo.lru_evictions %lld\n",
                 static_cast<long long>(hits),
                 static_cast<long long>(MemoCounter("memo.lru_evictions") - evictions_before));
    Require(hits > 0, "cj-serve: repeated requests never hit the plan cache");
    std::vector<Metric> metrics = PrintEndToEnd(run, setup_s);
    code = Finish(static_cast<int64_t>(run.records.size()), failed, metrics);
  } else {
    SpanRecorder off(false);
    const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
    RunTotals plain = ReplayServe(w, run_dir, deadline, -1, &off);
    SpanRecorder rec(true);
    const eca::MetricsSnapshot before = eca::MetricsRegistry::Global().Snapshot();
    RunTotals traced = ReplayServe(w, run_dir, 0, static_cast<int64_t>(plain.records.size()), &rec);
    LayerInputs in;
    in.registry_diff = eca::MetricsRegistry::Global().Snapshot().DiffSince(before);
    in.records = &traced.records;
    in.spans = &rec.spans();
    in.untraced_p50_ms = Median(Latencies(plain.records));
    SpanTotals totals;
    std::vector<Metric> metrics = LayerMetrics(in, &totals);
    PrintLayers(metrics, totals);

    int64_t repeat_misses = 0, failed = 0;
    for (const QueryRecord& r : traced.records) {
      repeat_misses += r.repeat && r.memo_hits == 0;
      failed += !r.correct;
    }
    Require(repeat_misses == 0,
            "cj-serve: " + std::to_string(repeat_misses) + " repeated requests missed the plan cache");
    const int64_t planning = totals.layer_ns["eca"];
    for (const auto& [layer, ns] : totals.layer_ns) {
      Require(layer == "eca" || ns < planning, "cj-serve: layer " + layer + " outweighs planning");
    }
    const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    Require(WriteFile(path, rec.ToChromeJson()), "cannot write " + path);
    std::printf("trace: %s (%zu spans)\n", path.c_str(), rec.spans().size());
    code = Finish(static_cast<int64_t>(traced.records.size()), failed, metrics);
  }
  std::filesystem::remove_all(run_dir);
  return code;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload tpch-antijoin|cj-serve "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  if (args.workload == "tpch-antijoin") return perfbench::RunTpchWorkload(args);
  if (args.workload == "cj-serve") return perfbench::RunServeWorkload(args);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
