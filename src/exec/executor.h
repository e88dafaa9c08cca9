#ifndef ECA_EXEC_EXECUTOR_H_
#define ECA_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/status.h"
#include "exec/chunk.h"
#include "exec/database.h"
#include "storage/relation.h"

namespace eca {

class ThreadPool;
class QueryContext;
class FusedCompChain;

// One plan node's entry in the execution profile (EXPLAIN ANALYZE).
struct NodeProfile {
  std::string label;  // operator rendering ("loj[p12]", "gamma{R1}", ...)
  int depth = 0;      // nesting depth, 0 = plan root
  int64_t rows = 0;   // output rows
  double ms = 0;      // wall time of this node's own work, children excluded
  // The node's per-row step ran inside another node's loop (a lambda /
  // gamma / gamma*-modify chain fused into the join probe below it, or
  // into the pass run by the chain's top node); that node's ms covers it.
  bool fused = false;
};

// Execution statistics accumulated over Execute() calls.
struct ExecStats {
  int64_t rows_produced = 0;   // total rows materialized across operators
  int64_t probe_comparisons = 0;
  int64_t join_nodes = 0;
  int64_t comp_nodes = 0;
  int64_t hash_build_rows = 0;  // rows inserted into hash-join tables

  // Per-operator-class wall clock (milliseconds), parallel sections
  // included at their real elapsed time.
  double join_ms = 0;
  double comp_ms = 0;

  // Partition shape of the hash joins executed, measured at a fixed stat
  // fanout (16 hash partitions) independent of the thread count: total
  // stat partitions, the largest/smallest partition, and the worst
  // observed skew (largest partition over the mean partition size; 1.0 =
  // perfectly balanced, higher = one key-hash range dominates). The same
  // query reports the same shape at every --threads value.
  int64_t partitions_built = 0;
  int64_t max_partition_rows = 0;
  int64_t min_partition_rows = 0;
  double partition_skew = 0;
  // True once any hash join seeded the min/max/skew fields above; the
  // min-tracking needs it to distinguish "first build" from "smallest so
  // far" (an explicit flag — the old partitions_built-based heuristic
  // misfired across joins).
  bool partition_stats_seeded = false;

  // Resource-governor counters (governed runs only; all zero when Execute
  // runs without a QueryContext). peak_bytes is the query tracker's
  // high-water mark; the spill counters cover grace hash joins and
  // external-sort compensation operators (docs/robustness.md, "Resource
  // governor").
  int64_t peak_bytes = 0;
  int64_t spilled_partitions = 0;  // grace-join leaf partitions probed
  int64_t spill_bytes = 0;         // serialized bytes written to temp files
  int64_t spill_read_bytes = 0;    // serialized bytes read back
  int64_t spilled_sort_runs = 0;   // external-sort runs spilled (beta/gamma*)

  // The last Execute call's per-node profile, one entry per plan node in
  // preorder (Plan::ToString()'s layout). Rows and times come from the
  // run that produced the result, so they are the same at every thread
  // count and tuning, spilled or not.
  std::vector<NodeProfile> profile;

  void Reset() { *this = ExecStats(); }
};

// Evaluates logical plans (including compensation operators) against an
// in-memory Database, materializing every operator output; leaf scans
// read the Database's tables in place.
//
// Two engine profiles reproduce the paper's two systems: the PostgreSQL-like
// profile prefers hash joins for equi-predicates; the "commercial" profile
// (Appendix F substitute) prefers sort-merge joins, whose different cost
// profile yields the same plan winners with larger factors.
class Executor {
 public:
  enum class JoinPreference {
    kHash,       // hash join for equi-joins, nested loop otherwise
    kSortMerge,  // sort-merge join for equi-joins, nested loop otherwise
  };

  struct Options {
    JoinPreference join_preference = JoinPreference::kHash;
    // Number of threads for morsel-driven join/compensation evaluation.
    // 1 (the default) runs the same morsel loops inline with zero
    // synchronization; results are byte-identical for every value.
    int num_threads = 1;
    // Morsel/chunk granularity (exec/chunk.h). Results are byte-identical
    // for every legal value; the knobs only move work-claim and scratch
    // sizes (and are fuzzed via ecafuzz --morsel-rows/--chunk-rows).
    ExecTuning tuning;
  };

  Executor() : Executor(Options()) {}
  explicit Executor(Options options);
  ~Executor();

  // Evaluates `plan` bottom-up, recording stats() and its per-node
  // profile. Aborts on malformed plans (unresolved columns, schema
  // mismatches) — plans coming out of the rewrite layer are well-formed
  // by construction.
  //
  // A null `ctx` runs ungoverned and always succeeds. A non-null `ctx`
  // governs the run by its memory/deadline/cancellation contract
  // (docs/robustness.md): same plans, same results, three extra outcomes:
  //
  //  - memory pressure past the soft threshold escalates hash joins to the
  //    spilling grace join and beta/gamma* to external merge sort — the
  //    result stays byte-identical to the in-memory engine;
  //  - the hard limit, the deadline, or a Cancel() unwind cleanly with
  //    kResourceExhausted / kDeadlineExceeded / kCancelled;
  //  - stats() gains peak_bytes and the spill counters.
  //
  // `ctx` must already be Arm()ed if a timeout is configured; it is
  // borrowed for the duration of the call only.
  StatusOr<Relation> Execute(const Plan& plan, const Database& db,
                             QueryContext* ctx = nullptr);

  const ExecStats& stats() const { return stats_; }

 private:
  // A plan node's output. A leaf scan borrows the Database's table (no
  // copy, no charge: the table is the Database's); any other node owns its
  // output and records its charge, so the release need not walk the rows.
  struct NodeResult {
    Relation owned;
    const Relation* borrowed = nullptr;
    int64_t charged_bytes = 0;
    const Relation& rel() const {
      return borrowed != nullptr ? *borrowed : owned;
    }
  };

  // Recursive evaluation body at nesting `depth`; Execute wraps it in an
  // "execute" trace span and publishes this call's ExecStats delta as
  // exec.* metrics (docs/observability.md) once the tree is done.
  NodeResult ExecNode(const Plan& plan, const Database& db, int depth);
  // Publishes stats_ minus `before` into MetricsRegistry::Global(), so a
  // registry diff around one Execute call matches stats() exactly.
  void PublishStatsDelta(const ExecStats& before) const;
  // `fused` (optional) is a chain of row-local compensation steps stacked
  // directly above the join in the plan; the join applies it per emitted
  // row inside its probe pipeline. `node` is the join's profile entry.
  Relation ExecJoin(const Plan& plan, const Database& db, size_t node,
                    const FusedCompChain* fused = nullptr);
  // Fusion dispatch: collects the maximal lambda/gamma/gamma*-modify
  // stack rooted at `plan` into a FusedCompChain and runs it inside the
  // base join's probe loop (or as one morsel pass over the materialized
  // base); beta and project are pipeline breakers and run standalone.
  Relation ExecComp(const Plan& plan, const Database& db, int depth);
  // Appends `plan`'s profile entry; returns its index.
  size_t OpenProfile(const Plan& plan, int depth);
  // Charges `out`'s owned rows to the query tracker and records the charge
  // in it; records the error on failure. No-op when ungoverned.
  void ChargeNodeOutput(NodeResult* out);
  void ReleaseNodeOutput(const NodeResult& out);

  Options options_;
  ExecStats stats_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  QueryContext* ctx_ = nullptr;  // non-null only inside a governed Execute
  std::vector<Schema> base_schemas_;  // the Database's, once per Execute
};

// --- Operator building blocks (exposed for unit tests and benches) --------

// Generic join evaluation: uses hash (or sort-merge) join when the predicate
// contains equi-conjuncts across the two inputs, nested loop otherwise.
// The hash path builds one shared chained table (bucket heads plus a
// per-build-row next link) over typed columnar keys (the smaller input
// hosts it for inner/semi/anti joins) and probes in fixed-size morsels
// claimed from a shared cursor, walking one chain per probe row; passing
// a ThreadPool runs build and probe morsel-parallel with output assembled
// in morsel-index order, so the result is byte-identical for every thread
// count (and every `tuning` value). A governed call (non-null ctx)
// additionally observes cancellation and deadline at morsel granularity,
// charges the build index to the memory tracker, and escalates to the
// spilling grace hash join when the build would cross the soft threshold
// — with output still byte-identical. A non-null `fused` chain
// (compensation operators stacked directly above the join) is applied
// per emitted row inside the probe pipeline instead of as separate
// materializing passes.
Relation EvalJoin(JoinOp op, const PredRef& pred, const Relation& left,
                  const Relation& right,
                  Executor::JoinPreference pref = Executor::JoinPreference::kHash,
                  ExecStats* stats = nullptr, ThreadPool* pool = nullptr,
                  QueryContext* ctx = nullptr,
                  const ExecTuning* tuning = nullptr,
                  const FusedCompChain* fused = nullptr);

// Reference nested-loop implementation of every join operator; used to
// validate the hash/sort-merge paths.
Relation EvalJoinNaive(JoinOp op, const PredRef& pred, const Relation& left,
                       const Relation& right);

// lambda_{p,A}: NULLs the columns of relations in `attrs` for every tuple
// on which `pred` does not evaluate to true. A one-step FusedCompChain
// (exec/fused_comp.h) applied sequentially; the executor runs the same
// step fused into the join probe below it.
Relation EvalLambda(const PredRef& pred, RelSet attrs, const Relation& in);

// beta: removes spurious (dominated or duplicated) tuples. Exact
// per-attribute semantics via null-pattern grouping; near-linear when the
// number of distinct null patterns is small (always the case for plan
// intermediates, whose NULLs are relation-block structured).
//
// Convention: a tuple whose every attribute is NULL is spurious (it is the
// identity of the domination order). This is Galindo-Legaria's minimum-union
// semantics; it is required for the compensation identities to hold on
// empty/no-match inputs (e.g. CBA's R1 join R2 = beta(lambda(R1 x R2)) with
// an empty R2, and gamma* above a full outerjoin).
//
// Under a governed ctx whose tracker is past (or would be pushed past) the
// soft threshold, evaluation switches to the external-merge-sort variant of
// EvalBetaSorted: one bounded-memory sort per null pattern, runs spilled
// through the ctx spill dir. Output rows and order are identical.
Relation EvalBeta(const Relation& in, QueryContext* ctx = nullptr,
                  ExecStats* stats = nullptr);

// Reference O(n^2) beta, straight from the Section 2.2 definition (plus the
// all-NULL convention above).
Relation EvalBetaNaive(const Relation& in);

// The paper's sort-based best-match (Section 6.1, the strategy behind
// CBA's SQL implementation): sort so that every spurious tuple is
// immediately preceded by a tuple that dominates or duplicates it, then
// eliminate in a single scan. One sort per distinct null pattern (ordering
// that pattern's non-NULL columns first, NULLS LAST within) makes the
// elimination exact; the paper's remark that "more than one sorting" may
// be needed corresponds to inputs with several patterns. Agrees with
// EvalBeta on all inputs (tested); exposed separately so the two
// implementations can be compared (bench_compensation_ops).
Relation EvalBetaSorted(const Relation& in);

// gamma_A: keeps tuples whose attributes of relations in `attrs` are all
// NULL (Equation 7). A one-step FusedCompChain applied sequentially.
Relation EvalGamma(RelSet attrs, const Relation& in);

// gamma*_{A(B)}: Equation 8 — tuples with all-NULL A pass unchanged; other
// tuples get every attribute outside `keep` NULLed; beta removes spurious
// tuples. The modify half is a one-step FusedCompChain, then EvalBeta.
Relation EvalGammaStar(RelSet attrs, RelSet keep, const Relation& in);

// pi_A at relation granularity.
Relation EvalProject(RelSet attrs, const Relation& in);

// The outer union of CBA's algebra (the paper's notation list): pads each
// input to the union schema with NULLs and concatenates. The inputs'
// relation sets may overlap (shared columns align) or differ (missing
// relations pad).
Relation EvalOuterUnion(const Relation& a, const Relation& b);

// Galindo-Legaria's minimum union: beta(outer union) — the combination
// gamma* builds on (Equation 8 unions the selected and modified tuples and
// best-matches the result).
Relation EvalMinUnion(const Relation& a, const Relation& b);

// Reorders columns into the canonical (rel_id, name) order; rewritten plans
// may emit columns in different orders, so result comparison canonicalizes
// first.
Relation CanonicalizeColumnOrder(const Relation& in);

// Executes both plans and compares canonicalized result multisets.
bool PlansEquivalentOn(const Plan& a, const Plan& b, const Database& db);

}  // namespace eca

#endif  // ECA_EXEC_EXECUTOR_H_
