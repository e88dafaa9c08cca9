#include "exec/executor.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/fused_comp.h"
#include "exec/query_context.h"

namespace eca {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::string NodeLabel(const Plan& plan) {
  switch (plan.kind()) {
    case Plan::Kind::kLeaf:
      return StrCat("scan R", std::to_string(plan.rel_id()));
    case Plan::Kind::kJoin: {
      std::string label = JoinOpName(plan.op());
      if (plan.pred()) label += StrCat("[", plan.pred()->DisplayName(), "]");
      return label;
    }
    case Plan::Kind::kComp:
      return plan.comp().ToString();
  }
  return "?";
}

}  // namespace

Executor::Executor(Options options) : options_(options) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

Executor::~Executor() = default;

StatusOr<Relation> Executor::Execute(const Plan& plan, const Database& db,
                                     QueryContext* ctx) {
  TraceSpan span("execute");
  if (span.active() && ctx != nullptr) {
    span.AppendArg("governed", "yes");
    const int64_t remaining = ctx->RemainingMs();
    if (remaining != INT64_MAX) {
      span.AppendArg("remaining_ms", static_cast<long long>(remaining));
    }
  }
  ctx_ = ctx;
  base_schemas_.clear();  // filled by the first fused chain that needs it
  stats_.profile.clear();
  ExecStats before = stats_;
  NodeResult root = ExecNode(plan, db, 0);
  if (ctx != nullptr) stats_.peak_bytes = ctx->tracker()->peak();
  PublishStatsDelta(before);
  if (ctx != nullptr && ctx->ShouldStop()) {
    Status s = ctx->StopStatus();
    if (!s.ok()) {
      ctx_ = nullptr;
      return s;
    }
  }
  // Release the root's charge (ctx_ must still be set — ReleaseNodeOutput
  // is a no-op otherwise): the caller owns the result now and the tracker
  // balance returns to zero on success (asserted in tests).
  ReleaseNodeOutput(root);
  ctx_ = nullptr;
  // The one copy the executor makes: a bare leaf's result is its table.
  Relation out =
      root.borrowed != nullptr ? *root.borrowed : std::move(root.owned);
  if (span.active()) {
    span.AppendArg("rows", static_cast<long long>(out.NumRows()));
  }
  return out;
}

void Executor::PublishStatsDelta(const ExecStats& before) const {
  auto& reg = MetricsRegistry::Global();
  static Counter* const rows = reg.counter("exec.rows_produced");
  static Counter* const probes = reg.counter("exec.probe_comparisons");
  static Counter* const joins = reg.counter("exec.join_nodes");
  static Counter* const comps = reg.counter("exec.comp_nodes");
  static Counter* const build_rows = reg.counter("exec.hash_build_rows");
  static Counter* const partitions = reg.counter("exec.partitions_built");
  static Counter* const spilled_parts =
      reg.counter("exec.spilled_partitions");
  static Counter* const spill_bytes = reg.counter("exec.spill_bytes");
  static Counter* const spill_read = reg.counter("exec.spill_read_bytes");
  static Counter* const sort_runs = reg.counter("exec.spilled_sort_runs");
  static Histogram* const join_us = reg.histogram("exec.join_us");
  static Histogram* const comp_us = reg.histogram("exec.comp_us");
  static Histogram* const peak = reg.histogram("exec.peak_bytes");
  rows->Add(stats_.rows_produced - before.rows_produced);
  probes->Add(stats_.probe_comparisons - before.probe_comparisons);
  joins->Add(stats_.join_nodes - before.join_nodes);
  comps->Add(stats_.comp_nodes - before.comp_nodes);
  build_rows->Add(stats_.hash_build_rows - before.hash_build_rows);
  partitions->Add(stats_.partitions_built - before.partitions_built);
  spilled_parts->Add(stats_.spilled_partitions - before.spilled_partitions);
  spill_bytes->Add(stats_.spill_bytes - before.spill_bytes);
  spill_read->Add(stats_.spill_read_bytes - before.spill_read_bytes);
  sort_runs->Add(stats_.spilled_sort_runs - before.spilled_sort_runs);
  if (stats_.join_nodes > before.join_nodes) {
    join_us->Record(
        static_cast<int64_t>((stats_.join_ms - before.join_ms) * 1000.0));
  }
  if (stats_.comp_nodes > before.comp_nodes) {
    comp_us->Record(
        static_cast<int64_t>((stats_.comp_ms - before.comp_ms) * 1000.0));
  }
  if (stats_.peak_bytes > 0) peak->Record(stats_.peak_bytes);
}

size_t Executor::OpenProfile(const Plan& plan, int depth) {
  NodeProfile p;
  p.label = NodeLabel(plan);
  p.depth = depth;
  stats_.profile.push_back(std::move(p));
  return stats_.profile.size() - 1;
}

Executor::NodeResult Executor::ExecNode(const Plan& plan, const Database& db,
                                        int depth) {
  // Governed runs stop descending the moment the query is cancelled, past
  // its deadline, or carrying an error: subtrees return empty relations
  // that Execute discards in favor of StopStatus().
  NodeResult out;
  if (ctx_ != nullptr && ctx_->ShouldStop()) return out;
  switch (plan.kind()) {
    case Plan::Kind::kLeaf: {
      // A scan does no work: its consumers read the table in place.
      out.borrowed = &db.table(plan.rel_id());
      const size_t node = OpenProfile(plan, depth);
      stats_.profile[node].rows = out.borrowed->NumRows();
      return out;
    }
    case Plan::Kind::kJoin:
      out.owned = ExecJoin(plan, db, OpenProfile(plan, depth));
      break;
    case Plan::Kind::kComp:
      out.owned = ExecComp(plan, db, depth);
      break;
  }
  // Every owned node output is charged to the query tracker as it comes
  // into existence; the parent releases it once consumed.
  ChargeNodeOutput(&out);
  return out;
}

void Executor::ChargeNodeOutput(NodeResult* out) {
  if (ctx_ == nullptr || ctx_->HasError() || out->owned.NumRows() == 0) return;
  ExecCharge charge(ctx_);
  Status s = charge.Add(ApproxRowsBytes(out->owned.rows()), "operator output");
  if (!s.ok()) {
    ctx_->RecordError(std::move(s));
    return;
  }
  out->charged_bytes = charge.Detach();
}

void Executor::ReleaseNodeOutput(const NodeResult& out) {
  // Mirror of ChargeNodeOutput; once an error is recorded charges stop,
  // so releases stop too (the failed query's tracker is discarded).
  if (ctx_ == nullptr || ctx_->HasError() || out.charged_bytes == 0) return;
  ctx_->tracker()->Release(out.charged_bytes);
}

Relation Executor::ExecJoin(const Plan& plan, const Database& db,
                            size_t node, const FusedCompChain* fused) {
  const int depth = stats_.profile[node].depth;
  NodeResult left = ExecNode(*plan.left(), db, depth + 1);
  NodeResult right = ExecNode(*plan.right(), db, depth + 1);
  if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
  ++stats_.join_nodes;
  TraceSpan span("join");
  if (span.active()) {
    span.AppendArg("op", JoinOpName(plan.op()));
    if (fused != nullptr && !fused->empty()) {
      span.AppendArg("fused_steps",
                     static_cast<long long>(fused->num_steps()));
    }
  }
  auto t0 = Clock::now();
  Relation out = EvalJoin(plan.op(), plan.pred(), left.rel(), right.rel(),
                          options_.join_preference, &stats_, pool_.get(),
                          ctx_, &options_.tuning, fused);
  const double ms = MsSince(t0);
  stats_.join_ms += ms;
  stats_.rows_produced += out.NumRows();
  stats_.profile[node].ms = ms;
  stats_.profile[node].rows = out.NumRows();
  if (span.active()) {
    span.AppendArg("rows", static_cast<long long>(out.NumRows()));
  }
  ReleaseNodeOutput(left);
  ReleaseNodeOutput(right);
  return out;
}

namespace {

const char* CompSpanName(CompOp::Kind kind) {
  switch (kind) {
    case CompOp::Kind::kLambda:
      return "comp/lambda";
    case CompOp::Kind::kBeta:
      return "comp/beta";
    case CompOp::Kind::kGamma:
      return "comp/gamma";
    case CompOp::Kind::kGammaStar:
      return "comp/gamma-star";
    case CompOp::Kind::kProject:
      return "comp/project";
  }
  return "comp";
}

}  // namespace

Relation Executor::ExecComp(const Plan& plan, const Database& db,
                            int depth) {
  // Collect the maximal fusable stack of row-local compensation steps
  // rooted at this node: lambda and gamma always fuse; gamma* fuses only
  // as the top of the segment (its best-match half, beta, must run after
  // every fused step, so nothing above a gamma* can join its chain). The
  // walk stops at the first pipeline breaker (beta, project) or non-comp
  // node — that node is the segment's base.
  std::vector<const Plan*> fusable;  // top-down plan order
  const Plan* base = &plan;
  while (base->kind() == Plan::Kind::kComp) {
    const CompOp& op = base->comp();
    bool can_fuse =
        op.kind == CompOp::Kind::kLambda || op.kind == CompOp::Kind::kGamma ||
        (op.kind == CompOp::Kind::kGammaStar && fusable.empty());
    if (!can_fuse) break;
    fusable.push_back(base);
    base = &*base->child();
  }

  if (fusable.empty()) {
    // Pipeline breaker at the top (beta or project): materialize the
    // child (recursively fusing below it) and run the breaker.
    const CompOp& c = plan.comp();
    const size_t node = OpenProfile(plan, depth);
    NodeResult child = ExecNode(*plan.child(), db, depth + 1);
    if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
    ++stats_.comp_nodes;
    TraceSpan span(CompSpanName(c.kind));
    auto t0 = Clock::now();
    Relation out = c.kind == CompOp::Kind::kBeta
                       ? EvalBeta(child.rel(), ctx_, &stats_)
                       : EvalProject(c.attrs, child.rel());
    const double ms = MsSince(t0);
    stats_.comp_ms += ms;
    stats_.rows_produced += out.NumRows();
    stats_.profile[node].ms = ms;
    stats_.profile[node].rows = out.NumRows();
    if (span.active()) {
      span.AppendArg("rows", static_cast<long long>(out.NumRows()));
    }
    ReleaseNodeOutput(child);
    return out;
  }

  // Compile the chain against the base's output schema (every fused step
  // is schema-preserving, so one schema serves the whole chain), deepest
  // step first — the order the rows would have met the operators. The
  // profile lists the segment top-down, as the plan does.
  const bool gamma_star_top =
      fusable.front()->comp().kind == CompOp::Kind::kGammaStar;
  const size_t top = stats_.profile.size();
  for (size_t i = 0; i < fusable.size(); ++i) {
    OpenProfile(*fusable[i], depth + static_cast<int>(i));
  }
  const int base_depth = depth + static_cast<int>(fusable.size());
  FusedCompChain chain;
  if (base_schemas_.empty()) base_schemas_ = db.BaseSchemas();
  Schema base_schema = PlanOutputSchema(*base, base_schemas_);
  for (auto it = fusable.rbegin(); it != fusable.rend(); ++it) {
    const CompOp& op = (*it)->comp();
    switch (op.kind) {
      case CompOp::Kind::kLambda:
        chain.AddLambda(op.pred, op.attrs, base_schema);
        break;
      case CompOp::Kind::kGamma:
        chain.AddGamma(op.attrs, base_schema);
        break;
      case CompOp::Kind::kGammaStar:
        chain.AddGammaStarModify(op.attrs, op.keep, base_schema);
        break;
      default:
        break;
    }
  }

  Relation out;
  double top_ms = 0;
  size_t join_node = SIZE_MAX;
  if (base->kind() == Plan::Kind::kJoin) {
    // The chain rides the join's probe pipeline: every emitted row passes
    // through it in place, no intermediate relation exists. Its time is
    // the join's.
    join_node = OpenProfile(*base, base_depth);
    out = ExecJoin(*base, db, join_node, &chain);
  } else {
    NodeResult base_rel = ExecNode(*base, db, base_depth);
    if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
    TraceSpan span("comp/fused");
    if (span.active()) {
      span.AppendArg("steps", static_cast<long long>(chain.num_steps()));
    }
    auto t0 = Clock::now();
    out = ApplyFusedChain(chain, base_rel.rel(), pool_.get(), ctx_,
                          &options_.tuning);
    top_ms = MsSince(t0);
    stats_.comp_ms += top_ms;
    ReleaseNodeOutput(base_rel);
  }
  stats_.comp_nodes += static_cast<int64_t>(fusable.size());
  // Each segment node's output: the chain's output plus what the gamma
  // filters above it dropped (step k of the chain is fusable[n-1-k]).
  // A node is fused when its step ran inside another node's loop: the
  // join's probe, or the chain pass the segment's top node ran.
  int64_t rows = out.NumRows();
  for (size_t i = 0; i < fusable.size(); ++i) {
    stats_.profile[top + i].rows = rows;
    stats_.profile[top + i].fused = join_node != SIZE_MAX || i > 0;
    rows += chain.dropped(static_cast<int>(fusable.size() - 1 - i));
  }
  // A join's own output is what entered the chain.
  if (join_node != SIZE_MAX) stats_.profile[join_node].rows = rows;

  // gamma* at the segment top: its modify half ran fused above; the
  // best-match half is a pipeline breaker over the materialized result.
  if (gamma_star_top) {
    if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
    TraceSpan bspan("comp/beta");
    auto t0 = Clock::now();
    Relation bout = EvalBeta(out, ctx_, &stats_);
    const double ms = MsSince(t0);
    stats_.comp_ms += ms;
    top_ms += ms;
    if (bspan.active()) {
      bspan.AppendArg("rows", static_cast<long long>(bout.NumRows()));
    }
    out = std::move(bout);
    stats_.profile[top].rows = out.NumRows();
  }
  stats_.profile[top].ms = top_ms;
  stats_.rows_produced += out.NumRows();
  return out;
}

bool PlansEquivalentOn(const Plan& a, const Plan& b, const Database& db) {
  Executor ea, eb;
  Relation ra = CanonicalizeColumnOrder(ea.Execute(a, db).value());
  Relation rb = CanonicalizeColumnOrder(eb.Execute(b, db).value());
  return SameMultiset(ra, rb);
}

}  // namespace eca
