#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/metrics.h"
#include "storage/relation.h"

namespace eca {

namespace {

constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kDefaultSelectivity = 1.0 / 3.0;
constexpr double kGammaSelectivity = 0.3;   // fraction of all-NULL groups
constexpr double kBetaSurvival = 0.9;       // fraction surviving best-match

double Log2Safe(double x) { return x > 2 ? std::log2(x) : 1.0; }

// True if `pred` contains a top-level equi-conjunct usable as a hash key
// across (left, right).
bool HasEquiConjunct(const Predicate& pred, RelSet left, RelSet right) {
  switch (pred.kind()) {
    case Predicate::Kind::kAnd: {
      for (const PredRef& c : pred.children()) {
        if (HasEquiConjunct(*c, left, right)) return true;
      }
      return false;
    }
    case Predicate::Kind::kCompare: {
      if (pred.cmp_op() != Predicate::CmpOp::kEq) return false;
      RelSet lr = pred.scalar_left()->refs();
      RelSet rr = pred.scalar_right()->refs();
      if (lr.Empty() || rr.Empty()) return false;
      return (left.ContainsAll(lr) && right.ContainsAll(rr)) ||
             (right.ContainsAll(lr) && left.ContainsAll(rr));
    }
    default:
      return false;
  }
}

}  // namespace

TableStats TableStats::FromRelation(const Relation& rel) {
  TableStats stats;
  stats.rows = rel.NumRows();
  for (int c = 0; c < rel.schema().NumColumns(); ++c) {
    const std::string& name = rel.schema().column(c).name;
    if (rel.schema().column(c).type != DataType::kString) {
      // The histogram's exact distinct count (NULLs excluded, clamped to
      // >= 1) doubles as the column's.
      EquiDepthHistogram h = EquiDepthHistogram::Build(rel, c);
      stats.distinct[name] = h.distinct();
      stats.histograms[name] = std::move(h);
      continue;
    }
    // Exact distinct count (small in-memory tables); NULLs excluded.
    std::unordered_set<uint64_t> seen;
    for (const Tuple& t : rel.rows()) {
      const Value& v = t[static_cast<size_t>(c)];
      if (!v.is_null()) seen.insert(v.Hash());
    }
    stats.distinct[name] =
        std::max<int64_t>(1, static_cast<int64_t>(seen.size()));
  }
  return stats;
}

BaseStats BaseStats::Build(const Database& db) {
  static Counter* const builds =
      MetricsRegistry::Global().counter("cost.stats_builds");
  builds->Increment();
  BaseStats out;
  out.tables.reserve(static_cast<size_t>(db.NumTables()));
  out.samples.reserve(static_cast<size_t>(db.NumTables()));
  constexpr int64_t kSampleRows = 64;
  for (int i = 0; i < db.NumTables(); ++i) {
    const Relation& table = db.table(i);
    out.tables.push_back(TableStats::FromRelation(table));
    // Deterministic systematic sample.
    Relation sample(table.schema());
    int64_t n = table.NumRows();
    int64_t step = std::max<int64_t>(1, n / kSampleRows);
    for (int64_t r = 0; r < n && sample.NumRows() < kSampleRows; r += step) {
      sample.Add(table.rows()[static_cast<size_t>(r)]);
    }
    out.samples.push_back(std::move(sample));
  }
  return out;
}

CostModel::CostModel(std::vector<TableStats> base_stats)
    : CostModel(std::make_shared<const BaseStats>(
          BaseStats{std::move(base_stats), {}})) {}

CostModel::CostModel(std::shared_ptr<const BaseStats> stats)
    : stats_(std::move(stats)) {
  ECA_CHECK(stats_ != nullptr);
}

CostModel CostModel::FromDatabase(const Database& db) {
  bool built = false;
  CostModel model(db.Stats([&] {
    built = true;
    return std::make_shared<const BaseStats>(BaseStats::Build(db));
  }));
  model.built_stats_ = built;
  return model;
}

double CostModel::SampleSelectivity(const Predicate& pred) const {
  // Keyed by structural fingerprint, NOT by address: a CostModel outlives
  // individual queries, and a freed Predicate's address is routinely
  // reused by the allocator for the next query's (different) predicate —
  // an address-keyed cache would serve it a stale selectivity.
  const uint64_t key = StructuralFingerprint(pred);
  {
    std::lock_guard<std::mutex> lock(sample_cache_mu_);
    auto cached = sample_cache_.find(key);
    if (cached != sample_cache_.end()) return cached->second;
  }
  RelSet refs = pred.refs();
  if (refs.Empty() || refs.Count() > 2) return -1;
  Schema combined;
  std::vector<const Relation*> rels;
  const std::vector<Relation>& samples = stats_->samples;
  for (int id : refs) {
    if (id >= static_cast<int>(samples.size()) ||
        samples[static_cast<size_t>(id)].NumRows() == 0) {
      return -1;
    }
    const Relation& s = samples[static_cast<size_t>(id)];
    combined = combined.NumColumns() == 0 ? s.schema()
                                          : combined.Concat(s.schema());
    rels.push_back(&s);
  }
  CompiledPredicate compiled(
      PredRef(&pred, [](const Predicate*) {}), combined);
  int64_t trues = 0, total = 0;
  if (rels.size() == 1) {
    for (const Tuple& t : rels[0]->rows()) {
      ++total;
      if (compiled.EvalTrue(t)) ++trues;
    }
  } else {
    for (const Tuple& a : rels[0]->rows()) {
      for (const Tuple& b : rels[1]->rows()) {
        ++total;
        if (compiled.EvalTrue(a, b)) ++trues;
      }
    }
  }
  double sel = total == 0
                   ? -1
                   : static_cast<double>(trues) / static_cast<double>(total);
  {
    std::lock_guard<std::mutex> lock(sample_cache_mu_);
    sample_cache_[key] = sel;
  }
  return sel;
}

double CostModel::DistinctOf(int rel_id, const std::string& column) const {
  const std::vector<TableStats>& base = stats_->tables;
  if (rel_id < 0 || rel_id >= static_cast<int>(base.size())) return 10;
  const auto& d = base[static_cast<size_t>(rel_id)].distinct;
  auto it = d.find(column);
  return it == d.end() ? 10.0 : static_cast<double>(it->second);
}

const EquiDepthHistogram* CostModel::HistogramOf(
    int rel_id, const std::string& column) const {
  const std::vector<TableStats>& base = stats_->tables;
  if (rel_id < 0 || rel_id >= static_cast<int>(base.size())) return nullptr;
  const auto& h = base[static_cast<size_t>(rel_id)].histograms;
  auto it = h.find(column);
  return it == h.end() || it->second.empty() ? nullptr : &it->second;
}

double CostModel::Selectivity(const Predicate& pred) const {
  switch (pred.kind()) {
    case Predicate::Kind::kAnd: {
      double s = 1.0;
      for (const PredRef& c : pred.children()) s *= Selectivity(*c);
      return s;
    }
    case Predicate::Kind::kOr: {
      double keep = 1.0;
      for (const PredRef& c : pred.children()) keep *= 1.0 - Selectivity(*c);
      return 1.0 - keep;
    }
    case Predicate::Kind::kNot:
      return 1.0 - Selectivity(*pred.children()[0]);
    case Predicate::Kind::kConstBool:
      return pred.const_bool() ? 1.0 : 0.0;
    case Predicate::Kind::kIsNull:
      return 0.1;
    case Predicate::Kind::kCompare: {
      const Scalar* l = pred.scalar_left().get();
      const Scalar* r = pred.scalar_right().get();
      if (pred.cmp_op() == Predicate::CmpOp::kEq) {
        // Distinct counts are clamped to >= 1 at every division: an
        // all-NULL column (or user-supplied TableStats) can report 0
        // distinct values, and 1/0 here would poison every cardinality
        // above this predicate with inf.
        double dl = l->kind() == Scalar::Kind::kColumn
                        ? DistinctOf(l->rel_id(), l->column_name())
                        : 10.0;
        double dr = r->kind() == Scalar::Kind::kColumn
                        ? DistinctOf(r->rel_id(), r->column_name())
                        : 10.0;
        if (l->kind() == Scalar::Kind::kConst) return 1.0 / std::max(1.0, dr);
        if (r->kind() == Scalar::Kind::kConst) return 1.0 / std::max(1.0, dl);
        return 1.0 / std::max(1.0, std::max(dl, dr));
      }
      if (pred.cmp_op() == Predicate::CmpOp::kNe) return 0.9;
      // Complex comparison (e.g. col > const * other_col): cross-sample.
      if (pred.scalar_left()->kind() == Scalar::Kind::kArith ||
          pred.scalar_right()->kind() == Scalar::Kind::kArith) {
        double sel = SampleSelectivity(pred);
        if (sel >= 0) return sel;
      }
      // Column-vs-constant range comparison: use the histogram.
      const Scalar* col = nullptr;
      const Scalar* konst = nullptr;
      bool col_on_left = true;
      if (l->kind() == Scalar::Kind::kColumn &&
          r->kind() == Scalar::Kind::kConst) {
        col = l;
        konst = r;
      } else if (r->kind() == Scalar::Kind::kColumn &&
                 l->kind() == Scalar::Kind::kConst) {
        col = r;
        konst = l;
        col_on_left = false;
      }
      if (col != nullptr && !konst->const_value().is_null() &&
          konst->const_value().type() != DataType::kString) {
        const EquiDepthHistogram* h =
            HistogramOf(col->rel_id(), col->column_name());
        if (h != nullptr) {
          double v = konst->const_value().NumericValue();
          double below = h->FractionBelow(v);
          double eq = h->FractionEquals(v);
          double non_null = 1.0 - h->null_fraction();
          bool less =  // is the predicate "col < const"-shaped?
              (pred.cmp_op() == Predicate::CmpOp::kLt ||
               pred.cmp_op() == Predicate::CmpOp::kLe) == col_on_left;
          double frac = less ? below : 1.0 - below - eq;
          if (pred.cmp_op() == Predicate::CmpOp::kLe ||
              pred.cmp_op() == Predicate::CmpOp::kGe) {
            frac += eq;
          }
          return std::clamp(frac, 0.0, 1.0) * non_null;
        }
      }
      return kDefaultRangeSelectivity;
    }
    case Predicate::Kind::kAllNullBlock:
      // The gamma-test as a predicate: the fraction of tuples whose block
      // is all-NULL is exactly what kGammaSelectivity models.
      return kGammaSelectivity;
  }
  return kDefaultSelectivity;
}

CostModel::NodeEstimate CostModel::Estimate(const Plan& plan) const {
  switch (plan.kind()) {
    case Plan::Kind::kLeaf: {
      NodeEstimate e;
      int id = plan.rel_id();
      const std::vector<TableStats>& base = stats_->tables;
      e.rows = id >= 0 && id < static_cast<int>(base.size())
                   ? static_cast<double>(base[static_cast<size_t>(id)].rows)
                   : 100.0;
      e.cost = e.rows;  // scan
      return e;
    }
    case Plan::Kind::kJoin: {
      NodeEstimate l = Estimate(*plan.left());
      NodeEstimate r = Estimate(*plan.right());
      double sel =
          plan.pred() != nullptr ? Selectivity(*plan.pred()) : 1.0;
      double inner = l.rows * r.rows * sel;
      // Probability that a given left (right) tuple finds a match.
      double match_l = r.rows > 0 ? std::min(1.0, sel * r.rows) : 0.0;
      double match_r = l.rows > 0 ? std::min(1.0, sel * l.rows) : 0.0;
      NodeEstimate e;
      switch (plan.op()) {
        case JoinOp::kCross:
          e.rows = l.rows * r.rows;
          break;
        case JoinOp::kInner:
          e.rows = inner;
          break;
        case JoinOp::kLeftOuter:
          e.rows = inner + l.rows * (1.0 - match_l);
          break;
        case JoinOp::kRightOuter:
          e.rows = inner + r.rows * (1.0 - match_r);
          break;
        case JoinOp::kFullOuter:
          e.rows = inner + l.rows * (1.0 - match_l) +
                   r.rows * (1.0 - match_r);
          break;
        case JoinOp::kLeftSemi:
          e.rows = l.rows * match_l;
          break;
        case JoinOp::kRightSemi:
          e.rows = r.rows * match_r;
          break;
        case JoinOp::kLeftAnti:
          e.rows = l.rows * (1.0 - match_l);
          break;
        case JoinOp::kRightAnti:
          e.rows = r.rows * (1.0 - match_r);
          break;
      }
      bool hashable =
          plan.pred() != nullptr &&
          HasEquiConjunct(*plan.pred(), plan.left()->output_rels(),
                          plan.right()->output_rels());
      double join_work =
          hashable ? l.rows + r.rows : std::max(1.0, l.rows * r.rows);
      e.cost = l.cost + r.cost + join_work + e.rows;
      return e;
    }
    case Plan::Kind::kComp: {
      NodeEstimate c = Estimate(*plan.child());
      NodeEstimate e;
      switch (plan.comp().kind) {
        case CompOp::Kind::kLambda:  // scan (Section 6.2)
          e.rows = c.rows;
          e.cost = c.cost + c.rows;
          break;
        case CompOp::Kind::kBeta:  // sort-based: n log n
          e.rows = c.rows * kBetaSurvival;
          e.cost = c.cost + c.rows * Log2Safe(c.rows);
          break;
        case CompOp::Kind::kGamma:  // scan + selection
          e.rows = c.rows * kGammaSelectivity;
          e.cost = c.cost + c.rows;
          break;
        case CompOp::Kind::kGammaStar:  // lambda + beta: n log n
          e.rows = c.rows * kBetaSurvival;
          e.cost = c.cost + c.rows * Log2Safe(c.rows);
          break;
        case CompOp::Kind::kProject:  // scan
          e.rows = c.rows;
          e.cost = c.cost + c.rows;
          break;
      }
      return e;
    }
  }
  return NodeEstimate();
}

double CostModel::Cardinality(const Plan& plan) const {
  return Estimate(plan).rows;
}

double CostModel::Cost(const Plan& plan) const {
  return Estimate(plan).cost;
}

}  // namespace eca
