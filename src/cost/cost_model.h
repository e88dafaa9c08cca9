#ifndef ECA_COST_COST_MODEL_H_
#define ECA_COST_COST_MODEL_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "cost/histogram.h"
#include "exec/database.h"

namespace eca {

// Per-table statistics used by the cardinality estimator.
struct TableStats {
  int64_t rows = 0;
  // Distinct-value estimates per column name.
  std::unordered_map<std::string, int64_t> distinct;
  // Equi-depth histograms per numeric column (column-vs-constant
  // selectivity for range predicates).
  std::unordered_map<std::string, EquiDepthHistogram> histograms;

  static TableStats FromRelation(const Relation& rel);
};

// The statistics of every base table of a Database, immutable once built:
// one snapshot is shared by every CostModel over that Database
// (Database::Stats; docs/performance.md, "Statistics lifetime").
struct BaseStats {
  std::vector<TableStats> tables;  // per rel_id
  std::vector<Relation> samples;   // per rel_id; may be empty

  // Computes fresh statistics and a deterministic systematic 64-row
  // sample for every table of `db`. Bumps cost.stats_builds.
  static BaseStats Build(const Database& db);
};

// Cardinality estimation and plan costing (Section 6.2).
//
// Join cardinalities use textbook selectivity estimation: 1/max(d1,d2) for
// equi-conjuncts, equi-depth histograms for column-vs-constant ranges, and
// cross-sample evaluation for everything else (each base table keeps a
// small row sample; a predicate like s_acctbal > nu * ps_supplycost is
// estimated by evaluating it over the cross product of the referenced
// tables' samples — this is what lets the optimizer track the paper's f12
// sweep). Costs follow a C_out-style
// model: the sum of intermediate result sizes, plus per-operator terms —
// hash joins pay |L|+|R|, nested-loop joins pay |L|*|R|, and the sort-based
// compensation operators beta and gamma* pay n log n while lambda and gamma
// pay a scan (exactly the costs Section 6.2 assigns).
class CostModel {
 public:
  // User-supplied statistics (no samples: complex predicates fall back
  // to default selectivities).
  explicit CostModel(std::vector<TableStats> base_stats);
  explicit CostModel(std::shared_ptr<const BaseStats> stats);

  // Movable (FromDatabase returns by value); the cache mutex is not moved —
  // the source must not be mid-Cost() on another thread, which trivially
  // holds for the construction sites.
  CostModel(CostModel&& other) noexcept
      : stats_(std::move(other.stats_)),
        built_stats_(other.built_stats_),
        sample_cache_(std::move(other.sample_cache_)) {}

  // A model over `db`'s statistics snapshot, built on the first call for
  // `db` and shared afterwards (Database::Stats).
  static CostModel FromDatabase(const Database& db);

  // True when the FromDatabase call that made this model built the
  // statistics snapshot (the first planning call over its Database).
  bool built_stats() const { return built_stats_; }

  // Estimated output rows of `plan`.
  double Cardinality(const Plan& plan) const;

  // Estimated total evaluation cost of `plan`.
  double Cost(const Plan& plan) const;

  // Selectivity of `pred` applied to a (conceptual) cross product of the
  // relations it references.
  double Selectivity(const Predicate& pred) const;

  // Cross-sample estimate: the fraction of the referenced tables' sample
  // (pairs) on which `pred` is true. Negative when samples are unavailable
  // or `pred` references more than two relations.
  double SampleSelectivity(const Predicate& pred) const;

 private:
  struct NodeEstimate {
    double rows = 0;
    double cost = 0;
  };
  NodeEstimate Estimate(const Plan& plan) const;
  double DistinctOf(int rel_id, const std::string& column) const;
  const EquiDepthHistogram* HistogramOf(int rel_id,
                                        const std::string& column) const;

  std::shared_ptr<const BaseStats> stats_;  // null only once moved from
  bool built_stats_ = false;
  // Memoized per-predicate selectivities (sampling is not free), keyed by
  // StructuralFingerprint so entries stay valid across queries whose
  // predicate objects are freed and their addresses reused. Guarded by a
  // mutex: one CostModel is shared by every task of a parallel enumeration
  // (Cost() stays logically const, and a selectivity for a given
  // fingerprint is the same no matter which thread computes it).
  mutable std::mutex sample_cache_mu_;
  mutable std::unordered_map<uint64_t, double> sample_cache_;
};

}  // namespace eca

#endif  // ECA_COST_COST_MODEL_H_
