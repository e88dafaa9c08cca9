#ifndef ECA_EXEC_DATABASE_H_
#define ECA_EXEC_DATABASE_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "storage/relation.h"

namespace eca {

// Statistics snapshot of a Database's tables (cost/cost_model.h). Declared
// here only: eca_cost depends on eca_exec, not the other way round.
struct BaseStats;

// The base relations of a query, indexed by query-relation id. Leaf plan
// nodes reference tables by rel_id.
//
// A Database also carries the cost model's statistics snapshot over its
// tables (docs/performance.md, "Statistics lifetime"): built on the first
// planning call, shared by every later one and by copies, dropped by Add().
class Database {
 public:
  Database() = default;
  explicit Database(std::vector<Relation> tables)
      : tables_(std::move(tables)) {}

  int NumTables() const { return static_cast<int>(tables_.size()); }
  const Relation& table(int rel_id) const {
    ECA_CHECK(rel_id >= 0 && rel_id < NumTables());
    return tables_[static_cast<size_t>(rel_id)];
  }
  void Add(Relation r) {
    tables_.push_back(std::move(r));
    slot_ = std::make_shared<StatsSlot>();  // copies keep the old snapshot
  }

  // Base schemas indexed by rel_id (for PlanOutputSchema).
  std::vector<Schema> BaseSchemas() const {
    std::vector<Schema> out;
    out.reserve(tables_.size());
    for (const Relation& r : tables_) out.push_back(r.schema());
    return out;
  }

  // The statistics snapshot, calling `build()` (which returns a
  // shared_ptr<const BaseStats>) when there is none yet. Concurrent first
  // callers build exactly once; the others wait for that build. Adding a
  // table while another thread plans over this Database is a data race,
  // like any other non-const call.
  template <typename Build>
  std::shared_ptr<const BaseStats> Stats(Build&& build) const {
    if (slot_ == nullptr) return build();  // moved-from: empty, uncached
    std::lock_guard<std::mutex> lock(slot_->mu);
    if (slot_->stats == nullptr) slot_->stats = build();
    return slot_->stats;
  }

 private:
  // Shared by copies, so a snapshot built through any of them serves all.
  struct StatsSlot {
    std::mutex mu;
    std::shared_ptr<const BaseStats> stats;
  };

  std::vector<Relation> tables_;
  std::shared_ptr<StatsSlot> slot_ = std::make_shared<StatsSlot>();
};

}  // namespace eca

#endif  // ECA_EXEC_DATABASE_H_
