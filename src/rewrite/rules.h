#ifndef ECA_REWRITE_RULES_H_
#define ECA_REWRITE_RULES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "rewrite/transform.h"

namespace eca {

// ---------------------------------------------------------------------------
// Dependency bookkeeping (Section 5.2)
// ---------------------------------------------------------------------------

// Interns predicate display names (and the handful of rule-name labels that
// appear in d-edges) to dense int ids, so d-edge bookkeeping and the
// enumerator's external-signature computation work over small sorted int
// vectors instead of string sets. Ids are local to one interner; the
// per-name 64-bit hash is canonical (it depends only on the name), so
// signatures derived from hashes compare across interners — that is what
// lets queries with independently-grown interners share one plan cache.
class PredNameInterner {
 public:
  // Id 0 is always the "cross" pseudo-name (a join with no predicate).
  static constexpr int kCross = 0;

  PredNameInterner() { InternName("cross"); }

  // nullptr predicates intern as kCross. Takes the owning ref, not a raw
  // pointer: the pointer cache below pins every predicate it has seen, so a
  // cached address can never be recycled by a new, differently-named
  // predicate after the plan that owned the original dies.
  int Intern(const PredRef& pred) {
    auto [it, fresh] = by_ptr_.try_emplace(pred.get(), kCross);
    if (fresh && pred != nullptr) {
      pins_.push_back(pred);
      it->second = InternName(pred->DisplayName());
    }
    return it->second;
  }

  int InternName(const std::string& name) {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    int id = static_cast<int>(names_.size());
    names_.push_back(name);
    hashes_.push_back(NameHash(name));
    by_name_.emplace(name, id);
    return id;
  }

  const std::string& NameOf(int id) const { return names_[id]; }
  uint64_t HashOf(int id) const { return hashes_[id]; }
  int size() const { return static_cast<int>(names_.size()); }

  // Canonical 64-bit name hash (FNV-1a); stable across interners.
  static uint64_t NameHash(const std::string& name) {
    uint64_t h = 1469598103934665603ULL;
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return h;
  }

 private:
  // Pointer cache in front of the name map: predicate objects are shared
  // (PredRef) and Plan::Clone shares them, so repeat interns of the same
  // object skip the DisplayName rendering entirely. `pins_` keeps every
  // cached object alive so its address stays bound to its name.
  std::unordered_map<const Predicate*, int> by_ptr_;
  std::vector<PredRef> pins_;
  std::unordered_map<std::string, int> by_name_;
  std::vector<std::string> names_;
  std::vector<uint64_t> hashes_;
};

// A dependency edge from a join node (identified by its predicate label) to
// the virtual node of a compensation-operator group generated by a swap, or
// to a context marker for a fold/simplification that changed a join's
// operator or predicate. Two d-edges are equivalent iff their source and
// label match (the virtual node identity is irrelevant — compensation
// operators may change form as they are pulled around, Theorem 5.4).
// The three name components are interned ids in the owning
// RewriteContext's PredNameInterner.
struct DEdge {
  int src_pred = PredNameInterner::kCross;  // dependent join's predicate
  int label_a = PredNameInterner::kCross;   // pred of the rising join
  int label_b = PredNameInterner::kCross;   // pred of the sinking join
  int vnode = -1;  // comp group id; kContextVnode for fold markers

  static constexpr int kContextVnode = -2;
};

// Which rewrite arsenal a swap may use. Models the three approaches the
// paper compares:
//   kTBA — valid transformations only (Table 1), no compensation [8];
//   kCBA — adds the lambda/beta compensation (generalized outerjoin) and
//          outerjoin simplification, but no gamma/gamma*, so antijoins and
//          semijoins cannot be reordered through invalid transforms [12];
//   kECA — the paper's approach: everything, including Equation 9
//          expansion and the gamma/gamma* rules.
enum class SwapPolicy { kECA, kTBA, kCBA };

// Shared mutable state for one plan's rewrite history: the policy, the
// vnode counter and the d-edges accumulated by swaps. May be null
// everywhere a context is accepted (null = kECA, no dependency tracking).
// Copies share the interner (it is append-only and grow-only, so sharing
// within one single-threaded search is safe and keeps ids consistent
// between a plan and its clones); concurrent searches must fork it.
struct RewriteContext {
  SwapPolicy policy = SwapPolicy::kECA;
  int next_vnode = 1;
  std::vector<DEdge> dedges;
  std::shared_ptr<PredNameInterner> interner;

  int NewVnode() { return next_vnode++; }

  PredNameInterner& Interner() {
    if (interner == nullptr) interner = std::make_shared<PredNameInterner>();
    return *interner;
  }
};

inline SwapPolicy PolicyOf(const RewriteContext* ctx) {
  return ctx == nullptr ? SwapPolicy::kECA : ctx->policy;
}

// ---------------------------------------------------------------------------
// Node-local rewrites
// ---------------------------------------------------------------------------

// Equation 9: X laj[p] Y  =  pi_{out(X)}(gamma_{out(Y)}(X loj[p] Y)).
// `node` must be a left-antijoin node; consumed and replaced. When a
// context is given, the generated compensations are stamped with a fresh
// vnode and a dependency edge from the join: whether those compensations
// sit inside or outside a subplan changes its meaning (Section 5.2), so
// subplan reuse must see the difference.
PlanPtr ExpandAntiJoinNode(PlanPtr node, RewriteContext* ctx = nullptr);

// Semijoin elimination: X lsj[p] Y = beta(pi_{out(X)}(X join[p] Y)).
// Exact under the distinguishable-tuples assumption (see DESIGN.md).
PlanPtr ExpandSemiJoinNode(PlanPtr node, RewriteContext* ctx = nullptr);

// True if `plan`'s output can contain no spurious (dominated or duplicate)
// tuples, assuming base relations are duplicate-free. Used as the side
// condition for pulling beta above a join.
bool IsBetaClean(const Plan& plan);

// ---------------------------------------------------------------------------
// Compensation pull-up (Tables 2, 4, 5 and Equation 10)
// ---------------------------------------------------------------------------

// `*j_subtree` is rooted at a join whose left (comp_on_left) or right child
// is a compensation operator. Rewrites so that the compensation no longer
// sits below the join: it is moved above the join (possibly changing form,
// e.g. gamma -> gamma* via Table 2 Rule 3), folded into the join predicate
// (lambda under a null-intolerant join), or dropped (beta/pi on the probe
// side of a semi/antijoin). Returns true and replaces *j_subtree on
// success; returns false leaving *j_subtree untouched when no sound rule
// applies.
bool PullCompAboveJoin(PlanPtr* j_subtree, bool comp_on_left,
                       RewriteContext* ctx);

// ---------------------------------------------------------------------------
// The compensated swap primitive
// ---------------------------------------------------------------------------

// `p_subtree` is rooted at join p whose left (m_on_left) or right child is
// join m, directly adjacent (no compensation operators between them).
// Restructures so that m's predicate is evaluated at the top join:
//   - by a plain assoc / l-asscom / r-asscom step when Table 1 permits,
//   - by outerjoin simplification followed by a valid step,
//   - by anti/semijoin expansion (Eq. 9) followed by compensation pull-up
//     and a compensated core step,
//   - by the generalized-outerjoin compensation
//       e1 loj[pp] (e2 join[pm] e3) = beta(lambda[pm, e2+e3](
//            (e1 loj[pp] e_x) loj[pm] e_y))
//     for the invalid assoc / r-asscom cases (this is how the paper's
//     Table 3 rules 14-25 arise as compositions; see rules_reorder_test.cc).
// Returns the new subtree (comp operators may sit above the new top join)
// or nullptr when the swap is unsupported (full-outerjoin cases, Section
// 5.3, and cartesian-product corner cases excluded by the paper's query
// classes).
PlanPtr SwapAdjacentJoins(PlanPtr p_subtree, bool m_on_left,
                          RewriteContext* ctx);

// ---------------------------------------------------------------------------
// Full Swap (Algorithms 3 and 5)
// ---------------------------------------------------------------------------

// Moves join `m` one join level up inside `root`: pulls the compensation
// operators between m and its parent join above the parent, then applies
// SwapAdjacentJoins. Returns the join node that now carries m's predicate
// (the risen node), or nullptr if the swap is infeasible. Failure is NOT
// guaranteed to leave the tree byte-identical: committed pulls, Equation 9
// expansion and right-variant canonicalization may have rewritten it into
// an equivalent form before the final adjacent swap failed. When
// `tree_changed` is non-null it is set to true the moment any such rewrite
// commits (and left untouched otherwise), so callers that snapshot/restore
// subtrees can skip the restore for attempts that provably never mutated.
Plan* SwapUp(PlanPtr& root, Plan* m, RewriteContext* ctx,
             bool* tree_changed = nullptr);

}  // namespace eca

#endif  // ECA_REWRITE_RULES_H_
