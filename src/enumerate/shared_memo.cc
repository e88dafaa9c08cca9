#include "enumerate/shared_memo.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"

namespace eca {

namespace {

// memo.* metric catalog (docs/performance.md). Registered once.
struct MemoCounters {
  Counter* probes;
  Counter* hits;
  Counter* sig_collisions;
  Counter* publishes;
  Counter* duplicate_publishes;
  Counter* full_rejects;
  Counter* mem_rejects;
  Counter* epoch_advances;
  Counter* epoch_invalidations;
  Counter* lru_evictions;
  Counter* sweeps;
};

const MemoCounters& Counters() {
  static const MemoCounters counters = [] {
    auto& reg = MetricsRegistry::Global();
    return MemoCounters{reg.counter("memo.probes"),
                        reg.counter("memo.hits"),
                        reg.counter("memo.sig_collisions"),
                        reg.counter("memo.publishes"),
                        reg.counter("memo.duplicate_publishes"),
                        reg.counter("memo.full_rejects"),
                        reg.counter("memo.mem_rejects"),
                        reg.counter("memo.epoch_advances"),
                        reg.counter("memo.epoch_invalidations"),
                        reg.counter("memo.lru_evictions"),
                        reg.counter("memo.sweeps")};
  }();
  return counters;
}

// Full-key equality of two payloads (the map key is just a hash; this is
// what makes a reuse decision sound).
bool SameFullKey(const MemoPayload& x, const MemoPayload& y) {
  return x.query_fp == y.query_fp && x.s == y.s && x.policy == y.policy &&
         x.epoch == y.epoch && x.ext_keys == y.ext_keys;
}

bool ProbeMatches(const MemoProbe& probe, const MemoPayload& p) {
  return p.epoch == probe.epoch && p.policy == probe.policy &&
         p.query_fp == probe.query_fp && p.s == probe.s &&
         p.ext_keys == *probe.ext_keys;
}

}  // namespace

SharedMemo::SharedMemo(const Config& config)
    : table_(config.slot_count),
      max_bytes_(config.max_bytes) {
  if (config.parent != nullptr) {
    // Accounting-only child: the service's admission ledger reserves the
    // cache headroom; a hard limit here would fail publishes with a
    // Status nobody can act on (rejection is already the safe response).
    tracker_ = std::make_unique<MemoryTracker>(/*soft_bytes=*/0,
                                               /*hard_bytes=*/0,
                                               config.parent);
  }
  Counters();  // eager registration: first scrape shows the whole set
}

SharedMemo::~SharedMemo() { Clear(); }

void SharedMemo::AdvanceEpoch() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  Counters().epoch_advances->Increment();
}

const MemoPayload* SharedMemo::Find(const MemoProbe& probe, uint64_t gen,
                                    int64_t* sig_collisions) {
  const MemoCounters& c = Counters();
  c.probes->Increment();
  MemoNode* best_node = nullptr;
  const MemoPayload* best = nullptr;
  for (MemoNode* n = table_.Find(probe.map_key); n != nullptr;
       n = n->next.load(std::memory_order_acquire)) {
    // Visibility: entries of queries that began after this one are
    // skipped (see the class comment).
    if (n->gen > gen) continue;
    const MemoPayload& p = *n->payload;
    if (!ProbeMatches(probe, p)) {
      // Same map key, different full key: hash collision (forced by the
      // collide_signatures test knob; astronomically rare otherwise).
      if (p.s == probe.s && p.epoch == probe.epoch &&
          p.policy == probe.policy && p.query_fp == probe.query_fp) {
        c.sig_collisions->Increment();
        if (sig_collisions != nullptr) ++*sig_collisions;
      }
      continue;
    }
    // `<=` walking newest-to-oldest leaves the OLDEST minimum as winner,
    // reproducing the sequential first-stored-wins tie order.
    if (best == nullptr || p.cost <= best->cost) {
      best = &p;
      best_node = n;
    }
  }
  if (best != nullptr) {
    c.hits->Increment();
    best_node->last_used.store(gen, std::memory_order_relaxed);
  }
  return best;
}

MemoPublishResult SharedMemo::Publish(
    uint64_t map_key, std::shared_ptr<const MemoPayload> payload,
    uint64_t gen) {
  const MemoPayload& pl = *payload;
  if (max_bytes_ > 0 &&
      used_bytes_.load(std::memory_order_relaxed) + pl.bytes > max_bytes_) {
    Counters().mem_rejects->Increment();
    return MemoPublishResult::kRejectedMemory;
  }
  std::atomic<MemoNode*>* head = table_.ClaimHead(map_key);
  if (head == nullptr) {
    Counters().full_rejects->Increment();
    return MemoPublishResult::kRejectedFull;
  }
  MemoNode* node = nullptr;
  MemoNode* h = head->load(std::memory_order_acquire);
  for (;;) {
    // Dedup against the newest entry with the same full key, whatever
    // its generation: equal-or-cheaper means this publish adds nothing.
    bool improved = false;
    bool skip = false;
    for (MemoNode* n = h; n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      if (!SameFullKey(*n->payload, pl)) continue;
      if (n->payload->cost <= pl.cost) {
        skip = true;
      } else {
        improved = true;
      }
      break;
    }
    if (skip) {
      if (node != nullptr) {
        if (tracker_ != nullptr) tracker_->Release(pl.bytes);
        delete node;
      }
      Counters().duplicate_publishes->Increment();
      return MemoPublishResult::kSkippedDuplicate;
    }
    if (node == nullptr) {
      if (tracker_ != nullptr) {
        Status reserved = tracker_->Reserve(pl.bytes, "plan-cache entry");
        if (!reserved.ok()) {
          Counters().mem_rejects->Increment();
          return MemoPublishResult::kRejectedMemory;
        }
      }
      node = new MemoNode;
      node->gen = gen;
      node->last_used.store(gen, std::memory_order_relaxed);
      node->payload = std::move(payload);
    }
    node->next.store(h, std::memory_order_relaxed);
    if (head->compare_exchange_weak(h, node, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      used_bytes_.fetch_add(pl.bytes, std::memory_order_relaxed);
      entry_count_.fetch_add(1, std::memory_order_relaxed);
      Counters().publishes->Increment();
      return improved ? MemoPublishResult::kStoredImproved
                      : MemoPublishResult::kStoredNew;
    }
    // Lost the prepend race; `h` now holds the new head. Re-walk: the
    // winner may have published our key.
  }
}

std::vector<MemoExportEntry> SharedMemo::ExportEntries(uint64_t min_gen) {
  std::vector<MemoExportEntry> out;
  const uint64_t live_epoch = epoch();
  gate_.LockExclusive();
  struct Chain {
    uint64_t key;
    std::vector<MemoExportEntry> entries;  // oldest first
  };
  std::vector<Chain> chains;
  table_.ForEachChainExclusive([&](uint64_t key, MemoNode* chain_head) {
    Chain chain;
    chain.key = key;
    for (MemoNode* n = chain_head; n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->gen < min_gen) continue;
      if (n->payload->epoch != live_epoch) continue;  // dead on load anyway
      chain.entries.push_back(MemoExportEntry{key, n->gen, n->payload});
    }
    if (chain.entries.empty()) return;
    // Chains store newest first; persist oldest first so a reload that
    // re-publishes in file order reproduces the probe tie order.
    std::reverse(chain.entries.begin(), chain.entries.end());
    chains.push_back(std::move(chain));
  });
  gate_.UnlockExclusive();
  std::sort(chains.begin(), chains.end(),
            [](const Chain& x, const Chain& y) { return x.key < y.key; });
  for (Chain& chain : chains) {
    for (MemoExportEntry& e : chain.entries) out.push_back(std::move(e));
  }
  return out;
}

MemoPublishResult SharedMemo::Import(
    uint64_t map_key, std::shared_ptr<const MemoPayload> payload) {
  Pin();
  MemoPublishResult result =
      Publish(map_key, std::move(payload), /*gen=*/0);
  Unpin();
  return result;
}

void SharedMemo::ReleaseNode(MemoNode* node) {
  if (tracker_ != nullptr) tracker_->Release(node->payload->bytes);
  used_bytes_.fetch_sub(node->payload->bytes, std::memory_order_relaxed);
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  delete node;
}

template <typename Keep>
void SharedMemo::RebuildLocked(Keep&& keep) {
  struct Chain {
    uint64_t key;
    std::vector<MemoNode*> nodes;  // newest first, as stored
  };
  std::vector<Chain> chains;
  table_.ForEachChainExclusive([&](uint64_t key, MemoNode* chain_head) {
    Chain chain;
    chain.key = key;
    for (MemoNode* n = chain_head; n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      chain.nodes.push_back(n);
    }
    chains.push_back(std::move(chain));
  });
  table_.ResetExclusive();
  for (Chain& chain : chains) {
    // Rebuild oldest-to-newest so relative chain depth — the probe tie
    // order — survives the sweep.
    MemoNode* rebuilt_head = nullptr;
    for (size_t i = chain.nodes.size(); i-- > 0;) {
      MemoNode* n = chain.nodes[i];
      if (!keep(n)) {
        ReleaseNode(n);
        continue;
      }
      n->next.store(rebuilt_head, std::memory_order_relaxed);
      rebuilt_head = n;
    }
    if (rebuilt_head == nullptr) continue;
    std::atomic<MemoNode*>* head = table_.ClaimHead(chain.key);
    // A fresh same-size table always re-admits the old key set.
    ECA_DCHECK(head != nullptr);
    head->store(rebuilt_head, std::memory_order_relaxed);
  }
}

void SharedMemo::Sweep() {
  gate_.LockExclusive();
  SweepLocked();
  gate_.UnlockExclusive();
}

bool SharedMemo::TrySweep() {
  if (!gate_.TryLockExclusive()) return false;
  SweepLocked();
  gate_.UnlockExclusive();
  return true;
}

void SharedMemo::SweepLocked() {
  const MemoCounters& c = Counters();
  const uint64_t live_epoch = epoch();
  int64_t stale = 0;
  RebuildLocked([&](MemoNode* n) {
    if (n->payload->epoch != live_epoch) {
      ++stale;
      return false;
    }
    return true;
  });
  c.epoch_invalidations->Add(stale);
  if (max_bytes_ > 0 &&
      used_bytes_.load(std::memory_order_relaxed) > max_bytes_) {
    // LRU by generation stamp: evict the oldest-touched entries until the
    // budget holds again. Ties break on (gen, cost) so the pass is
    // deterministic for a given cache state.
    std::vector<MemoNode*> nodes;
    table_.ForEachChainExclusive([&](uint64_t, MemoNode* chain_head) {
      for (MemoNode* n = chain_head; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        nodes.push_back(n);
      }
    });
    std::stable_sort(nodes.begin(), nodes.end(),
                     [](const MemoNode* x, const MemoNode* y) {
                       uint64_t lx = x->last_used.load(std::memory_order_relaxed);
                       uint64_t ly = y->last_used.load(std::memory_order_relaxed);
                       if (lx != ly) return lx < ly;
                       if (x->gen != y->gen) return x->gen < y->gen;
                       return x->payload->cost < y->payload->cost;
                     });
    int64_t to_free =
        used_bytes_.load(std::memory_order_relaxed) - max_bytes_;
    std::vector<const MemoNode*> evict;
    for (MemoNode* n : nodes) {
      if (to_free <= 0) break;
      to_free -= n->payload->bytes;
      evict.push_back(n);
    }
    c.lru_evictions->Add(static_cast<int64_t>(evict.size()));
    RebuildLocked([&](MemoNode* n) {
      return std::find(evict.begin(), evict.end(), n) == evict.end();
    });
  }
  c.sweeps->Increment();
}

void SharedMemo::Clear() {
  gate_.LockExclusive();
  RebuildLocked([](MemoNode*) { return false; });
  gate_.UnlockExclusive();
}

}  // namespace eca
