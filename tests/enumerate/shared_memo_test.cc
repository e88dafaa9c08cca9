// SharedMemo unit and concurrency tests (enumerate/shared_memo.h): the
// published-entry lifecycle the cross-query plan cache depends on —
// full-key verification under forced map-key collisions, the
// generation visibility rule, epoch invalidation, LRU
// eviction, and MemoryTracker balance. The multi-thread stresses run
// under the TSan CI lane; every one has a deterministic final state
// (the cheapest published cost wins a probe regardless of publish
// interleaving).

#include "enumerate/shared_memo.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "gtest/gtest.h"
#include "rewrite/rules.h"

namespace eca {
namespace {

MemoExtKey ExtKey(const std::string& src, const std::string& a,
                  const std::string& b) {
  MemoExtKey key;
  key.src = src;
  key.a = a;
  key.b = b;
  key.src_hash = PredNameInterner::NameHash(src);
  key.a_hash = PredNameInterner::NameHash(a);
  key.b_hash = PredNameInterner::NameHash(b);
  return key;
}

std::shared_ptr<const MemoPayload> MakePayload(
    RelSet s, double cost, uint64_t epoch = 0, int64_t bytes = 64,
    std::vector<MemoExtKey> ext_keys = {}) {
  auto payload = std::make_shared<MemoPayload>();
  payload->query_fp = 0x1234;
  payload->s = s;
  payload->policy = 0;
  payload->epoch = epoch;
  payload->ext_keys = std::move(ext_keys);
  payload->subtree = Plan::Leaf(0);
  payload->cost = cost;
  payload->bytes = bytes;
  return payload;
}

MemoProbe ProbeFor(const MemoPayload& payload, uint64_t map_key) {
  MemoProbe probe;
  probe.map_key = map_key;
  probe.query_fp = payload.query_fp;
  probe.s = payload.s;
  probe.policy = payload.policy;
  probe.epoch = payload.epoch;
  probe.ext_keys = &payload.ext_keys;
  return probe;
}

TEST(SharedMemoTest, PublishFindRoundTrip) {
  SharedMemo memo;
  memo.Pin();
  auto payload = MakePayload(RelSet::Single(1), 10.0);
  EXPECT_EQ(memo.Publish(7, payload, /*gen=*/1),
            MemoPublishResult::kStoredNew);
  // Visible to a later generation, counted straight into memo.*...
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const MemoPayload* hit = memo.Find(ProbeFor(*payload, 7), /*gen=*/2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 10.0);
  MetricsSnapshot diff = MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_EQ(diff.counters["memo.probes"], 1);
  EXPECT_EQ(diff.counters["memo.hits"], 1);
  // ...and a different map key misses.
  EXPECT_EQ(memo.Find(ProbeFor(*payload, 8), /*gen=*/2), nullptr);
  diff = MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_EQ(diff.counters["memo.probes"], 2);
  EXPECT_EQ(diff.counters["memo.hits"], 1);
  memo.Unpin();
}

TEST(SharedMemoTest, VisibilityRuleByGeneration) {
  SharedMemo memo;
  memo.Pin();
  auto payload = MakePayload(RelSet::Single(1), 10.0);
  memo.Publish(1, payload, /*gen=*/2);
  // A query that began before the publisher never sees its entries...
  EXPECT_EQ(memo.Find(ProbeFor(*payload, 1), /*gen=*/1), nullptr);
  // ...while the publishing query itself and every later one do.
  EXPECT_NE(memo.Find(ProbeFor(*payload, 1), /*gen=*/2), nullptr);
  EXPECT_NE(memo.Find(ProbeFor(*payload, 1), /*gen=*/3), nullptr);
  memo.Unpin();
}

TEST(SharedMemoTest, CheapestWinsAndDuplicatesSkip) {
  SharedMemo memo;
  memo.Pin();
  auto expensive = MakePayload(RelSet::Single(1), 10.0);
  auto cheaper = MakePayload(RelSet::Single(1), 5.0);
  EXPECT_EQ(memo.Publish(7, expensive, 1),
            MemoPublishResult::kStoredNew);
  // Publishing something no cheaper than the newest same-key entry is a
  // no-op...
  EXPECT_EQ(memo.Publish(7, MakePayload(RelSet::Single(1), 12.0), 1),
            MemoPublishResult::kSkippedDuplicate);
  EXPECT_EQ(memo.Publish(7, MakePayload(RelSet::Single(1), 10.0), 1),
            MemoPublishResult::kSkippedDuplicate);
  // ...while a strictly cheaper one supersedes it.
  EXPECT_EQ(memo.Publish(7, cheaper, 1),
            MemoPublishResult::kStoredImproved);
  const MemoPayload* hit = memo.Find(ProbeFor(*cheaper, 7), 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 5.0);
  memo.Unpin();
}

// Forced map-key collision: two entries share the 64-bit map key but
// differ in their external d-edge signature. The stored-full-key check
// must keep them apart — a graft on a hash collision would be the exact
// unsoundness Theorem 5.4's guard exists to prevent — and each rejected
// candidate is counted as a sig collision.
TEST(SharedMemoTest, FullKeyVerificationUnderForcedCollision) {
  SharedMemo memo;
  memo.Pin();
  auto with_a = MakePayload(RelSet::Single(1), 10.0, /*epoch=*/0,
                            /*bytes=*/64, {ExtKey("p0", "x", "y")});
  auto with_b = MakePayload(RelSet::Single(1), 5.0, /*epoch=*/0,
                            /*bytes=*/64, {ExtKey("p1", "x", "z")});
  constexpr uint64_t kSharedMapKey = 42;
  EXPECT_EQ(memo.Publish(kSharedMapKey, with_a, 1),
            MemoPublishResult::kStoredNew);
  EXPECT_EQ(memo.Publish(kSharedMapKey, with_b, 1),
            MemoPublishResult::kStoredNew);

  int64_t collisions = 0;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const MemoPayload* hit =
      memo.Find(ProbeFor(*with_a, kSharedMapKey), 2, &collisions);
  ASSERT_NE(hit, nullptr);
  // The cheaper colliding entry must NOT shadow the exact-key match.
  EXPECT_EQ(hit->cost, 10.0);
  EXPECT_EQ(hit->ext_keys, with_a->ext_keys);
  EXPECT_EQ(collisions, 1);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().DiffSince(before)
                .counters["memo.sig_collisions"],
            1);

  hit = memo.Find(ProbeFor(*with_b, kSharedMapKey), 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 5.0);
  memo.Unpin();
}

TEST(SharedMemoTest, EpochAdvanceInvalidatesAndSweepReclaims) {
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.parent = &root;
  SharedMemo memo(config);
  memo.Pin();
  auto payload = MakePayload(RelSet::Single(1), 10.0, memo.epoch(),
                             /*bytes=*/128);
  ASSERT_EQ(memo.Publish(7, payload, 1),
            MemoPublishResult::kStoredNew);
  EXPECT_EQ(memo.used_bytes(), 128);
  EXPECT_EQ(root.used(), 128);

  memo.AdvanceEpoch();
  // The entry's full key pins the old epoch, so a current-epoch probe
  // can never reuse a stale-stats plan.
  MemoProbe probe = ProbeFor(*payload, 7);
  probe.epoch = memo.epoch();
  EXPECT_EQ(memo.Find(probe, 2), nullptr);
  memo.Unpin();

  // Sweep reclaims the unreachable entry and rebalances the tracker.
  memo.Sweep();
  EXPECT_EQ(memo.used_bytes(), 0);
  EXPECT_EQ(memo.entry_count(), 0);
  EXPECT_EQ(root.used(), 0);
}

TEST(SharedMemoTest, ByteBudgetRejectsAndClearRebalances) {
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.max_bytes = 150;
  config.parent = &root;
  SharedMemo memo(config);
  memo.Pin();
  EXPECT_EQ(memo.Publish(1, MakePayload(RelSet::Single(1), 1.0, 0, 100), 1),
            MemoPublishResult::kStoredNew);
  // 100 + 100 > 150: over-budget publishes are rejected, never partial.
  EXPECT_EQ(memo.Publish(2, MakePayload(RelSet::Single(2), 2.0, 0, 100), 1),
            MemoPublishResult::kRejectedMemory);
  EXPECT_EQ(memo.used_bytes(), 100);
  EXPECT_EQ(root.used(), 100);
  memo.Unpin();
  memo.Clear();
  EXPECT_EQ(memo.used_bytes(), 0);
  EXPECT_EQ(root.used(), 0);
}

// TrySweep must refuse (not deadlock, not corrupt) while an enumeration
// holds a pin, and run once the pin is dropped.
TEST(SharedMemoTest, TrySweepRespectsPins) {
  SharedMemo memo;
  memo.Pin();
  EXPECT_FALSE(memo.TrySweep());
  memo.Unpin();
  EXPECT_TRUE(memo.TrySweep());
}

// Multi-thread publish/lookup stress with a deterministic winner: 4
// threads race seeded (key, cost) publishes; whatever the interleaving,
// a probe after the barrier must return the cheapest cost published for
// its key — Publish's dedup/improve walk and Find's `<=` newest-to-
// oldest scan both converge on the minimum.
TEST(SharedMemoTest, ConcurrentPublishLookupDeterministicWinner) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  constexpr int kRounds = 200;
  SharedMemo memo;

  auto cost_of = [](int thread, int round, int key) {
    uint64_t h = Mix64((static_cast<uint64_t>(thread) << 40) ^
                       (static_cast<uint64_t>(round) << 16) ^
                       static_cast<uint64_t>(key));
    return static_cast<double>(1 + h % 1000);
  };
  // The deterministic expectation: the global minimum per key.
  std::vector<double> expected(kKeys, 1e18);
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      int key = static_cast<int>(Mix64(static_cast<uint64_t>(t * kRounds + r)) %
                                 kKeys);
      expected[static_cast<size_t>(key)] = std::min(
          expected[static_cast<size_t>(key)], cost_of(t, r, key));
    }
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      memo.Pin();
      for (int r = 0; r < kRounds; ++r) {
        int key = static_cast<int>(
            Mix64(static_cast<uint64_t>(t * kRounds + r)) % kKeys);
        auto payload =
            MakePayload(RelSet::Single(key), cost_of(t, r, key));
        memo.Publish(static_cast<uint64_t>(key + 1), payload, /*gen=*/1);
        // Interleaved lookups: any hit is a fully-published entry for
        // this exact key, at most as expensive as what we just offered.
        const MemoPayload* hit =
            memo.Find(ProbeFor(*payload, static_cast<uint64_t>(key + 1)),
                      /*gen=*/2);
        if (hit != nullptr) {
          EXPECT_TRUE(hit->s == RelSet::Single(key));
          EXPECT_GE(hit->cost, expected[static_cast<size_t>(key)]);
        }
      }
      memo.Unpin();
    });
  }
  for (std::thread& w : workers) w.join();

  memo.Pin();
  for (int key = 0; key < kKeys; ++key) {
    if (expected[static_cast<size_t>(key)] >= 1e18) continue;
    auto probe_payload = MakePayload(RelSet::Single(key), 0.0);
    const MemoPayload* hit = memo.Find(
        ProbeFor(*probe_payload, static_cast<uint64_t>(key + 1)), 2);
    ASSERT_NE(hit, nullptr) << "key " << key;
    EXPECT_EQ(hit->cost, expected[static_cast<size_t>(key)]) << "key " << key;
  }
  memo.Unpin();
}

// Racing publishers can overshoot the byte budget (each passes the
// pre-check before any addition lands); the sweep's LRU pass must bring
// usage back under budget and keep the most recently probed entries.
TEST(SharedMemoTest, LruSweepAfterConcurrentOvershoot) {
  constexpr int kThreads = 4;
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.max_bytes = 100;
  config.parent = &root;
  SharedMemo memo(config);

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      memo.Pin();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      memo.Publish(static_cast<uint64_t>(t + 1),
                   MakePayload(RelSet::Single(t), 1.0 + t, 0, 60),
                   /*gen=*/1);
      memo.Unpin();
    });
  }
  while (ready.load() < kThreads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  // Touch the stored entries in index order with rising generations, so
  // the LRU order afterwards is exactly key 0 oldest .. key 3 newest.
  memo.Pin();
  std::vector<int> stored;
  for (int t = 0; t < kThreads; ++t) {
    auto probe_payload = MakePayload(RelSet::Single(t), 0.0);
    if (memo.Find(ProbeFor(*probe_payload, static_cast<uint64_t>(t + 1)),
                  /*gen=*/static_cast<uint64_t>(10 + t)) != nullptr) {
      stored.push_back(t);
    }
  }
  memo.Unpin();
  ASSERT_FALSE(stored.empty());
  EXPECT_EQ(memo.used_bytes(), static_cast<int64_t>(stored.size()) * 60);

  memo.Sweep();
  // Budget restored, tracker balanced with it...
  EXPECT_LE(memo.used_bytes(), memo.max_bytes());
  EXPECT_EQ(root.used(), memo.used_bytes());
  // ...and the survivor is the most recently used entry (only one 60-byte
  // entry fits a 100-byte budget once eviction runs; without overshoot
  // the single stored entry was already under budget).
  memo.Pin();
  int survivors = 0;
  for (int t = 0; t < kThreads; ++t) {
    auto probe_payload = MakePayload(RelSet::Single(t), 0.0);
    if (memo.Find(ProbeFor(*probe_payload, static_cast<uint64_t>(t + 1)),
                  /*gen=*/20) != nullptr) {
      ++survivors;
      EXPECT_EQ(t, stored.back()) << "LRU evicted the wrong entry";
    }
  }
  memo.Unpin();
  EXPECT_EQ(survivors, 1);
  EXPECT_EQ(memo.entry_count(), 1);
}

// --- Persistence hooks: ExportEntries / Import (cache_store.h) ---------

TEST(SharedMemoExportTest, ExportRespectsMinGenAndEpoch) {
  SharedMemo memo;
  memo.Pin();
  memo.Publish(1, MakePayload(RelSet::Single(1), 10.0), /*gen=*/1);
  memo.Publish(2, MakePayload(RelSet::Single(2), 20.0), /*gen=*/2);
  memo.Publish(3, MakePayload(RelSet::Single(3), 30.0), /*gen=*/3);
  memo.Unpin();

  EXPECT_EQ(memo.ExportEntries(0).size(), 3u);
  EXPECT_EQ(memo.ExportEntries(2).size(), 2u);  // min_gen is inclusive
  std::vector<MemoExportEntry> newest = memo.ExportEntries(3);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0].map_key, 3u);
  EXPECT_EQ(newest[0].gen, 3u);
  EXPECT_EQ(memo.ExportEntries(4).size(), 0u);

  // Entries cost under an old stats epoch never leave the process: after
  // AdvanceEpoch the whole export is empty even at min_gen 0.
  memo.AdvanceEpoch();
  EXPECT_EQ(memo.ExportEntries(0).size(), 0u);
}

TEST(SharedMemoExportTest, ExportIsDeterministicallyOrdered) {
  SharedMemo memo;
  memo.Pin();
  // Publish out of key order, with an improvement chain on key 5.
  memo.Publish(9, MakePayload(RelSet::Single(1), 10.0), 1);
  memo.Publish(5, MakePayload(RelSet::Single(2), 20.0), 1);
  memo.Publish(5, MakePayload(RelSet::Single(2), 15.0), 2);
  memo.Publish(7, MakePayload(RelSet::Single(3), 30.0), 2);
  memo.Unpin();

  std::vector<MemoExportEntry> a = memo.ExportEntries(0);
  std::vector<MemoExportEntry> b = memo.ExportEntries(0);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].map_key, b[i].map_key) << i;
    EXPECT_EQ(a[i].payload.get(), b[i].payload.get()) << i;
  }
  // Sorted by map key; within key 5, oldest (original) before improved.
  EXPECT_EQ(a[0].map_key, 5u);
  EXPECT_EQ(a[1].map_key, 5u);
  EXPECT_EQ(a[0].payload->cost, 20.0);
  EXPECT_EQ(a[1].payload->cost, 15.0);
  EXPECT_EQ(a[2].map_key, 7u);
  EXPECT_EQ(a[3].map_key, 9u);
}

TEST(SharedMemoExportTest, ImportIsVisibleToAllQueriesAndDedups) {
  SharedMemo memo;
  auto payload = MakePayload(RelSet::Single(1), 10.0);
  EXPECT_EQ(memo.Import(7, payload), MemoPublishResult::kStoredNew);
  // Visible from the very first BeginQuery generation (gen-0 rule).
  uint64_t gen = memo.BeginQuery();
  EXPECT_GE(gen, 1u);
  memo.Pin();
  EXPECT_NE(memo.Find(ProbeFor(*payload, 7), gen), nullptr);
  memo.Unpin();

  // Re-importing the same entry (snapshot + log overlap after a crash
  // between rename and log cleanup) dedups instead of accreting.
  EXPECT_EQ(memo.Import(7, MakePayload(RelSet::Single(1), 10.0)),
            MemoPublishResult::kSkippedDuplicate);
  EXPECT_EQ(memo.entry_count(), 1);
  // A strictly cheaper import supersedes, like a live publish.
  EXPECT_EQ(memo.Import(7, MakePayload(RelSet::Single(1), 5.0)),
            MemoPublishResult::kStoredImproved);
}

TEST(SharedMemoExportTest, ImportsAreNotReExportedByAppends) {
  SharedMemo memo;
  memo.Import(7, MakePayload(RelSet::Single(1), 10.0));
  // A snapshot (min_gen 0) includes the import; the incremental append
  // window (min_gen >= 1) must not, or every flush would re-log the
  // whole imported cache.
  EXPECT_EQ(memo.ExportEntries(0).size(), 1u);
  EXPECT_EQ(memo.ExportEntries(1).size(), 0u);

  uint64_t gen = memo.BeginQuery();
  memo.Pin();
  memo.Publish(9, MakePayload(RelSet::Single(2), 20.0), gen);
  memo.Unpin();
  std::vector<MemoExportEntry> fresh = memo.ExportEntries(1);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].map_key, 9u);
}

TEST(SharedMemoExportTest, ExportImportRoundTripPreservesTrackerBalance) {
  MemoryTracker root(0, 0);
  std::vector<MemoExportEntry> exported;
  {
    SharedMemo::Config config;
    config.parent = &root;
    SharedMemo source(config);
    source.Pin();
    for (int i = 0; i < 8; ++i) {
      source.Publish(static_cast<uint64_t>(i + 1),
                     MakePayload(RelSet::Single(i), 10.0 + i), 1);
    }
    source.Unpin();
    exported = source.ExportEntries(0);
    ASSERT_EQ(exported.size(), 8u);
    source.Clear();
    EXPECT_EQ(root.used(), 0);
  }
  SharedMemo::Config config;
  config.parent = &root;
  SharedMemo dest(config);
  for (const MemoExportEntry& e : exported) {
    EXPECT_EQ(dest.Import(e.map_key, e.payload),
              MemoPublishResult::kStoredNew);
  }
  EXPECT_EQ(dest.entry_count(), 8);
  EXPECT_EQ(root.used(), dest.used_bytes());
  dest.Clear();
  EXPECT_EQ(root.used(), 0);
}

}  // namespace
}  // namespace eca
