// Unit tests for the bundling core: global timestamp (incl. relaxation),
// Bundle prepare/finalize/dereference/pruning, linearize_update, RqTracker.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "api/types.h"
#include "common/random.h"
#include "core/bundle.h"
#include "core/bundle_cleaner.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "core/sync_hooks.h"
#include "ds/bundled/bundled_skiplist.h"
#include "epoch/ebr.h"
#include "test_util.h"

namespace bref {
namespace {

struct FakeNode {
  int id;
};

// ---------- GlobalTimestamp ----------

TEST(GlobalTimestamp, StartsAtZeroAndAdvances) {
  GlobalTimestamp gts;
  EXPECT_EQ(gts.read(), 0u);
  EXPECT_EQ(gts.advance(), 1u);
  EXPECT_EQ(gts.advance(), 2u);
  EXPECT_EQ(gts.read(), 2u);
}

TEST(GlobalTimestamp, LinearizableModeAdvancesEveryUpdate) {
  GlobalTimestamp gts(1);
  EXPECT_EQ(gts.update_ts(0), 1u);
  EXPECT_EQ(gts.update_ts(3), 2u);
  EXPECT_EQ(gts.read(), 2u);
}

TEST(GlobalTimestamp, RelaxedModeAdvancesEveryTth) {
  GlobalTimestamp gts(/*T=*/5);
  int advances = 0;
  timestamp_t prev = gts.read();
  for (int i = 0; i < 25; ++i) {
    gts.update_ts(0);
    if (gts.read() != prev) {
      ++advances;
      prev = gts.read();
    }
  }
  EXPECT_EQ(advances, 5);  // 25 updates / T=5
}

TEST(GlobalTimestamp, RelaxedCountersArePerThread) {
  GlobalTimestamp gts(/*T=*/4);
  for (int i = 0; i < 3; ++i) gts.update_ts(0);
  EXPECT_EQ(gts.read(), 0u);
  for (int i = 0; i < 3; ++i) gts.update_ts(1);
  EXPECT_EQ(gts.read(), 0u);  // neither thread hit its threshold
  gts.update_ts(0);
  EXPECT_EQ(gts.read(), 1u);
}

TEST(GlobalTimestamp, InfiniteRelaxationNeverAdvances) {
  GlobalTimestamp gts(GlobalTimestamp::kRelaxInfinite);
  for (int i = 0; i < 100; ++i) gts.update_ts(0);
  EXPECT_EQ(gts.read(), 0u);
}

TEST(GlobalTimestamp, ConcurrentAdvanceIsAtomic) {
  GlobalTimestamp gts;
  constexpr int kThreads = 4, kIncs = 10000;
  testutil::run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIncs; ++i) gts.advance();
  });
  EXPECT_EQ(gts.read(), uint64_t(kThreads) * kIncs);
}

// ---------- Bundle ----------

TEST(Bundle, InitAndNewest) {
  Bundle<FakeNode> b;
  FakeNode n{1};
  b.init(&n, 0);
  EXPECT_EQ(b.newest(), &n);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Bundle, DereferenceRespectsTimestamps) {
  Bundle<FakeNode> b;
  FakeNode n0{0}, n1{1}, n2{2};
  b.init(&n0, 0);
  auto* e1 = b.prepare(0, &n1);
  b.finalize(e1, 5);
  auto* e2 = b.prepare(0, &n2);
  b.finalize(e2, 9);

  EXPECT_EQ(b.dereference(0).ptr, &n0);
  EXPECT_EQ(b.dereference(4).ptr, &n0);
  EXPECT_EQ(b.dereference(5).ptr, &n1);  // inclusive boundary
  EXPECT_EQ(b.dereference(8).ptr, &n1);
  EXPECT_EQ(b.dereference(9).ptr, &n2);
  EXPECT_EQ(b.dereference(1000).ptr, &n2);
  EXPECT_TRUE(b.dereference(0).found);
}

TEST(Bundle, DereferenceNotFoundBeforeFirstEntry) {
  Bundle<FakeNode> b;
  FakeNode n{7};
  auto* e = b.prepare(0, &n);
  b.finalize(e, 3);
  auto d = b.dereference(2);
  EXPECT_FALSE(d.found);  // link did not exist at ts=2 -> RQ must restart
}

TEST(Bundle, EntriesSortedNewestFirst) {
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  for (timestamp_t t = 1; t <= 8; ++t)
    b.finalize(b.prepare(0, &n), t);
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 9u);
  for (size_t i = 1; i < entries.size(); ++i)
    EXPECT_GT(entries[i - 1].first, entries[i].first);
}

TEST(Bundle, FinalizeClampsToKeepOrderUnderRelaxation) {
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  b.finalize(b.prepare(0, &n), 7);
  // A relaxed-mode thread with a stale clock tries to stamp 3 after 7.
  b.finalize(b.prepare(0, &n), 3);
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 7u);  // clamped up
  EXPECT_EQ(entries[1].first, 7u);
}

TEST(Bundle, DereferenceBlocksOnPendingHead) {
  Bundle<FakeNode> b;
  FakeNode n0{0}, n1{1};
  b.init(&n0, 0);
  auto* pending = b.prepare(0, &n1);
  std::atomic<bool> started{false}, done{false};
  FakeNode* seen = nullptr;
  std::thread reader([&] {
    started = true;
    seen = b.dereference(10).ptr;  // must wait for the pending entry
    done = true;
  });
  while (!started) cpu_relax();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());  // still blocked on PENDING
  b.finalize(pending, 4);
  reader.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(seen, &n1);
}

// The inline (ts, ptr) pair is a seqlock over the head entry: a reader
// racing the writers must never pair one entry's ts with another's pointer.
// Node i is finalized at ts i, so a torn pair shows as a node newer than
// the snapshot, and a lost update as one older than the last published.
// Two writers take turns, each preparing i while i-1 is still being
// finalized, so a preparer's PENDING store races the previous finalize.
TEST(Bundle, InlineNewestNeverTorn) {
  constexpr int kWrites = 200000;
  constexpr int kReaders = 2;
  constexpr timestamp_t kInf = std::numeric_limits<timestamp_t>::max() / 2;
  std::vector<FakeNode> nodes(kWrites + 1);
  for (int i = 0; i <= kWrites; ++i) nodes[i].id = i;
  Bundle<FakeNode> b;
  b.init(&nodes[0], 0);
  std::atomic<int> prepared{0}, published{0}, ready{0};
  std::atomic<bool> stop{false};
  std::atomic<long> bad_snap{0}, bad_inf{0}, reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(r + 1);
      const auto index = [&](const BundleDeref<FakeNode>& d) {
        return d.found ? static_cast<int>(d.ptr - nodes.data()) : -1;
      };
      int last_inf = 0;
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        // Every i <= pub is finalized, so a snapshot answers at least
        // min(snap, pub) and at most snap.
        const int pub = published.load(std::memory_order_acquire);
        const int t_inf = index(b.dereference(kInf));
        if (t_inf < last_inf || t_inf < pub) bad_inf.fetch_add(1);
        last_inf = t_inf;
        const int back = static_cast<int>(rng.next_range(48));
        const int ahead = static_cast<int>(rng.next_range(16));
        const int snap = std::max(0, pub - back) + ahead;
        const int t = index(b.dereference(static_cast<timestamp_t>(snap)));
        if (t < std::min(snap, pub) || t > snap) bad_snap.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load() < kReaders) cpu_relax();
  testutil::run_threads(2, [&](int tid) {
    for (int i = 1 + tid; i <= kWrites; i += 2) {
      while (prepared.load(std::memory_order_acquire) != i - 1) cpu_relax();
      // Waits inside prepare() until i-1 is finalized.
      auto* e = b.prepare(tid, &nodes[i]);
      prepared.store(i, std::memory_order_release);
      b.finalize(e, static_cast<timestamp_t>(i));
      int p = published.load(std::memory_order_relaxed);
      while (p < i && !published.compare_exchange_weak(
                          p, i, std::memory_order_release,
                          std::memory_order_relaxed)) {
      }
    }
  });
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_snap.load(), 0);
  EXPECT_EQ(bad_inf.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_TRUE(b.inline_matches_head());
  EXPECT_EQ(b.dereference(kInf).ptr, &nodes[kWrites]);
}

TEST(Bundle, PrepareBlocksBehindPendingHead) {
  Bundle<FakeNode> b;
  FakeNode n0{0}, n1{1}, n2{2};
  b.init(&n0, 0);
  auto* first = b.prepare(0, &n1);
  std::atomic<bool> done{false};
  std::thread competitor([&] {
    auto* e = b.prepare(1, &n2);  // must wait until `first` finalizes
    b.finalize(e, 9);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  b.finalize(first, 4);
  competitor.join();
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 9u);
  EXPECT_EQ(entries[1].first, 4u);
}

TEST(Bundle, ReclaimOlderKeepsCoveringEntry) {
  Ebr ebr;
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  for (timestamp_t t = 1; t <= 10; ++t)
    b.finalize(b.prepare(0, &n), t);
  // Oldest active RQ is at ts=6: keep entries 7..10 plus the covering
  // entry 6; retire 0..5 (6 entries).
  ebr.pin(0);
  size_t reclaimed = b.reclaim_older(6, ebr, 0);
  ebr.unpin(0);
  EXPECT_EQ(reclaimed, 6u);
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries.back().first, 6u);
  // Dereference at the oldest snapshot still works.
  EXPECT_TRUE(b.dereference(6).found);
}

TEST(Bundle, ReclaimOlderNoopWhenNothingStale) {
  Ebr ebr;
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 5);
  ebr.pin(0);
  EXPECT_EQ(b.reclaim_older(3, ebr, 0), 0u);  // nothing satisfies ts=3
  EXPECT_EQ(b.reclaim_older(5, ebr, 0), 0u);  // covering entry only
  ebr.unpin(0);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Bundle, ReclaimSkipsPendingHead) {
  Ebr ebr;
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  b.finalize(b.prepare(0, &n), 2);
  auto* pending = b.prepare(0, &n);
  ebr.pin(0);
  EXPECT_EQ(b.reclaim_older(10, ebr, 0), 0u);
  ebr.unpin(0);
  b.finalize(pending, 3);
}

// ---------- linearize_update ----------

// A range-query hop reads the node's key, value and bundle inline pair;
// they must share the node's first 32 bytes, so the hop costs one line.
TEST(BundledSkipListLayout, HopFieldsLieInFirst32Bytes) {
  using Node = BundledSkipList<KeyT, ValT>::Node;
  const Node n(1, 2, 0);
  const auto end_of = [&](const void* field, size_t size) {
    return static_cast<size_t>(static_cast<const char*>(field) -
                               reinterpret_cast<const char*>(&n)) +
           size;
  };
  EXPECT_LE(end_of(&n.key, sizeof(n.key)), 32u);
  EXPECT_LE(end_of(&n.val, sizeof(n.val)), 32u);
  EXPECT_LE(end_of(&n.bundle, Bundle<Node>::inline_pair_end()), 32u);
}

TEST(LinearizeUpdate, OrdersPrepareAdvanceLinearizeFinalize) {
  GlobalTimestamp gts;
  Bundle<FakeNode> b1, b2;
  FakeNode n1{1}, n2{2};
  b1.init(&n1, 0);
  b2.init(&n2, 0);
  bool linearized = false;
  timestamp_t ts = linearize_update<FakeNode>(
      gts, 0, {{&b1, &n2}, {&b2, &n1}}, [&] { linearized = true; });
  EXPECT_TRUE(linearized);
  EXPECT_EQ(ts, 1u);
  EXPECT_EQ(b1.newest(), &n2);
  EXPECT_EQ(b2.newest(), &n1);
  EXPECT_EQ(b1.snapshot_entries()[0].first, 1u);
  EXPECT_EQ(b2.snapshot_entries()[0].first, 1u);
}

TEST(LinearizeUpdate, HooksFire) {
  GlobalTimestamp gts;
  Bundle<FakeNode> b;
  FakeNode n{1};
  b.init(&n, 0);
  static std::atomic<int> fired;
  fired = 0;
  SyncHooks::after_prepare.store([] { fired.fetch_add(1); });
  SyncHooks::before_finalize.store([] { fired.fetch_add(10); });
  linearize_update<FakeNode>(gts, 0, {{&b, &n}}, [] {});
  SyncHooks::reset();
  EXPECT_EQ(fired.load(), 11);
}

// ---------- RqTracker ----------

TEST(RqTracker, BeginPublishesSnapshot) {
  GlobalTimestamp gts;
  RqTracker rq;
  gts.advance();
  gts.advance();
  EXPECT_EQ(rq.begin(0, gts), 2u);
  EXPECT_EQ(rq.active_count(), 1);
  rq.end(0);
  EXPECT_EQ(rq.active_count(), 0);
}

TEST(RqTracker, OldestActiveIsMinOfAnnouncedAndClock) {
  GlobalTimestamp gts;
  RqTracker rq;
  for (int i = 0; i < 7; ++i) gts.advance();
  EXPECT_EQ(rq.oldest_active(gts), 7u);  // no active RQ: current clock
  rq.begin(2, gts);                      // announces 7
  for (int i = 0; i < 5; ++i) gts.advance();
  EXPECT_EQ(rq.oldest_active(gts), 7u);  // pinned by the active RQ
  rq.end(2);
  EXPECT_EQ(rq.oldest_active(gts), 12u);
}

namespace rq_pending_test {
std::atomic<bool> entered{false};
std::atomic<bool> release{false};
}  // namespace rq_pending_test

TEST(RqTracker, OldestActiveWaitsOutPendingAnnounce) {
  GlobalTimestamp gts;
  RqTracker rq;
  for (int i = 0; i < 5; ++i) gts.advance();  // clock = 5
  rq_pending_test::entered = false;
  rq_pending_test::release = false;
  // Stall the query between reading the clock and publishing its value —
  // the exact window the PENDING protocol exists for.
  SyncHooks::rq_mid_announce.store(
      +[] {
        rq_pending_test::entered.store(true, std::memory_order_release);
        while (!rq_pending_test::release.load(std::memory_order_acquire))
          cpu_relax();
      },
      std::memory_order_relaxed);
  std::thread query([&] { EXPECT_EQ(rq.begin(1, gts), 5u); });
  // Wait until the query is inside the hook (PENDING posted, clock read).
  // active_count() > 0 is not enough: the reset below could then beat the
  // query's hook load, and the query would never stall.
  while (!rq_pending_test::entered.load(std::memory_order_acquire))
    cpu_relax();
  SyncHooks::reset();  // only the already-in-flight announce should stall
  for (int i = 0; i < 5; ++i) gts.advance();  // clock = 10
  std::atomic<timestamp_t> observed{RqTracker::kNone};
  std::thread scanner([&] {
    observed.store(rq.oldest_active(gts), std::memory_order_release);
  });
  // The scanner must be stuck waiting out the PENDING slot. (Timing-based,
  // but one-sided: a slow scanner can only make this check vacuous, never
  // fail it.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(observed.load(), RqTracker::kNone);
  rq_pending_test::release = true;
  scanner.join();
  query.join();
  // Without the pending wait the scanner would have returned clock=10 and
  // let the cleaner invalidate the query's snapshot at 5.
  EXPECT_EQ(observed.load(), 5u);
  rq.end(1);  // query stays active until the scan is checked
}

// ---------- BundleCleaner (on a real structure) ----------

TEST(BundleCleaner, PrunesQuiescentListToMinimalEntries) {
  BundleListSet list;
  for (KeyT k = 1; k <= 50; ++k) list.insert(0, k, k);
  for (KeyT k = 1; k <= 50; k += 2) list.remove(0, k);
  const size_t before = list.total_bundle_entries();
  {
    BundleCleaner<BundleListSet> cleaner(list, std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_GT(cleaner.passes(), 0u);
    EXPECT_GT(cleaner.entries_reclaimed(), 0u);
  }
  const size_t after = list.total_bundle_entries();
  EXPECT_LT(after, before);
  // Quiescent cleanup leaves exactly one entry per live bundle
  // (head sentinel + 25 live nodes + tail).
  EXPECT_EQ(after, list.size_slow() + 2);
  EXPECT_TRUE(list.check_invariants());
}

// The cleaner's thread id comes from the registry: a background service or
// session acquiring from the top of the id space while the cleaner runs
// must get a different id (a shared id would share EBR and tracker slots).
TEST(BundleCleaner, HoldsARegistryIdUntilStopped) {
  ThreadRegistry& reg = ThreadRegistry::instance();
  const int top = reg.try_acquire_high();  // the id a cleaner would take
  ASSERT_GE(top, 0);
  reg.release(top);
  BundleListSet list;
  BundleCleaner<BundleListSet> cleaner(list, std::chrono::milliseconds(1));
  const int other = reg.try_acquire_high();
  ASSERT_GE(other, 0);
  EXPECT_NE(other, top) << "try_acquire_high handed out the cleaner's id";
  reg.release(other);
  cleaner.stop();
  const int after = reg.try_acquire_high();
  EXPECT_EQ(after, top) << "stop() did not return the cleaner's id";
  reg.release(after);
}

// ---------- range-query entry-path ablation ----------
// Every entry policy over the one snapshot walk must produce the same
// snapshots as the shipped optimistic-entry path; only the cost differs
// (bench/ablation_entry_path): range_query_from_start() (all-bundle
// traversal from the head sentinel, list layouts only) and
// range_query_at() at an announced timestamp (which appends to `out`).

template <typename DS>
void expect_entry_paths_agree_quiescent() {
  DS ds;
  Xoshiro256 rng(11);
  for (int i = 0; i < 400; ++i) {
    KeyT k = 1 + static_cast<KeyT>(rng.next_range(1000));
    if (rng.next_range(3) == 0)
      ds.remove(0, k);
    else
      ds.insert(0, k, k * 7);
  }
  std::vector<std::pair<KeyT, ValT>> a, b;
  for (int i = 0; i < 50; ++i) {
    KeyT lo = 1 + static_cast<KeyT>(rng.next_range(1000));
    KeyT hi = lo + static_cast<KeyT>(rng.next_range(200));
    ds.range_query(0, lo, hi, a);
    if constexpr (requires { ds.range_query_from_start(0, lo, hi, b); }) {
      ds.range_query_from_start(0, lo, hi, b);
      EXPECT_EQ(a, b) << "from_start, range [" << lo << "," << hi << "]";
    }
    const timestamp_t ts = ds.rq_tracker().begin(0, ds.global_timestamp());
    b.assign(1, {-1, -1});  // range_query_at appends after this prefix
    const size_t n = ds.range_query_at(0, ts, lo, hi, b);
    ds.rq_tracker().end(0);
    EXPECT_EQ(n, a.size()) << "at, range [" << lo << "," << hi << "]";
    ASSERT_EQ(b.front(), std::make_pair(KeyT{-1}, ValT{-1}));
    b.erase(b.begin());
    EXPECT_EQ(a, b) << "at, range [" << lo << "," << hi << "]";
  }
}

TEST(EntryPathAblation, ListPathsReturnIdenticalSnapshots) {
  expect_entry_paths_agree_quiescent<BundleListSet>();
}

TEST(EntryPathAblation, SkipListPathsReturnIdenticalSnapshots) {
  expect_entry_paths_agree_quiescent<BundleSkipListSet>();
}

TEST(EntryPathAblation, CitrusPathsReturnIdenticalSnapshots) {
  expect_entry_paths_agree_quiescent<BundleCitrusSet>();
}

template <typename DS>
void expect_from_start_consistent_under_churn() {
  DS ds;
  constexpr KeyT kSpace = 1000;
  for (KeyT k = 1; k <= kSpace; k += 2) ds.insert(0, k, k);
  std::atomic<bool> stop{false};
  std::atomic<long> failures{0};
  std::thread rq_thread([&] {
    std::vector<std::pair<KeyT, ValT>> out;
    Xoshiro256 rng(5);
    while (!stop.load(std::memory_order_acquire)) {
      KeyT lo = 1 + static_cast<KeyT>(rng.next_range(kSpace - 60));
      ds.range_query_from_start(2, lo, lo + 60, out);
      if (!testutil::sorted_in_range(out, lo, lo + 60)) failures.fetch_add(1);
    }
  });
  testutil::run_threads(2, [&](int tid) {
    Xoshiro256 rng(tid * 7 + 3);
    for (int i = 0; i < 4000; ++i) {
      KeyT k = 1 + static_cast<KeyT>(rng.next_range(kSpace));
      if (rng.next_range(2) == 0)
        ds.insert(tid, k, k);
      else
        ds.remove(tid, k);
    }
  });
  stop = true;
  rq_thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(ds.check_invariants());
}

TEST(EntryPathAblation, ListFromStartConsistentUnderChurn) {
  expect_from_start_consistent_under_churn<BundleListSet>();
}

TEST(EntryPathAblation, SkipListFromStartConsistentUnderChurn) {
  expect_from_start_consistent_under_churn<BundleSkipListSet>();
}

}  // namespace
}  // namespace bref
