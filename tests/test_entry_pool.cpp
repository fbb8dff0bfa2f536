// The bundle-entry pool (core/entry_pool.h): allocation-freedom of the
// steady-state update hot path, recycle routing (EBR drain -> owner
// inbox), the malloc-bypass ablation mode, and — under ASan, where pooled
// free entries are poisoned — that recycled entries are never handed out
// while a reader could still reach them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/bundle.h"
#include "core/bundle_cleaner.h"
#include "core/entry_pool.h"
#include "test_util.h"

namespace bref {
namespace {

struct FakeNode {
  int id;
};
using FakeEntry = BundleEntry<FakeNode>;

TEST(EntryLayout, TsAndNextShareOneCacheLine) {
  // The tentpole's layout claim: 32-byte entries tile cache lines exactly,
  // so the two fields a dereference touches per hop never straddle.
  EXPECT_EQ(sizeof(FakeEntry), 32u);
  EXPECT_EQ(alignof(FakeEntry), 32u);
  EXPECT_EQ(offsetof(FakeEntry, ts) / kCacheLine,
            offsetof(FakeEntry, next) / kCacheLine);
}

TEST(EntryPool, RemoteFreeRoutesToOwnerInbox) {
  auto& pool = EntryPool<FakeEntry>::instance();
  pool.set_pooling_enabled(true);
  FakeEntry* e = pool.acquire(7);
  ASSERT_EQ(e->pool_tid, 7);
  // Release from a different thread: the entry must come back to slot 7's
  // inbox, not to the releasing thread's slot.
  std::thread([e] { EntryPool<FakeEntry>::release(e); }).join();
  EntryPoolStats s = pool.stats();
  EXPECT_GE(s.recycled, 1u);
  // Slot 7 serves its local slab remainder first, then drains the inbox;
  // `e` must resurface from slot 7 within one slab's worth of pops (and
  // from no other slot, since releases route by the entry's own tag).
  bool resurfaced = false;
  std::vector<FakeEntry*> held;
  for (size_t i = 0; i < EntryPool<FakeEntry>::kSlabEntries + 2; ++i) {
    FakeEntry* got = pool.acquire(7);
    EXPECT_EQ(got->pool_tid, 7);
    held.push_back(got);
    if (got == e) {
      resurfaced = true;
      break;
    }
  }
  EXPECT_TRUE(resurfaced);
  for (FakeEntry* h : held) EntryPool<FakeEntry>::release(h);
}

TEST(EntryPool, MallocBypassTagsAndRoundTrips) {
  auto& pool = EntryPool<FakeEntry>::instance();
  pool.set_pooling_enabled(false);
  FakeEntry* e = pool.acquire(0);
  EXPECT_EQ(e->pool_tid, kPoolMalloced);
  EntryPool<FakeEntry>::release(e);  // must route to delete, not an inbox
  pool.set_pooling_enabled(true);
  // Mixed-origin chains: a bundle built under bypass then grown pooled
  // tears down cleanly (each entry remembers its origin).
  pool.set_pooling_enabled(false);
  {
    Bundle<FakeNode> b;
    FakeNode n{0};
    b.init(&n, 0);
    b.finalize(b.prepare(0, &n), 1);
    pool.set_pooling_enabled(true);
    b.finalize(b.prepare(0, &n), 2);
    EXPECT_EQ(b.size(), 3u);
  }
  pool.set_pooling_enabled(true);
}

// The acceptance regression: once warm, a churning structure whose pruned
// entries recycle through EBR performs *zero* pool misses — the bundle hot
// path stops touching the allocator entirely. Run single-threaded with an
// explicit prune/quiesce cadence so the recycle pipeline (chain -> EBR bag
// -> owner inbox) drains deterministically each round: with concurrent
// threads on an oversubscribed machine, epoch advance — and therefore the
// pool capacity needed to ride out the recycle latency — is at the mercy
// of the OS scheduler, which is exactly what a regression test must not
// depend on. (The concurrent path is exercised by the churn test below
// and measured by bench/ablation_entry_path.)
TEST(EntryPool, SteadyStateUpdatePathHasZeroPoolMisses) {
  using SL = BundledSkipList<KeyT, ValT>;
  SL::set_entry_pooling(true);
  SL sl(1, /*reclaim=*/true);
  constexpr int kCleanerTid = kMaxThreads - 1;
  Xoshiro256 rng(41);
  auto round = [&] {
    for (int i = 0; i < 200; ++i) {
      KeyT k = 1 + static_cast<KeyT>(rng.next_range(512));
      if (rng.next_range(2) == 0)
        sl.insert(0, k, k);
      else
        sl.remove(0, k);
    }
    sl.prune_bundles(kCleanerTid);
    // Nothing is pinned between operations, so each quiesce() advances the
    // epoch; two rounds ripen and drain every bag (pruned entries reach
    // the owner's inbox, removed nodes recycle their chains on delete).
    sl.ebr().quiesce(kCleanerTid);
    sl.ebr().quiesce(0);
  };
  for (int r = 0; r < 30; ++r) round();  // warm-up: size the pools
  const EntryPoolStats warm = sl.entry_pool_stats();
  ASSERT_GT(warm.hits + warm.misses, 0u);
  for (int r = 0; r < 60; ++r) round();  // steady state
  EntryPoolStats steady = sl.entry_pool_stats();
  steady -= warm;
  EXPECT_EQ(steady.misses, 0u)
      << "steady-state updates hit the allocator " << steady.misses
      << " times (hits=" << steady.hits << ")";
  EXPECT_GT(steady.hits, 0u);
  EXPECT_GT(steady.recycled, 0u) << "no entry was ever recycled";
  EXPECT_TRUE(sl.check_invariants());
}

// Churn + aggressive cleaner + concurrent range queries. Entries recycle
// at the highest rate the cleaner can drive while readers walk the very
// chains being pruned; EBR's grace period is the only thing making that
// safe. Under ASan the pool poisons a free entry's (ptr, ts) words, so an
// entry recycled while still reachable faults immediately instead of
// feeding a reader a stale-but-plausible timestamp; in all builds the
// snapshot validation catches corruption after the fact.
TEST(EntryPool, RecycledEntriesNeverReachableByActiveReaders) {
  using SL = BundledSkipList<KeyT, ValT>;
  SL::set_entry_pooling(true);
  SL sl(1, /*reclaim=*/true);
  for (KeyT k = 1; k <= 400; ++k) sl.insert(0, k * 2, k);
  BundleCleaner<SL> cleaner(sl, std::chrono::milliseconds(0));
  std::atomic<bool> stop{false};
  std::atomic<long> rq_failures{0};
  constexpr int kUpdaters = 2;
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const int tid = kUpdaters + r;
      std::vector<std::pair<KeyT, ValT>> out;
      Xoshiro256 rng(100 + r);
      while (!stop.load(std::memory_order_acquire)) {
        KeyT lo = 1 + static_cast<KeyT>(rng.next_range(700));
        sl.range_query(tid, lo, lo + 60, out);
        if (!testutil::sorted_in_range(out, lo, lo + 60)) rq_failures++;
      }
    });
  }
  testutil::run_threads(kUpdaters, [&](int tid) {
    Xoshiro256 rng(7 + tid);
    for (int i = 0; i < 12000; ++i) {
      KeyT k = 1 + static_cast<KeyT>(rng.next_range(800));
      if (rng.next_range(2) == 0)
        sl.insert(tid, k, k);
      else
        sl.remove(tid, k);
    }
  });
  stop = true;
  for (auto& t : readers) t.join();
  cleaner.stop();
  EXPECT_EQ(rq_failures.load(), 0);
  EXPECT_GT(sl.entry_pool_stats().recycled, 0u);
  EXPECT_TRUE(sl.check_invariants());
}

// ---------------------------------------------------------------------------
// Named slab arenas (ISSUE 9): shard-local placement with home routing.
// ---------------------------------------------------------------------------

TEST(EntryPoolArena, RegistryFindsOrCreatesByName) {
  auto& reg = ArenaRegistry::instance();
  const int a = reg.acquire("test-arena-reuse");
  ASSERT_GT(a, 0);  // arena 0 is the unnamed default
  EXPECT_EQ(reg.acquire("test-arena-reuse"), a);  // same name -> same arena
  const int b = reg.acquire("test-arena-other");
  EXPECT_NE(b, a);
  EXPECT_EQ(reg.name(a), "test-arena-reuse");
  // Out of scope, the thread is back on the default arena; bogus ids clamp.
  EXPECT_EQ(current_arena(), 0);
  {
    ArenaScope bad(kMaxArenas + 5);
    EXPECT_EQ(current_arena(), 0);
  }
}

TEST(EntryPoolArena, ScopedAcquireTagsOwnerAndRoutesReleaseHome) {
  auto& pool = EntryPool<FakeEntry>::instance();
  pool.set_pooling_enabled(true);
  const int arena = ArenaRegistry::instance().acquire("test-arena-route");
  ASSERT_GT(arena, 0);
  FakeEntry* e = nullptr;
  {
    ArenaScope scope(arena);
    EXPECT_EQ(current_arena(), arena);
    e = pool.acquire(7);
    // The owner tag encodes (arena, tid); arena 0 keeps tag == tid so the
    // pre-arena layout (and every old assertion on pool_tid) still holds.
    ASSERT_EQ(e->pool_tid, pool_owner_tag(arena, 7));
  }
  EXPECT_EQ(current_arena(), 0);
  // Release from another thread with NO scope: the entry's own tag — not
  // the releasing thread's arena — must route it to the home slot.
  std::thread([e] { EntryPool<FakeEntry>::release(e); }).join();
  {
    ArenaScope scope(arena);
    bool resurfaced = false;
    std::vector<FakeEntry*> held;
    for (size_t i = 0; i < EntryPool<FakeEntry>::kSlabEntries + 2; ++i) {
      FakeEntry* got = pool.acquire(7);
      EXPECT_EQ(got->pool_tid, pool_owner_tag(arena, 7));
      held.push_back(got);
      if (got == e) {
        resurfaced = true;
        break;
      }
    }
    EXPECT_TRUE(resurfaced);
    for (FakeEntry* h : held) EntryPool<FakeEntry>::release(h);
  }
  // Per-arena accounting: the arena allocated at least one slab of its
  // own, and the global roll-up covers it.
  const EntryPoolStats as = pool.arena_stats(arena);
  EXPECT_GE(as.slabs, 1u);
  EXPECT_GT(as.hits + as.misses, 0u);
  EXPECT_GE(pool.stats().slabs, as.slabs);
}

}  // namespace
}  // namespace bref
