#pragma once
// Background bundle-entry recycler (supplementary B, Table 1).
//
// A dedicated thread periodically computes the oldest timestamp any active
// or future range query can observe (via the RqTracker announce array) and
// asks the data structure to prune every bundle down to the entries that
// snapshot still needs. Pruned entries are retired through EBR because
// in-flight range queries may still be walking them.
//
// DS duck-typing requirement: `size_t prune_bundles(int tid)`.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/thread_registry.h"
#include "core/entry_pool.h"

namespace bref {

template <typename DS>
class BundleCleaner {
 public:
  /// `delay` is the pause between cleanup passes (Table 1's d parameter).
  /// The cleaner's thread id comes from ThreadRegistry::try_acquire_high
  /// (ThreadSlotsExhaustedError if none is free) and goes back in stop().
  explicit BundleCleaner(DS& ds,
                         std::chrono::milliseconds delay =
                             std::chrono::milliseconds(10))
      : ds_(&ds),
        delay_(delay),
        tid_(ThreadRegistry::instance().try_acquire_high()) {
    if (tid_ < 0) throw ThreadSlotsExhaustedError();
    try {
      thread_ = std::thread([this] { run(); });
    } catch (...) {
      ThreadRegistry::instance().release(tid_);
      throw;
    }
  }

  ~BundleCleaner() { stop(); }

  BundleCleaner(const BundleCleaner&) = delete;
  BundleCleaner& operator=(const BundleCleaner&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
    ThreadRegistry::instance().release(tid_);
  }

  uint64_t entries_reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }

  /// Entry-pool counters for the structure being cleaned (pool hits,
  /// misses = slab/bypass allocations, recycles). An entry this cleaner
  /// prunes shows up as `recycled` once its EBR grace period elapses and
  /// the drain pushes it back to its owner's pool. Zero-initialized for DS
  /// types without a pooled entry path.
  EntryPoolStats pool_stats() const {
    if constexpr (requires(const DS& d) { d.entry_pool_stats(); }) {
      return ds_->entry_pool_stats();
    } else {
      return {};
    }
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (delay_.count() > 0)
        cv_.wait_for(lk, delay_, [this] { return stopped_; });
      if (stopped_) return;
      lk.unlock();
      reclaimed_.fetch_add(ds_->prune_bundles(tid_),
                           std::memory_order_relaxed);
      // A prune pass holds one long EBR pin, which blocks every epoch
      // advance for its duration; with small delays that starves
      // reclamation (bags never ripen, entry recycling stalls, pools
      // re-allocate). Between passes, push the epoch and drain our own
      // bags so pruned entries reach the owners' pools within ~a pass.
      if constexpr (requires(DS& d) { d.ebr(); }) {
        ds_->ebr().quiesce(tid_);
      }
      passes_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
      if (stopped_) return;
    }
  }

  DS* ds_;
  std::chrono::milliseconds delay_;
  const int tid_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::atomic<uint64_t> reclaimed_{0};
  std::atomic<uint64_t> passes_{0};
};

}  // namespace bref
