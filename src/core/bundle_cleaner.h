#pragma once
// Background maintenance thread for one typed structure (supplementary B,
// Table 1).
//
// Every `delay` it runs maintenance_pass (api/set_interface.h), the same
// pass MaintenanceService (shard/maintenance.h) runs per shard through
// AnyOrderedSet::maintain: prune every bundle down to the entries the
// oldest active or future range query still needs (only when the structure
// reclaims; pruned entries are retired through EBR because in-flight range
// queries may still be walking them), then push the epoch with
// Ebr::quiesce so the pass's long pin does not starve reclamation.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "api/set_interface.h"
#include "common/thread_registry.h"

namespace bref {

template <typename DS>
class BundleCleaner {
 public:
  /// `delay` is the pause between passes (0 = back-to-back).
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

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (delay_.count() > 0)
        cv_.wait_for(lk, delay_, [this] { return stopped_; });
      if (stopped_) return;
      lk.unlock();
      reclaimed_.fetch_add(maintenance_pass(*ds_, tid_).bundle_entries_pruned,
                           std::memory_order_relaxed);
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
