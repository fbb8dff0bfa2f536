#pragma once
// The Snapcollector core (Petrank & Timnat, DISC'13 — simplified): the
// publish/report/seal machinery shared by the snapcollector list and skip
// list. See sc_list.h for the full protocol description and the
// serialization trade-off versus the authors' wait-free construction.
//
// Protocol summary:
//  * A range query publishes a Collector covering [lo, hi], traverses the
//    structure collecting unmarked nodes, then seals the collector under
//    the exclusive side of `update_gate` — its linearization point.
//  * Every update executes its linearization + report step under the
//    shared side of `update_gate`, delivering the affected node to every
//    published, unsealed collector covering its key. The gate guarantees
//    every update is wholly before the seal (report delivered) or wholly
//    after (ordered after the query).
//  * The query reconstructs (collected ∪ insert-reports) ∖ delete-reports,
//    with node identity (pointers) disambiguating re-insertions.

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/rwlock.h"
#include "common/spinlock.h"
#include "common/thread_registry.h"

namespace bref {

template <typename Node, typename K>
class SnapCollectorCore {
 public:
  struct ReportEntry {
    Node* node;
    bool is_insert;
  };

  struct Collector {
    K lo{}, hi{};
    Spinlock report_lock;
    bool sealed = false;
    std::vector<ReportEntry> reports;
    std::vector<Node*> collected;
  };

  /// Scope guard for an update's linearize+report window (shared gate).
  class UpdateWindow {
   public:
    explicit UpdateWindow(SnapCollectorCore& core) : core_(core) {
      core_.update_gate_.lock_shared();
    }
    ~UpdateWindow() { core_.update_gate_.unlock_shared(); }
    UpdateWindow(const UpdateWindow&) = delete;
    UpdateWindow& operator=(const UpdateWindow&) = delete;

   private:
    SnapCollectorCore& core_;
  };

  /// Publish `col` as thread `tid`'s active collector.
  void publish(int tid, Collector* col) {
    hwm_.note(tid);
    collectors_[tid]->store(col, std::memory_order_seq_cst);
    // Pairs with report()'s fence: the traversal sees an update's store,
    // or that update's report() sees this collector.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Seal and withdraw the collector; returns the reports captured before
  /// the seal. The exclusive gate waits out in-flight update windows. The
  /// withdrawal must happen *inside* the exclusive section: the collector
  /// is a stack object of the query, and an update window opening between
  /// the gate release and a later withdrawal could pick up the pointer
  /// and chase it after the query's frame is gone (use-after-scope, found
  /// by TSan once the blanket suppressions came off).
  std::vector<ReportEntry> seal(int tid, Collector& col) {
    std::vector<ReportEntry> reports;
    update_gate_.lock();
    {
      std::lock_guard<Spinlock> g(col.report_lock);
      col.sealed = true;
      reports.swap(col.reports);
    }
    collectors_[tid]->store(nullptr, std::memory_order_release);
    update_gate_.unlock();
    return reports;
  }

  /// Deliver a report to every published, unsealed collector whose range
  /// covers the key. Must be called inside an UpdateWindow.
  void report(Node* n, K key, bool is_insert) {
    // Orders the caller's linearizing (release) store before the loads
    // below; see publish().
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const int n_threads = hwm_.get();
    for (int i = 0; i < n_threads; ++i) {
      Collector* col = collectors_[i]->load(std::memory_order_seq_cst);
      if (col == nullptr) continue;
      if (key < col->lo || key > col->hi) continue;
      std::lock_guard<Spinlock> g(col->report_lock);
      if (!col->sealed) col->reports.push_back({n, is_insert});
    }
  }

  /// Reconstruct the snapshot from a sealed collector's state into `out`
  /// as sorted unique (key, value) pairs.
  template <typename V>
  static void reconstruct(const Collector& col,
                          std::vector<ReportEntry> reports,
                          std::vector<std::pair<K, V>>& out) {
    std::vector<Node*> inserted, deleted;
    for (const ReportEntry& r : reports)
      (r.is_insert ? inserted : deleted).push_back(r.node);
    std::sort(deleted.begin(), deleted.end());
    auto is_deleted = [&](Node* n) {
      return std::binary_search(deleted.begin(), deleted.end(), n);
    };
    out.clear();
    out.reserve(col.collected.size());
    for (Node* n : col.collected)
      if (!is_deleted(n)) out.emplace_back(n->key, n->val);
    for (Node* n : inserted)
      if (!is_deleted(n)) out.emplace_back(n->key, n->val);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              out.end());
  }

 private:
  TidHwm hwm_;
  RWSpinlock update_gate_;
  CachePadded<std::atomic<Collector*>> collectors_[kMaxThreads];
};

}  // namespace bref
