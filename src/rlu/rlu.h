#pragma once
// Read-Log-Update (RLU) — Matveev, Shavit, Felber, Marlier (SOSP'15).
//
// Baseline substrate for the paper's evaluation. RLU generalises RCU to
// multi-object updates: writers clone each object they lock into a private
// write log, readers run against a clock snapshot and "steal" committed
// copies whose writer's write-clock is within their snapshot, and commit
// waits (rlu_synchronize) for all older readers before writing copies back.
//
// Range queries on RLU structures are linearized at reader_lock (the clock
// snapshot), like bundling — but updates pay a full synchronize() on every
// commit, which is exactly the bottleneck the paper measures in
// update-heavy workloads.
//
// Implementation notes:
//  * Every RLU-managed object is allocated through Rlu::alloc<T>() and
//    carries a hidden one-word header (pointer to its active copy).
//  * Copies live in per-thread logs; a copy block is [CopyHeader][ObjHeader]
//    [payload]. Copy blocks and freed originals are reclaimed one commit
//    late (double-buffered logs) so concurrent stealers never touch freed
//    memory.
//  * T must be trivially copyable (objects move via memcpy, as in the
//    original C implementation).

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "common/backoff.h"
#include "common/cacheline.h"
#include "common/thread_registry.h"

namespace bref {

class Rlu {
 private:
  static constexpr uintptr_t kCopyMark = 1;
  static constexpr uint64_t kInfClock = ~0ull;

  struct ObjHeader {
    std::atomic<uintptr_t> copy{0};
  };
  struct CopyHeader {
    void* orig;
    size_t size;
    int owner_tid;
    int pad_;
  };
  static_assert(sizeof(ObjHeader) == 8);
  static_assert(sizeof(CopyHeader) == 24);

  struct LogEntry {
    ObjHeader* obj_header;  // header of the original
    void* block;            // copy block start
    CopyHeader* copy_header;
  };

  struct RluThread {
    std::atomic<uint64_t> run_cnt{0};
    std::atomic<uint64_t> local_clock{0};
    std::atomic<uint64_t> write_clock{kInfClock};
    // True while this thread executes commit(); a committing writer has
    // finished its read phase, so other writers' synchronize() may skip it.
    // Without this, two concurrent commits deadlock waiting on each other's
    // run counters.
    std::atomic<bool> in_sync{false};
    std::vector<LogEntry> log;
    std::vector<void*> old_blocks;   // copy blocks awaiting one grace period
    std::vector<void*> defer_free;   // original blocks freed this commit
    std::vector<void*> defer_ready;  // original blocks free at next commit
    uint64_t aborts{0};
    uint64_t commits{0};
  };

  // Header arithmetic goes through uintptr_t: the payload pointer's
  // allocation provenance (original block vs copy block) is only known at
  // run time via the kCopyMark tag, and GCC's -Warray-bounds would otherwise
  // flag the copy-header offset on paths it cannot prove dead for originals.
  template <typename T>
  static ObjHeader* header_of(T* p) {
    return reinterpret_cast<ObjHeader*>(reinterpret_cast<uintptr_t>(p) -
                                        sizeof(ObjHeader));
  }
  template <typename T>
  static const CopyHeader* copy_header_of(const T* copy_payload) {
    return reinterpret_cast<const CopyHeader*>(
        reinterpret_cast<uintptr_t>(copy_payload) - sizeof(ObjHeader) -
        sizeof(CopyHeader));
  }
  static void* payload_of(ObjHeader* h) {
    return reinterpret_cast<char*>(h) + sizeof(ObjHeader);
  }

  static void release_blocks(std::vector<void*>& blocks) {
    for (void* b : blocks) ::operator delete(b);
    blocks.clear();
  }

  std::atomic<uint64_t> g_clock_{0};
  TidHwm hwm_;
  CachePadded<RluThread> threads_[kMaxThreads];

 public:
  Rlu() = default;
  ~Rlu() {
    for (auto& t : threads_) {
      for (auto& e : t->log) ::operator delete(e.block);
      t->log.clear();
      release_blocks(t->old_blocks);
      release_blocks(t->defer_free);
      release_blocks(t->defer_ready);
    }
  }
  Rlu(const Rlu&) = delete;
  Rlu& operator=(const Rlu&) = delete;

  /// Allocate an RLU-managed object. Must be freed via Session::free_obj
  /// (deferred) or Rlu::dealloc_unsafe (quiescent teardown only).
  template <typename T, typename... Args>
  T* alloc(Args&&... args) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= sizeof(ObjHeader),
                  "payload must be 8-byte alignable");
    void* block = ::operator new(sizeof(ObjHeader) + sizeof(T));
    auto* h = new (block) ObjHeader{};
    T* obj = new (payload_of(h)) T(std::forward<Args>(args)...);
    return obj;
  }

  /// Immediate free; only valid when no thread can reach the object
  /// (e.g. destroying a whole data structure).
  template <typename T>
  static void dealloc_unsafe(T* p) {
    ::operator delete(header_of(p));
  }

  uint64_t clock() const { return g_clock_.load(std::memory_order_acquire); }

  /// One RLU-protected operation (read-side or write-side). Construct to
  /// enter, then either unlock() (commits if objects were locked) or
  /// abort() + retry. The destructor unlocks if the caller did neither.
  class Session {
   public:
    Session(Rlu& rlu, int tid) : rlu_(rlu), t_(*rlu.threads_[tid]), tid_(tid) {
      rlu_.hwm_.note(tid);
      t_.run_cnt.fetch_add(1, std::memory_order_seq_cst);  // odd: active
      t_.local_clock.store(rlu_.g_clock_.load(std::memory_order_seq_cst),
                           std::memory_order_release);
      active_ = true;
    }

    ~Session() {
      if (active_) unlock();
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// RLU dereference: returns the version of `p` this session must read.
    template <typename T>
    T* dereference(T* p) const {
      if (p == nullptr) return nullptr;
      ObjHeader* h = header_of(p);
      uintptr_t c = h->copy.load(std::memory_order_acquire);
      if (c == 0) return p;           // unlocked original
      if (c == kCopyMark) return p;   // p is already a copy (ours, via log)
      T* cp = reinterpret_cast<T*>(c);
      const CopyHeader* ch = copy_header_of(cp);
      if (ch->owner_tid == tid_) return cp;  // our own working copy
      uint64_t wc = rlu_.threads_[ch->owner_tid]->write_clock.load(
          std::memory_order_acquire);
      // Steal the copy iff its writer committed within our snapshot.
      return (wc <= t_.local_clock.load(std::memory_order_relaxed)) ? cp : p;
    }

    /// Lock `p` for writing; returns the private copy to mutate, or null if
    /// another thread holds it (caller must abort() and retry).
    template <typename T>
    T* try_lock(T* p) {
      ObjHeader* h = header_of(p);
      uintptr_t c = h->copy.load(std::memory_order_acquire);
      if (c == kCopyMark) {  // p itself is a copy pointer
        return (copy_header_of(p)->owner_tid == tid_) ? p : nullptr;
      }
      if (c != 0) {
        T* cp = reinterpret_cast<T*>(c);
        return (copy_header_of(cp)->owner_tid == tid_) ? cp : nullptr;
      }
      // Unlocked original: clone it into our log.
      void* block =
          ::operator new(sizeof(CopyHeader) + sizeof(ObjHeader) + sizeof(T));
      auto* ch = new (block) CopyHeader{p, sizeof(T), tid_, 0};
      auto* hh =
          new (static_cast<char*>(block) + sizeof(CopyHeader)) ObjHeader{};
      hh->copy.store(kCopyMark, std::memory_order_relaxed);
      T* cp = reinterpret_cast<T*>(payload_of(hh));
      std::memcpy(static_cast<void*>(cp), static_cast<const void*>(p),
                  sizeof(T));
      uintptr_t expect = 0;
      if (!h->copy.compare_exchange_strong(expect,
                                           reinterpret_cast<uintptr_t>(cp),
                                           std::memory_order_acq_rel)) {
        ::operator delete(block);
        return nullptr;
      }
      t_.log.push_back({h, block, ch});
      writer_ = true;
      return cp;
    }

    /// Convert a (possibly copy) pointer into the stable original pointer;
    /// all pointers *stored into* RLU objects must be passed through this.
    template <typename T>
    static T* unwrap(T* p) {
      if (p == nullptr) return nullptr;
      ObjHeader* h = header_of(p);
      if (h->copy.load(std::memory_order_relaxed) == kCopyMark)
        return reinterpret_cast<T*>(
            const_cast<CopyHeader*>(copy_header_of(p))->orig);
      return p;
    }

    /// Deferred free of an object being unlinked (original or our copy of
    /// it); reclaimed after the commit's grace period.
    template <typename T>
    void free_obj(T* p) {
      T* orig = unwrap(p);
      pending_free_.push_back(header_of(orig));
    }

    bool is_writer() const { return writer_; }

    /// End the session, committing any locked objects (rlu_commit).
    void unlock() {
      assert(active_);
      if (writer_) commit();
      t_.run_cnt.fetch_add(1, std::memory_order_release);  // even: quiescent
      active_ = false;
    }

    /// Abandon the session: unlock copies without publishing them.
    void abort() {
      assert(active_);
      for (auto& e : t_.log)
        e.obj_header->copy.store(0, std::memory_order_release);
      // Copy blocks may still be inspected by concurrent dereferences that
      // loaded the copy pointer just before we detached; retire them one
      // grace period late like committed blocks.
      move_blocks_to_old();
      pending_free_.clear();
      t_.run_cnt.fetch_add(1, std::memory_order_release);
      t_.aborts++;
      active_ = false;
      writer_ = false;
    }

   private:
    void commit() {
      // Publish intent: readers with local_clock >= write_clock steal our
      // copies; everyone older must be drained before write-back.
      //  * The steal threshold is the lower bound lb = g_clock+1, set
      //    *before* the tick (a reader synced with our fetch-add must not
      //    see kInfClock and read the master mid-write-back) and never
      //    raised: raising it to the tick value wc would let a reader with
      //    a clock in [lb, wc) steal and a later one in the same window
      //    read the old master, so snapshots would go backwards. Stealing
      //    against lb is safe; the log is final by now.
      //  * synchronize() waits on the *unique* wc: its early exit
      //    (local_clock >= wc) holds only because such a reader's clock
      //    load synchronized with our fetch-add, which happens-after every
      //    lock we hold, so it steals. A clock in [lb, wc) may come from
      //    another writer's tick with no edge to our locks; that reader
      //    may take the master, so it is waited out.
      t_.write_clock.store(rlu_.g_clock_.load(std::memory_order_acquire) + 1,
                           std::memory_order_seq_cst);
      t_.in_sync.store(true, std::memory_order_seq_cst);
      const uint64_t wc =
          rlu_.g_clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
      synchronize(wc);
      // Write back copies into originals, then detach.
      for (auto& e : t_.log) {
        void* orig = e.copy_header->orig;
        const void* payload = static_cast<const char*>(e.block) +
                              sizeof(CopyHeader) + sizeof(ObjHeader);
        std::memcpy(orig, payload, e.copy_header->size);
      }
      for (auto& e : t_.log)
        e.obj_header->copy.store(0, std::memory_order_release);
      t_.write_clock.store(kInfClock, std::memory_order_release);
      // Unlinked originals: post-sync readers cannot reach them, but defer
      // one extra commit (symmetry with copy blocks) out of caution.
      for (ObjHeader* h : pending_free_) t_.defer_free.push_back(h);
      pending_free_.clear();
      // Reclaim blocks parked by the *previous* commit (double buffering),
      // then park this commit's blocks and deferred frees.
      release_blocks(t_.old_blocks);
      release_blocks(t_.defer_ready);
      move_blocks_to_old();
      t_.defer_ready.swap(t_.defer_free);
      t_.in_sync.store(false, std::memory_order_release);
      t_.commits++;
    }

    void synchronize(uint64_t wc) {
      const int n = rlu_.hwm_.get();
      uint64_t snap[kMaxThreads];
      for (int i = 0; i < n; ++i)
        snap[i] = rlu_.threads_[i]->run_cnt.load(std::memory_order_seq_cst);
      for (int i = 0; i < n; ++i) {
        if (i == tid_ || (snap[i] & 1) == 0) continue;
        RluThread& other = *rlu_.threads_[i];
        Backoff bo;
        for (;;) {
          if (other.run_cnt.load(std::memory_order_acquire) != snap[i]) break;
          if (other.local_clock.load(std::memory_order_acquire) >= wc)
            break;  // reader already sees our copies; no need to wait
          if (other.in_sync.load(std::memory_order_acquire))
            break;  // a committing writer reads nothing more of ours
          bo.pause();
        }
      }
    }

    void move_blocks_to_old() {
      for (auto& e : t_.log) t_.old_blocks.push_back(e.block);
      t_.log.clear();
    }

    Rlu& rlu_;
    RluThread& t_;
    int tid_;
    bool active_ = false;
    bool writer_ = false;
    std::vector<ObjHeader*> pending_free_;
  };

  // -- statistics -------------------------------------------------------
  uint64_t total_aborts() const {
    uint64_t n = 0;
    for (auto& t : threads_) n += t->aborts;
    return n;
  }
  uint64_t total_commits() const {
    uint64_t n = 0;
    for (auto& t : threads_) n += t->commits;
    return n;
  }
};

}  // namespace bref
