#pragma once
// Self-registering implementation registry — the runtime factory behind
// bref::Set.
//
// Each technique x structure combination contributes one ImplDescriptor
// (name, structure, capability flags) plus a factory into a process-wide
// table. Registration is one line per implementation:
//
//   inline const bref::RegisterSet<MyWrapperSet> reg_my_wrapper{};
//
// (see builtin_impls.h for the 18 builtin configurations) or, scoped to a
// test, `bref::ScopedRegistration<MyWrapperSet> reg;`. Everything else —
// any_set_names(), capability validation, the README capability table —
// is *derived* from the descriptors, so adding another implementation
// touches no registry code. The LFCA tree (builtin #18) went in exactly
// this way: a new header under src/ds/lfca/ plus one registration line.
//
// Capabilities are derived from the implementation type itself (the
// two-factor constructor-shape + runtime-hook tests in impl_traits.h):
//   * linearizable_rq  — the DS's kLinearizableRq tag;
//   * relaxation       — (relax_threshold, reclaim) constructor AND a
//                        global_timestamp() hook;
//   * reclamation      — a constructor taking the reclaim flag AND a
//                        reclaim_enabled() hook;
//   * rq_timestamp     — DS exposes last_rq_timestamp(tid).
// A knob an implementation cannot honor is by definition a capability it
// lacks, so the silent-drop failure mode of the old make_any_set if-chain
// (options ignored for 14 of 17 implementations) cannot reappear: create()
// cross-checks SetOptions against the flags and throws
// UnsupportedOptionError, and construct_set() forwards a knob only down
// the same predicates that produced the flags.

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/impl_traits.h"
#include "api/set_interface.h"

namespace bref {

/// Compile-time capability derivation (see header comment).
template <typename DS>
constexpr Capabilities caps_of() {
  return Capabilities{DS::kLinearizableRq, detail::accepts_relaxation_v<DS>,
                      detail::accepts_reclamation_v<DS>,
                      detail::HasLastRqTimestamp<DS>::value,
                      detail::coordinated_rq_v<DS>};
}

namespace detail {

/// Adapts a concrete implementation onto the virtual interface.
template <typename DS>
class AnySetAdapter final : public AnyOrderedSet {
 public:
  template <typename... Args>
  explicit AnySetAdapter(Args&&... args) : ds_(std::forward<Args>(args)...) {}

  bool insert(int tid, KeyT key, ValT val) override {
    return ds_.insert(tid, key, val);
  }
  bool remove(int tid, KeyT key) override { return ds_.remove(tid, key); }
  bool contains(int tid, KeyT key, ValT* out) override {
    return ds_.contains(tid, key, out);
  }
  size_t range_query(int tid, KeyT lo, KeyT hi,
                     std::vector<std::pair<KeyT, ValT>>& out) override {
    return ds_.range_query(tid, lo, hi, out);
  }
  size_t range_query(int tid, KeyT lo, KeyT hi, RangeSnapshot& out) override {
    return fill_range_query(ds_, tid, lo, hi, out);
  }
  std::vector<std::pair<KeyT, ValT>> to_vector() const override {
    return ds_.to_vector();
  }
  size_t size_slow() const override { return ds_.size_slow(); }
  bool check_invariants() const override { return ds_.check_invariants(); }
  const char* technique() const override { return DS::kName; }
  const char* structure() const override { return DS::kStructure; }
  Capabilities capabilities() const override { return caps_of<DS>(); }

  // -- shard-layer hooks, derived from the concrete type ------------------
  bool adopt_clock(GlobalTimestamp& leader) override {
    if constexpr (HasGlobalTimestamp<DS>::value) {
      ds_.global_timestamp().share_with(leader);
      return true;
    } else {
      (void)leader;
      return false;
    }
  }
  RqTracker* rq_tracker_hook() override {
    if constexpr (HasRqTracker<DS>::value) {
      return &ds_.rq_tracker();
    } else {
      return nullptr;
    }
  }
  // OptEbrGuard semantics, split so the shard coordinator can pin BEFORE
  // reading the shared clock (see set_interface.h): leaky instances skip
  // epoch traffic — nothing is freed before destruction there. One gate
  // shared by both halves so they can never disagree (an unbalanced pin
  // silently halts epoch advancement).
  void rq_pin(int tid) override {
    if constexpr (requires(DS& d) { d.ebr(); })
      if (epoch_guarded()) ds_.ebr().pin(tid);
  }
  void rq_unpin(int tid) override {
    if constexpr (requires(DS& d) { d.ebr(); })
      if (epoch_guarded()) ds_.ebr().unpin(tid);
  }
  // Split pin, mapped onto Ebr's prepare/confirm halves so the shard
  // coordinator can batch the announce stores of many shards (see
  // set_interface.h). Gated by the same epoch_guarded() predicate as the
  // fused form, so the halves can never disagree with rq_unpin.
  void rq_pin_prepare(int tid) override {
    if constexpr (requires(DS& d) { d.ebr(); })
      if (epoch_guarded()) ds_.ebr().pin_prepare(tid);
  }
  void rq_pin_confirm(int tid) override {
    if constexpr (requires(DS& d) { d.ebr(); })
      if (epoch_guarded()) ds_.ebr().pin_confirm(tid);
  }
  size_t range_query_at(int tid, timestamp_t ts, KeyT lo, KeyT hi,
                        std::vector<std::pair<KeyT, ValT>>& out) override {
    if constexpr (HasRangeQueryAt<DS>::value) {
      return ds_.range_query_at(tid, ts, lo, hi, out);
    } else {
      (void)tid, (void)ts, (void)lo, (void)hi, (void)out;
      return 0;
    }
  }

  MaintenanceWork maintain(int tid) override {
    return maintenance_pass(ds_, tid);
  }
  size_t maintenance_backlog() const override {
    if constexpr (requires(const DS& d) { d.limbo_size(); }) {
      return ds_.limbo_size();
    } else {
      return 0;
    }
  }
  void set_maintenance_signal(MaintenanceSignal* s) override {
    // Prefer the DS's own hook (EBR-RQ: the provider bumps on every limbo
    // park — the backlog maintenance_backlog() actually reports); fall
    // back to the Ebr retire path (the bundled families: one retire per
    // physical remove, the producer of prunable entries and limbo nodes).
    if constexpr (requires(DS& d) { d.set_maintenance_signal(s); })
      ds_.set_maintenance_signal(s);
    else if constexpr (requires(DS& d) { d.ebr(); })
      ds_.ebr().set_maintenance_signal(s);
    else
      (void)s;
  }

  DS& underlying() { return ds_; }

 private:
  /// Whether readers need epoch pins (OptEbrGuard's condition): instances
  /// with a reclaim toggle pin only when it is on; an EBR-owning type
  /// without the toggle always reclaims.
  bool epoch_guarded() const {
    if constexpr (HasReclaimEnabled<DS>::value)
      return ds_.reclaim_enabled();
    else
      return true;
  }

  DS ds_;
};

/// Shared factory body: options have already been validated against the
/// descriptor by ImplRegistry::create. Knob forwarding branches on the
/// same impl_traits predicates that derived the capability flags, so a
/// knob can never be passed into a constructor parameter that means
/// something else (see impl_traits.h header comment).
template <typename DS>
std::unique_ptr<AnyOrderedSet> construct_set(const SetOptions& opt) {
  if constexpr (accepts_relaxation_v<DS>) {
    return std::make_unique<AnySetAdapter<DS>>(opt.relax_threshold,
                                               opt.reclaim);
  } else if constexpr (accepts_reclamation_v<DS>) {
    return std::make_unique<AnySetAdapter<DS>>(opt.reclaim);
  } else {
    return std::make_unique<AnySetAdapter<DS>>();
  }
}

}  // namespace detail

struct ImplDescriptor {
  std::string name;       // "<technique>-<structure>", e.g. "Bundle-skiplist"
  std::string technique;  // "Bundle", "Unsafe", "EBR-RQ", ...
  std::string structure;  // "list", "skiplist", "citrus"
  Capabilities caps;
  bool builtin = false;   // one of the 17 paper configurations
};

class ImplRegistry {
 public:
  using Factory = std::unique_ptr<AnyOrderedSet> (*)(const SetOptions&);

  static ImplRegistry& instance() {
    static ImplRegistry reg;
    return reg;
  }

  /// Register a descriptor + factory. Duplicate names are an error: the
  /// builtin configurations are enumerable by name, and an unnamed shadow
  /// registration is exactly the drift the registry test pins down.
  void add(ImplDescriptor desc, Factory factory) {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& e : entries_)
      if (e.desc.name == desc.name)
        throw std::invalid_argument("duplicate registration: " + desc.name);
    entries_.push_back(Entry{std::move(desc), factory});
  }

  /// Remove by name (ScopedRegistration's destructor). Returns false if
  /// absent.
  bool remove(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->desc.name == name) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Descriptor lookup; nullopt-style (nullptr) when unknown. The returned
  /// copy is intentional: entries may move as the registry grows.
  std::vector<ImplDescriptor> descriptors() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<ImplDescriptor> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.desc);
    return out;
  }

  bool find(std::string_view name, ImplDescriptor* out = nullptr) const {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& e : entries_) {
      if (e.desc.name == name) {
        if (out != nullptr) *out = e.desc;
        return true;
      }
    }
    return false;
  }

  std::vector<std::string> names() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.desc.name);
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return entries_.size();
  }

  /// Construct by name, validating every non-default option against the
  /// implementation's capabilities. Unknown names throw
  /// std::invalid_argument; unsupported options throw
  /// UnsupportedOptionError (never silently dropped).
  std::unique_ptr<AnyOrderedSet> create(const std::string& name,
                                        const SetOptions& opt = {}) const {
    Factory factory = nullptr;
    ImplDescriptor desc;
    {
      std::lock_guard<std::mutex> g(mu_);
      for (const auto& e : entries_) {
        if (e.desc.name == name) {
          desc = e.desc;
          factory = e.factory;
          break;
        }
      }
    }
    if (factory == nullptr)
      throw std::invalid_argument("unknown ordered-set implementation: " +
                                  name);
    if (opt.relax_threshold != SetOptions{}.relax_threshold &&
        !desc.caps.relaxation)
      throw UnsupportedOptionError(name, "relax_threshold");
    if (opt.reclaim && !desc.caps.reclamation)
      throw UnsupportedOptionError(name, "reclaim");
    return factory(opt);
  }

 private:
  struct Entry {
    ImplDescriptor desc;
    Factory factory;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

/// Descriptor derived entirely from the implementation type.
template <typename DS>
ImplDescriptor descriptor_of(bool builtin = false) {
  return ImplDescriptor{std::string(DS::kName) + "-" + DS::kStructure,
                        DS::kName, DS::kStructure, caps_of<DS>(), builtin};
}

/// Static registrar: `inline const RegisterSet<MySet> reg_my_set{};` in a
/// header is the complete hookup for a new implementation.
template <typename DS>
struct RegisterSet {
  explicit RegisterSet(bool builtin = false) {
    ImplRegistry::instance().add(descriptor_of<DS>(builtin),
                                 &detail::construct_set<DS>);
  }
};

/// RAII registration for tests: registers on construction, removes on
/// destruction, leaving the builtin table untouched.
template <typename DS>
class ScopedRegistration {
 public:
  ScopedRegistration()
      : name_(std::string(DS::kName) + "-" + DS::kStructure) {
    ImplRegistry::instance().add(descriptor_of<DS>(/*builtin=*/false),
                                 &detail::construct_set<DS>);
  }
  ~ScopedRegistration() { ImplRegistry::instance().remove(name_); }

  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

}  // namespace bref
