#pragma once
// In-process workloads: closed-loop threads calling the set directly
// through TypedSession — no server, no shards. The layers on the path are
// `ds` (the skiplist's operations, timed per call by the benchmark) and
// `core` (bundles, the entry pool, the cleaner's pruning; read from the
// library's obs registry and EntryPoolRegistry).

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/ordered_set.h"
#include "api/range_snapshot.h"
#include "api/session.h"
#include "common/random.h"
#include "core/bundle_cleaner.h"
#include "core/entry_pool.h"
#include "obs/metrics.h"
#include "latency_hist.h"
#include "probe.h"
#include "run_config.h"

namespace bref_bench {

struct InprocMix {
  int u_pct;   // updates, split evenly between insert and remove
  int c_pct;   // contains
  int rq_pct;  // range queries
};

namespace inproc {

using DS = bref::BundleSkipListSet;
using bref::KeyT;
using bref::ValT;

// Key range 100k at half occupancy: ~50k keys, whose skiplist nodes and
// bundles outgrow a 2 MiB L2 but fit in L3.
constexpr KeyT kKeyRange = 100'000;
constexpr int kThreads = 3;
constexpr KeyT kRqSize = 50;
constexpr int kSetupReps = 9;

/// A fresh structure at the prefilled state, with its cleaner running.
/// Members die in reverse order, so the cleaner stops before ds goes.
struct Instance {
  std::unique_ptr<DS> ds;
  std::unique_ptr<bref::BundleCleaner<DS>> cleaner;

  void reset() {
    cleaner.reset();
    ds.reset();
  }
};

/// Build one instance from the prefill key list; false if an insert of a
/// distinct key did not succeed.
inline bool build(Instance& inst, const std::vector<KeyT>& keys,
                  const std::vector<int>& cpus) {
  inst.ds = std::make_unique<DS>(1, /*reclaim=*/true);
  std::atomic<size_t> inserted{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      if (!cpus.empty()) pin_self({cpus[static_cast<size_t>(t)]});
      bref::TypedSession<DS> s(*inst.ds, t);
      size_t n = 0;
      for (size_t i = static_cast<size_t>(t); i < keys.size(); i += kThreads)
        n += s.insert(keys[i], keys[i]) ? 1 : 0;
      inserted.fetch_add(n);
    });
  }
  for (auto& th : ts) th.join();
  inst.cleaner = std::make_unique<bref::BundleCleaner<DS>>(*inst.ds);
  return inserted.load() == keys.size();
}

/// A result must be sorted, duplicate-free, inside [lo, hi], and carry the
/// value every key was written with (its own key).
inline bool rq_valid(const bref::RangeSnapshot& s, KeyT lo, KeyT hi) {
  KeyT prev = lo;
  bool first = true;
  for (const auto& [k, v] : s) {
    if (k < lo || k > hi || (!first && k <= prev) || v != static_cast<ValT>(k))
      return false;
    prev = k;
    first = false;
  }
  return true;
}

struct CallStats {
  uint64_t n = 0;
  uint64_t ns = 0;
  void add(uint64_t d) {
    ++n;
    ns += d;
  }
  double mean() const { return ratio(static_cast<double>(ns), n); }
};

/// Per-thread results, indexed by window; slot `windows` collects warm-up.
struct alignas(64) WorkerOut {
  std::vector<uint64_t> ops;
  std::vector<LatencyHist> rq_lat;
  CallStats contains, insert, remove, rq;  // traced windows only
  uint64_t rq_keys = 0;                    // traced windows only
  uint64_t updates_effective = 0;          // traced windows only
  uint64_t inserted = 0, removed = 0;      // whole run, for the size check
  uint64_t attempted = 0, failed = 0;
};

inline void worker(DS& ds, int tid, const InprocMix& mix, uint64_t seed,
                   bool trace, int windows, const std::atomic<int>& window,
                   WorkerOut& out) {
  bref::TypedSession<DS> s(ds, tid);
  bref::Xoshiro256 rng(seed * 977 + static_cast<uint64_t>(tid));
  bref::RangeSnapshot snap;
  snap.buffer().reserve(kRqSize + 16);
  out.ops.assign(static_cast<size_t>(windows) + 1, 0);
  out.rq_lat.resize(static_cast<size_t>(windows) + 1);
  for (;;) {
    const int w = window.load(std::memory_order_relaxed);
    if (w >= windows) break;
    const size_t slot = w < 0 ? static_cast<size_t>(windows) : static_cast<size_t>(w);
    // Odd windows of a traced run time every call; the others time only
    // the range queries the end-to-end latency needs.
    const bool timed = trace && w >= 0 && w % 2 == 1;
    const uint64_t dice = rng.next_range(100);
    const KeyT k = 1 + static_cast<KeyT>(rng.next_range(kKeyRange));
    if (dice < static_cast<uint64_t>(mix.u_pct)) {
      const bool ins = rng.next_range(2) == 0;
      const uint64_t t0 = timed ? now_ns() : 0;
      const bool changed = ins ? s.insert(k, k) : s.remove(k);
      if (timed) (ins ? out.insert : out.remove).add(now_ns() - t0);
      if (changed) {
        (ins ? out.inserted : out.removed) += 1;
        if (timed) ++out.updates_effective;
      }
    } else if (dice < static_cast<uint64_t>(mix.u_pct + mix.c_pct)) {
      ValT v = 0;
      const uint64_t t0 = timed ? now_ns() : 0;
      const bool found = s.contains(k, &v);
      if (timed) out.contains.add(now_ns() - t0);
      if (found && v != static_cast<ValT>(k)) ++out.failed;
    } else {
      const KeyT hi = k + kRqSize - 1;
      const uint64_t t0 = now_ns();
      s.range_query(k, hi, snap);
      const uint64_t d = now_ns() - t0;
      out.rq_lat[slot].record(d);
      if (timed) {
        out.rq.add(d);
        out.rq_keys += snap.size();
      }
      if (!rq_valid(snap, k, hi)) ++out.failed;
    }
    ++out.ops[slot];
    ++out.attempted;
  }
}

/// Library-side counters the core metrics are deltas of.
struct CoreSample {
  uint64_t cpu_ns = 0;
  uint64_t t_ns = 0;
  bref::EntryPoolStats pool;
  double depth_sum = 0, depth_count = 0, pruned = 0;

  static CoreSample take(bool with_core) {
    CoreSample c;
    c.t_ns = now_ns();
    c.cpu_ns = process_cpu_ns();
    if (with_core) {
      c.pool = bref::EntryPoolRegistry::instance().totals();
      const auto m = parse_prometheus(bref::obs::registry().prometheus());
      c.depth_sum = series(m, "bref_bundle_chain_depth_sum");
      c.depth_count = series(m, "bref_bundle_chain_depth_count");
      c.pruned = series(m, "bref_bundle_entries_pruned_total");
    }
    return c;
  }
};

}  // namespace inproc

inline Report run_inproc(const InprocMix& mix, const RunConfig& rc) {
  using namespace inproc;
  Report rep;

  const std::vector<KeyT> keys = prefill_keys(kKeyRange, rc.seed);

  // One CPU per worker thread; the controller and the cleaner share the
  // last, so neither preempts a worker. Unpinned on a smaller machine.
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() > static_cast<size_t>(kThreads)) {
    pin_self({cpus.back()});
    cpus.resize(kThreads);
  } else {
    cpus.clear();
  }
  rep.detail("pinned", cpus.empty() ? 0 : 1);

  // Set-up, repeated; the last instance is the one measured. Tearing the
  // previous one down is not part of set-up.
  Instance inst;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    inst.reset();
    const uint64_t t0 = now_ns();
    if (!build(inst, keys, cpus)) rep.fail("prefill insert of a distinct key failed");
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const int windows = rc.windows(rc.seconds - kWarmupS);
  std::atomic<int> window{-1};
  std::vector<WorkerOut> outs(kThreads);
  std::vector<std::thread> ts;
  const StopJoin stop_join{window, windows, ts};
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      if (!cpus.empty()) pin_self({cpus[static_cast<size_t>(t)]});
      worker(*inst.ds, t, mix, rc.seed, rc.trace, windows, window, outs[static_cast<size_t>(t)]);
    });

  // Warm-up, then fixed-length windows on an absolute schedule.
  std::vector<CoreSample> at(static_cast<size_t>(windows) + 1);
  const uint64_t t_start = now_ns() + static_cast<uint64_t>(kWarmupS * 1e9);
  sleep_until_ns(t_start);
  for (int w = 0; w <= windows; ++w) {
    if (w > 0) sleep_until_ns(t_start + static_cast<uint64_t>(w) * kWindowNs);
    at[static_cast<size_t>(w)] = CoreSample::take(rc.trace);
    window.store(w, std::memory_order_relaxed);
  }
  stop_join.join();
  inst.cleaner->stop();

  uint64_t inserted = 0, removed = 0;
  for (const WorkerOut& o : outs) {
    rep.attempted += o.attempted;
    rep.failed += o.failed;
    inserted += o.inserted;
    removed += o.removed;
  }
  if (rep.failed > 0) rep.fail("range query or lookup returned a wrong result");
  if (!inst.ds->check_invariants()) rep.fail("check_invariants() failed after the run");
  const uint64_t expect = keys.size() + inserted - removed;
  if (inst.ds->size_slow() != expect)
    rep.fail("size_slow() != prefill + inserted - removed");

  // Per-window figures; odd windows of a traced run are the traced ones.
  std::vector<double> ops_s[2], p50[2], p99[2], cpu[2];
  for (int w = 0; w < windows; ++w) {
    uint64_t ops = 0;
    LatencyHist lat;
    for (const WorkerOut& o : outs) {
      ops += o.ops[static_cast<size_t>(w)];
      lat += o.rq_lat[static_cast<size_t>(w)];
    }
    const CoreSample& a = at[static_cast<size_t>(w)];
    const CoreSample& b = at[static_cast<size_t>(w) + 1];
    const int side = rc.trace && w % 2 == 1 ? 1 : 0;
    ops_s[side].push_back(static_cast<double>(ops) / (static_cast<double>(b.t_ns - a.t_ns) / 1e9));
    p50[side].push_back(lat.quantile(0.50) / 1e3);
    p99[side].push_back(lat.quantile(0.99) / 1e3);
    cpu[side].push_back(ratio(static_cast<double>(b.cpu_ns - a.cpu_ns) / 1e3, static_cast<double>(ops)));
  }
  LatencyHist all;
  for (const WorkerOut& o : outs)
    for (int w = 0; w < windows; ++w) all += o.rq_lat[static_cast<size_t>(w)];
  rep.detail("rq_samples", static_cast<double>(all.count()));
  rep.detail("ops_s_window_min", *std::min_element(ops_s[0].begin(), ops_s[0].end()));
  rep.detail("ops_s_window_max", *std::max_element(ops_s[0].begin(), ops_s[0].end()));
  rep.detail("rq_p999_us_whole_run", all.quantile(0.999) / 1e3);
  rep.detail("prefill_keys", static_cast<double>(keys.size()));
  rep.detail("final_size", static_cast<double>(expect));

  if (!rc.trace) {
    rep.add("ops_s", median(ops_s[0]), "1/s");
    rep.add("p50_us", median(p50[0]), "us");
    rep.add("tail_us", median(p99[0]), "us");  // p99 of range-query calls
    rep.add("cpu_us_per_op", median(cpu[0]), "us");
    rep.add("setup_s", median(setup_s), "s");
    return rep;
  }

  // Traced windows: per-call means and core counter deltas.
  CallStats contains, insert, remove, rq;
  uint64_t rq_keys = 0, effective = 0, ops = 0;
  for (const WorkerOut& o : outs) {
    contains.n += o.contains.n, contains.ns += o.contains.ns;
    insert.n += o.insert.n, insert.ns += o.insert.ns;
    remove.n += o.remove.n, remove.ns += o.remove.ns;
    rq.n += o.rq.n, rq.ns += o.rq.ns;
    rq_keys += o.rq_keys;
    effective += o.updates_effective;
    for (int w = 1; w < windows; w += 2) ops += o.ops[static_cast<size_t>(w)];
  }
  const double updates = static_cast<double>(insert.n + remove.n);
  double depth_sum = 0, depth_n = 0, pruned = 0;
  bref::EntryPoolStats pool;
  for (int w = 1; w < windows; w += 2) {
    const CoreSample& a = at[static_cast<size_t>(w)];
    const CoreSample& b = at[static_cast<size_t>(w) + 1];
    depth_sum += b.depth_sum - a.depth_sum;
    depth_n += b.depth_count - a.depth_count;
    pruned += b.pruned - a.pruned;
    bref::EntryPoolStats d = b.pool;
    d -= a.pool;
    pool += d;
  }
  rep.add("ds.contains_ns", contains.mean(), "ns");
  rep.add("ds.insert_ns", insert.mean(), "ns");
  rep.add("ds.remove_ns", remove.mean(), "ns");
  rep.add("ds.rq_ns", rq.mean(), "ns");
  rep.add("ds.rq_keys", ratio(static_cast<double>(rq_keys), static_cast<double>(rq.n)), "count");
  rep.add("ds.update_effective_frac", ratio(static_cast<double>(effective), updates), "ratio");
  rep.add("core.chain_depth_mean", ratio(depth_sum, depth_n), "count");
  rep.add("core.pruned_per_update", ratio(pruned, updates), "count");
  rep.add("core.pool_hit_ratio",
          ratio(static_cast<double>(pool.hits), static_cast<double>(pool.hits + pool.misses)),
          "ratio");
  rep.add("core.pool_allocs_per_op",
          ratio(static_cast<double>(pool.allocs()), static_cast<double>(ops)), "count");
  add_absent_layers(rep, {"shard", "net", "client"});
  rep.add("trace.ops_s_ratio", ratio(median(ops_s[1]), median(ops_s[0])), "ratio");
  rep.add("trace.p50_ratio", ratio(median(p50[1]), median(p50[0])), "ratio");
  return rep;
}

}  // namespace bref_bench
