#pragma once
// Run-wide settings shared by every workload, and the canonical list of
// per-layer metric names.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "api/types.h"
#include "common/random.h"
#include "probe.h"

namespace bref_bench {

/// Untimed load before the first window: caches, the entry pool and the
/// cleaner reach their steady state.
constexpr double kWarmupS = 1.0;

/// Every figure is a median over fixed-length windows, so one window hit
/// by a host hiccup moves it little.
constexpr uint64_t kWindowNs = 500'000'000;

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;

  /// Whole windows that fit in `s` seconds; at least two, so a traced run
  /// has one window of each kind.
  static int windows(double s) {
    return std::max(2, static_cast<int>(s * 1e9 / static_cast<double>(kWindowNs)));
  }
};

/// The prefill: a seeded half of the keys 1..n, in insertion order.
inline std::vector<bref::KeyT> prefill_keys(bref::KeyT n, uint64_t seed) {
  std::vector<bref::KeyT> keys(static_cast<size_t>(n));
  for (bref::KeyT k = 0; k < n; ++k) keys[static_cast<size_t>(k)] = k + 1;
  bref::Xoshiro256 shuffle(seed ^ 0x5eedull);
  for (size_t i = keys.size() - 1; i > 0; --i)
    std::swap(keys[i], keys[shuffle.next_range(i + 1)]);
  keys.resize(keys.size() / 2);
  return keys;
}

inline void sleep_until_ns(uint64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000ull);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Publishes `stop` on `control` and joins `threads`: at the end of a run,
/// and on the way out of one that threw.
struct StopJoin {
  std::atomic<int>& control;
  int stop;
  std::vector<std::thread>& threads;

  void join() const {
    control.store(stop, std::memory_order_release);
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }
  ~StopJoin() { join(); }
};

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric an untraced run prints, on every workload.
constexpr MetricName kEndToEndMetrics[] = {
    {"ops_s", "1/s"},
    {"p50_us", "us"},
    {"tail_us", "us"},
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
};

/// Every per-layer metric a traced run prints, on every workload. A layer
/// a workload does not pass through reports 0 for each of its metrics.
constexpr MetricName kLayerMetrics[] = {
    {"ds.contains_ns", "ns"},
    {"ds.insert_ns", "ns"},
    {"ds.remove_ns", "ns"},
    {"ds.rq_ns", "ns"},
    {"ds.rq_keys", "count"},
    {"ds.update_effective_frac", "ratio"},
    {"core.chain_depth_mean", "count"},
    {"core.pruned_per_update", "count"},
    {"core.pool_hit_ratio", "ratio"},
    {"core.pool_allocs_per_op", "count"},
    {"shard.maint_wakeups_per_kop", "count"},
    {"shard.pruned_per_update", "count"},
    {"net.queue_us", "us"},
    {"net.execute_us", "us"},
    {"net.flush_us", "us"},
    {"net.frames_per_batch", "count"},
    {"net.cpu_us_per_frame", "us"},
    {"net.unattributed_us", "us"},
    {"client.send_late_p99_us", "us"},
    {"client.inflight_max", "count"},
    {"trace.ops_s_ratio", "ratio"},
    {"trace.p50_ratio", "ratio"},
};

inline void add_absent_layers(Report& rep, std::initializer_list<const char*> layers) {
  for (const char* layer : layers) {
    const std::string prefix = std::string(layer) + ".";
    for (const MetricName& m : kLayerMetrics)
      if (std::string(m.name).rfind(prefix, 0) == 0) rep.add(m.name, 0.0, m.unit);
  }
}

}  // namespace bref_bench
