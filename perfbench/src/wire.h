#pragma once
// The wire workload: one generator thread drives net::Server over
// loopback, in windows that alternate between two loops. The open loop
// sends at a fixed rate, checks that the server keeps up, and gives the
// server's CPU per request. The closed loop keeps a fixed number of
// requests outstanding per connection and gives capacity and the reported
// latencies.
//
// Maintenance passes hold the workers off for about a millisecond, and
// about 1% of requests wait behind such a stall. Its length follows the
// host's steal more than the program, so every percentile at or above
// that share (the open loop's p99 and the closed loop's p99 and p99.9)
// moved by half or more between runs of the same code. They are printed
// as details; the reported tail is the closed loop's p90.
//
// The `net`, `shard` and `client` layers are read from the server's
// METRICS and STATS replies and from per-thread CPU clocks; `ds` from the
// server's per-op execute histograms; `core` from the library's
// process-wide counters (the server runs in this process).

#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/entry_pool.h"
#include "latency_hist.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "probe.h"
#include "run_config.h"

namespace bref_bench {

namespace wire {

using bref::KeyT;
using bref::ValT;
namespace net = bref::net;

constexpr KeyT kKeys = 65'536;
constexpr double kZipfTheta = 0.99;
constexpr int kConns = 4;
constexpr uint64_t kRate = 100'000;  // offered requests per second
constexpr size_t kDepth = 16;        // outstanding per connection, closed loop
constexpr int kUpdatePct = 20;       // the rest are GETs
constexpr int kSetupReps = 9;
constexpr double kClosedWarmupS = 0.5;
constexpr uint64_t kDrainNs = 2'000'000'000;
// Load validity: the server must keep up with the offered rate, or the run
// measured a backlog, not a latency. A generator that falls behind its
// schedule was descheduled by the host; that run is flagged, not failed.
constexpr double kLateLimitUs = 1000.0;
constexpr double kGoodputFloor = 0.97;
constexpr double kBacklogLimit = 2000;  // 20 ms of offered load

struct Pending {
  net::Op op;
  KeyT key;
  uint64_t due_ns;
  int slot;  // window whose latency/updates it counts in; -1 = none
  bool open;  // issued by the open loop
};

struct Conn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  std::deque<Pending> inflight;
  bool dead = false;
};

/// The schedule the main thread steps through: an open-loop warm-up, a
/// closed-loop warm-up, then open and closed windows in turn, so that each
/// kind samples the whole run and slow drifts in the host's speed reach
/// both alike; then stop. Slots number the open windows 0..open-1 and the
/// closed windows open..open+closed-1.
struct Plan {
  int open = 0;
  int closed = 0;  // equal to open
  int steps() const { return open + closed + 3; }  // + two warm-ups + stop
  int stop_step() const { return open + closed + 2; }
  bool is_open(int step) const {
    return step == 0 || (step >= 2 && step < stop_step() && step % 2 == 0);
  }
  uint64_t duration_ns(int step) const {  // of every step but the stop
    if (step == 0) return static_cast<uint64_t>(kWarmupS * 1e9);
    if (step == 1) return static_cast<uint64_t>(kClosedWarmupS * 1e9);
    return kWindowNs;
  }
  int slot(int step) const {  // -1 for the warm-ups and stop
    if (step < 2 || step >= stop_step()) return -1;
    const int i = step - 2;
    return i % 2 == 0 ? i / 2 : open + i / 2;
  }
};

struct GenOut {
  // Per window. Open windows time each request from its scheduled send,
  // closed windows from the moment it was issued.
  std::vector<LatencyHist> lat;
  std::vector<uint64_t> replies;  // accepted replies, by the window that sent
  std::vector<uint64_t> updates, effective;  // per window
  std::vector<uint64_t> backlog_end;         // outstanding as a window ended
  LatencyHist late;                          // send lateness, open windows
  uint64_t inflight_max = 0;                 // open windows
  uint64_t attempted = 0, shed = 0, invalid = 0, lost = 0, stragglers = 0;
};

class Generator {
 public:
  Generator(const Plan& plan, uint64_t seed, bool trace,
            const std::atomic<int>& step, std::vector<int> fds)
      : plan_(plan),
        trace_(trace),
        step_(step),
        rng_(seed * 0x9e3779b97f4a7c15ull + 7),
        zipf_(static_cast<uint64_t>(kKeys), kZipfTheta, seed ^ 0x21f),
        trace_base_((seed | 1) << 24) {
    for (int fd : fds) {
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
    const size_t n = static_cast<size_t>(plan.open + plan.closed);
    out_.lat.resize(n);
    out_.replies.assign(n, 0);
    out_.updates.assign(n, 0);
    out_.effective.assign(n, 0);
    out_.backlog_end.assign(n, 0);
  }

  /// Runs until the stop step and the drain that follows it; never sleeps.
  void run() {
    const uint64_t interval = 1'000'000'000ull / kRate;
    int cur = -1;
    uint64_t next_due = 0, seq = 0, drain_deadline = 0;
    for (;;) {
      const int step = step_.load(std::memory_order_acquire);
      if (step != cur) {
        if (cur >= 0 && plan_.slot(cur) >= 0)
          out_.backlog_end[static_cast<size_t>(plan_.slot(cur))] = outstanding();
        // The open loop's schedule starts afresh each time it takes over.
        if (plan_.is_open(step) && (cur < 0 || !plan_.is_open(cur))) next_due = now_ns();
        if (step == plan_.stop_step()) drain_deadline = now_ns() + kDrainNs;
        cur = step;
      }
      if (cur < 0) continue;  // not started yet
      const int slot = plan_.slot(cur);
      const bool stamp = trace_ && slot >= 0 && slot % 2 == 1;
      const uint64_t t = now_ns();
      if (cur == plan_.stop_step()) {
        if (outstanding() == 0) break;
        if (t > drain_deadline) {
          out_.stragglers += outstanding();
          break;
        }
      } else if (plan_.is_open(cur)) {
        while (next_due <= t) {
          Conn& c = conns_[seq++ % conns_.size()];
          if (!c.dead) issue(c, next_due, slot, stamp, true);
          if (slot >= 0) out_.late.record(t - next_due);
          next_due += interval;
        }
        if (slot >= 0) out_.inflight_max = std::max(out_.inflight_max, open_outstanding_);
      } else {
        for (Conn& c : conns_)
          while (!c.dead && c.inflight.size() < kDepth) issue(c, t, slot, stamp, false);
      }
      for (Conn& c : conns_) {
        if (c.dead) continue;
        if (c.out_off < c.out.size()) send_some(c);
        receive(c);
      }
    }
  }

  const GenOut& out() const { return out_; }

 private:
  uint64_t outstanding() const {
    uint64_t n = 0;
    for (const Conn& c : conns_) n += c.inflight.size();
    return n;
  }

  void issue(Conn& c, uint64_t due, int slot, bool stamp, bool open) {
    const uint64_t dice = rng_.next_range(100);
    const KeyT k =
        1 + static_cast<KeyT>(std::min<uint64_t>(zipf_.next(), kKeys - 1));
    const size_t off = c.out.size();
    net::Op op = net::Op::kGet;
    if (dice < static_cast<uint64_t>(kUpdatePct)) {
      op = rng_.next_range(2) == 0 ? net::Op::kInsert : net::Op::kRemove;
      if (op == net::Op::kInsert)
        net::encode_insert(c.out, k, k);
      else
        net::encode_remove(c.out, k);
      if (slot >= 0) ++out_.updates[static_cast<size_t>(slot)];
    } else {
      net::encode_get(c.out, k);
    }
    if (stamp) net::stamp_trace_context(c.out, off, trace_base_ + ++trace_seq_);
    c.inflight.push_back({op, k, due, slot, open});
    ++out_.attempted;
    if (open) ++open_outstanding_;
  }

  void send_some(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t r = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        kill(c);
        return;
      }
      c.out_off += static_cast<size_t>(r);
    }
    c.out.clear();
    c.out_off = 0;
  }

  void receive(Conn& c) {
    uint8_t chunk[65536];
    for (;;) {
      const ssize_t r = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        kill(c);
        return;
      }
      if (r == 0) {
        kill(c);
        return;
      }
      c.in.insert(c.in.end(), chunk, chunk + r);
      if (static_cast<size_t>(r) < sizeof chunk) break;
    }
    if (c.in.empty()) return;
    const uint64_t t = now_ns();
    size_t off = 0, advance = 0;
    net::FrameView f;
    for (;;) {
      const net::SplitResult sr =
          net::split_frame(c.in.data(), c.in.size(), off, net::kDefaultMaxFrame, &f, &advance);
      if (sr == net::SplitResult::kNeedMore) break;
      if (sr != net::SplitResult::kFrame || c.inflight.empty()) {
        kill(c);
        return;
      }
      off += advance;
      const Pending p = c.inflight.front();
      c.inflight.pop_front();
      if (p.open) --open_outstanding_;
      if (!net::decode_reply(p.op, f, &reply_)) {
        ++out_.invalid;
        kill(c);
        return;
      }
      if (!check(p, reply_)) continue;
      if (p.slot >= 0) {
        ++out_.replies[static_cast<size_t>(p.slot)];
        out_.lat[static_cast<size_t>(p.slot)].record(t - p.due_ns);
      }
    }
    if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + static_cast<ptrdiff_t>(off));
  }

  /// A reply is accepted when it answers its request: OK or NO for every
  /// op, and a found GET carries the value its key was written with.
  bool check(const Pending& p, const net::Reply& r) {
    if (r.overloaded()) {
      ++out_.shed;
      return false;
    }
    const bool ok = r.status == net::Status::kOk;
    if (!ok && r.status != net::Status::kNo) {
      ++out_.invalid;
      return false;
    }
    if (p.op == net::Op::kGet && ok && r.val != static_cast<ValT>(p.key)) {
      ++out_.invalid;
      return false;
    }
    if (p.op != net::Op::kGet && ok && p.slot >= 0)
      ++out_.effective[static_cast<size_t>(p.slot)];
    return true;
  }

  void kill(Conn& c) {
    c.dead = true;
    out_.lost += c.inflight.size();
    for (const Pending& p : c.inflight) open_outstanding_ -= p.open ? 1 : 0;
    c.inflight.clear();
  }

  const Plan plan_;
  const bool trace_;
  const std::atomic<int>& step_;
  bref::Xoshiro256 rng_;
  bref::ZipfGenerator zipf_;
  const uint64_t trace_base_;
  uint64_t trace_seq_ = 0;
  uint64_t open_outstanding_ = 0;  // requests the open loop is owed
  std::vector<Conn> conns_;
  net::Reply reply_;
  GenOut out_;
};

/// A started server at the prefilled state, with the generator's
/// connections open.
struct Instance {
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> conns;

  void reset() {
    conns.clear();
    server.reset();
  }
};

inline bool build(Instance& inst, const std::vector<KeyT>& keys) {
  net::ServerOptions opt;
  opt.workers = 2;
  opt.shards = 4;
  opt.impl = "Bundle-skiplist";
  opt.key_lo = 0;
  opt.key_hi = kKeys + 2;
  opt.maintenance = true;
  inst.server = std::make_unique<net::Server>(opt);
  inst.server->start();
  net::Client c(inst.server->port());
  net::Pipeline p(c);
  size_t ok = 0;
  auto collect = [&] {
    for (const net::Reply& r : p.collect()) ok += r.ok() ? 1 : 0;
  };
  for (KeyT k : keys) {
    p.insert(k, k);
    if (p.queued() >= 512) collect();
  }
  collect();
  for (int i = 0; i < kConns; ++i) inst.conns.emplace_back(inst.server->port());
  return ok == keys.size();
}

/// Server-side counters at one window boundary.
struct Sample {
  uint64_t t_ns = 0;
  uint64_t proc_cpu = 0, gen_cpu = 0, main_cpu = 0;
  std::map<std::string, double> m;  // METRICS, traced runs only
  double maint_pruned = 0;          // STATS, traced runs only
  bref::EntryPoolStats pool;

  double d(const Sample& b, const std::string& s) const {
    return series(b.m, s) - series(m, s);
  }
};

/// Sum of the per-shard "pruned" counts in STATS' "maintenance" array.
inline double stats_maint_pruned(const std::string& stats) {
  double sum = 0;
  size_t pos = stats.find("\"maintenance\": [");
  if (pos == std::string::npos) return 0;
  const size_t end = stats.find(']', pos);
  const std::string key = "\"pruned\": ";
  while ((pos = stats.find(key, pos)) != std::string::npos && pos < end) {
    pos += key.size();
    sum += std::strtod(stats.c_str() + pos, nullptr);
  }
  return sum;
}

}  // namespace wire

inline Report run_wire(const RunConfig& rc) {
  using namespace wire;
  Report rep;

  const std::vector<KeyT> keys = prefill_keys(kKeys, rc.seed);

  // The busy-polling generator gets a CPU of its own; the server's threads,
  // created by this thread, inherit the others. Unpinned on one CPU.
  std::vector<int> cpus = allowed_cpus();
  int gen_cpu = -1;
  if (cpus.size() >= 2) {
    gen_cpu = cpus.back();
    cpus.pop_back();
    pin_self(cpus);
  }
  rep.detail("pinned", gen_cpu >= 0 ? 1 : 0);

  Instance inst;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    inst.reset();
    const uint64_t t0 = now_ns();
    if (!build(inst, keys)) rep.fail("prefill insert of a distinct key failed");
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  net::Client ctl(inst.server->port());
  // Capture off (no sampling, no threshold) unless a traced window arms it.
  ctl.trace_config(0, UINT32_MAX);

  const double measured = rc.seconds - kWarmupS - kClosedWarmupS;
  Plan plan;
  plan.open = plan.closed = RunConfig::windows(measured / 2);
  std::vector<int> fds;
  for (net::Client& c : inst.conns) {
    ::fcntl(c.fd(), F_SETFL, ::fcntl(c.fd(), F_GETFL, 0) | O_NONBLOCK);
    fds.push_back(c.fd());
  }
  std::atomic<int> step{-1};
  Generator gen(plan, rc.seed, rc.trace, step, fds);
  std::vector<std::thread> gen_thread;
  const StopJoin stop_join{step, plan.stop_step(), gen_thread};
  gen_thread.emplace_back([&] {
    if (gen_cpu >= 0) pin_self({gen_cpu});
    gen.run();
  });
  const pthread_t gen_handle = gen_thread[0].native_handle();

  auto sample = [&] {
    Sample s;
    s.t_ns = now_ns();
    s.proc_cpu = process_cpu_ns();
    s.gen_cpu = thread_cpu_ns(gen_handle);
    s.main_cpu = clock_ns(CLOCK_THREAD_CPUTIME_ID);
    if (rc.trace) {
      s.m = parse_prometheus(ctl.metrics());
      s.maint_pruned = stats_maint_pruned(ctl.stats());
      s.pool = bref::EntryPoolRegistry::instance().totals();
    }
    return s;
  };

  // Step through the plan. `at[slot]` and `at_end[slot]` bracket each
  // window.
  const size_t nslots = static_cast<size_t>(plan.open + plan.closed);
  std::vector<Sample> at(nslots), at_end(nslots);
  uint64_t t = now_ns();
  step.store(0, std::memory_order_release);
  for (int s = 1; s < plan.steps(); ++s) {
    t += plan.duration_ns(s - 1);
    sleep_until_ns(t);
    const int prev = plan.slot(s - 1);
    const int next = plan.slot(s);
    Sample smp = sample();
    if (prev >= 0) at_end[static_cast<size_t>(prev)] = smp;
    if (next >= 0) at[static_cast<size_t>(next)] = smp;
    // Traced runs arm server capture for the odd windows only.
    if (rc.trace) {
      if (next >= 0 && next % 2 == 1)
        ctl.trace_config(128, 1000);
      else
        ctl.trace_config(0, UINT32_MAX);
    }
    step.store(s, std::memory_order_release);
  }
  stop_join.join();
  const net::ServerStats st = inst.server->stats();

  const GenOut& g = gen.out();
  rep.attempted = g.attempted;
  rep.failed = g.shed + g.invalid + g.lost + g.stragglers;
  if (g.shed > 0) rep.fail("server shed requests");
  if (g.invalid > 0) rep.fail("a reply did not match its request");
  if (g.lost + g.stragglers > 0) rep.fail("requests lost or unanswered");
  if (st.protocol_errors > 0) rep.fail("server sent protocol errors");

  // Per-window figures; odd windows of a traced run are the traced ones.
  auto secs = [&](size_t s) {
    return static_cast<double>(at_end[s].t_ns - at[s].t_ns) / 1e9;
  };
  auto server_cpu_us = [&](size_t s) {
    const Sample& a = at[s];
    const Sample& b = at_end[s];
    return static_cast<double>((b.proc_cpu - a.proc_cpu) - (b.gen_cpu - a.gen_cpu) -
                               (b.main_cpu - a.main_cpu)) / 1e3;
  };
  std::vector<double> p50[2], p90[2], p99[2], p999[2], cpu[2], cap[2];
  std::vector<double> open_p50, open_p99;
  double open_replies = 0, open_secs = 0;
  std::vector<double> backlog;
  LatencyHist all, all_closed;
  for (int w = 0; w < plan.open; ++w) {
    const size_t s = static_cast<size_t>(w);
    const int side = rc.trace && w % 2 == 1 ? 1 : 0;
    if (side == 0) {
      open_p50.push_back(g.lat[s].quantile(0.50) / 1e3);
      open_p99.push_back(g.lat[s].quantile(0.99) / 1e3);
    }
    cpu[side].push_back(ratio(server_cpu_us(s), static_cast<double>(g.replies[s])));
    open_replies += static_cast<double>(g.replies[s]);
    open_secs += secs(s);
    backlog.push_back(static_cast<double>(g.backlog_end[s]));
    all += g.lat[s];
  }
  for (int w = 0; w < plan.closed; ++w) {
    const size_t s = static_cast<size_t>(plan.open + w);
    const int side = rc.trace && (plan.open + w) % 2 == 1 ? 1 : 0;
    cap[side].push_back(static_cast<double>(g.replies[s]) / secs(s));
    p50[side].push_back(g.lat[s].quantile(0.50) / 1e3);
    p90[side].push_back(g.lat[s].quantile(0.90) / 1e3);
    p99[side].push_back(g.lat[s].quantile(0.99) / 1e3);
    p999[side].push_back(g.lat[s].quantile(0.999) / 1e3);
    all_closed += g.lat[s];
  }
  const double goodput = ratio(open_replies, open_secs);
  const double late_p99_us = g.late.quantile(0.99) / 1e3;
  if (goodput < kGoodputFloor * static_cast<double>(kRate))
    rep.fail("goodput fell below the offered rate");
  if (late_p99_us > kLateLimitUs) rep.warn("generator fell behind its schedule");
  // A stall leaves a backlog at the end of a window or two; a server that
  // cannot keep up leaves one at the end of most.
  if (median(backlog) > kBacklogLimit) rep.fail("request backlog kept growing");
  rep.detail("offered_ops_s", static_cast<double>(kRate));
  rep.detail("goodput_ops_s", goodput);
  rep.detail("open_latency_samples", static_cast<double>(all.count()));
  rep.detail("open_p50_us", median(open_p50));
  rep.detail("open_p99_us", median(open_p99));
  rep.detail("open_p999_us_whole_run", all.quantile(0.999) / 1e3);
  rep.detail("closed_latency_samples", static_cast<double>(all_closed.count()));
  rep.detail("closed_p99_us", median(p99[0]));
  rep.detail("closed_p999_us", median(p999[0]));
  rep.detail("closed_p999_us_whole_run", all_closed.quantile(0.999) / 1e3);
  rep.detail("send_late_p99_us", late_p99_us);
  rep.detail("backlog_median_at_window_end", median(backlog));

  if (!rc.trace) {
    rep.add("ops_s", median(cap[0]), "1/s");
    rep.add("p50_us", median(p50[0]), "us");
    rep.add("tail_us", median(p90[0]), "us");  // p90, see the top of the file
    rep.add("cpu_us_per_op", median(cpu[0]), "us");
    rep.add("setup_s", median(setup_s), "s");
    return rep;
  }

  // Traced open windows: the offered-rate regime, where the server's stage
  // times can be set against latency from the scheduled send.
  double frames = 0, batches = 0, wakeups = 0, pruned_core = 0, pruned_maint = 0;
  double depth_sum = 0, depth_n = 0, srv_cpu_us = 0, updates = 0, effective = 0;
  double stage_sum[3] = {0, 0, 0}, stage_n[3] = {0, 0, 0};
  double op_sum[3] = {0, 0, 0}, op_n[3] = {0, 0, 0};
  bref::EntryPoolStats pool;
  LatencyHist traced;
  const char* stages[3] = {"queue", "execute", "flush"};
  const char* ops[3] = {"get", "insert", "remove"};
  for (int w = 1; w < plan.open; w += 2) {
    const size_t s = static_cast<size_t>(w);
    const Sample& a = at[s];
    const Sample& b = at_end[s];
    frames += a.d(b, "bref_net_frames_total");
    batches += a.d(b, "bref_net_batches_total");
    wakeups += a.d(b, "bref_maintenance_wakeups_total{reason=\"backlog\"}") +
               a.d(b, "bref_maintenance_wakeups_total{reason=\"timer\"}");
    pruned_core += a.d(b, "bref_bundle_entries_pruned_total");
    pruned_maint += b.maint_pruned - a.maint_pruned;
    depth_sum += a.d(b, "bref_bundle_chain_depth_sum");
    depth_n += a.d(b, "bref_bundle_chain_depth_count");
    for (int i = 0; i < 3; ++i) {
      const std::string st_l = std::string("{stage=\"") + stages[i] + "\"}";
      stage_sum[i] += a.d(b, "bref_net_stage_seconds_sum" + st_l);
      stage_n[i] += a.d(b, "bref_net_stage_seconds_count" + st_l);
      const std::string op_l = std::string("{op=\"") + ops[i] + "\"}";
      op_sum[i] += a.d(b, "bref_net_op_seconds_sum" + op_l);
      op_n[i] += a.d(b, "bref_net_op_seconds_count" + op_l);
    }
    srv_cpu_us += server_cpu_us(s);
    updates += static_cast<double>(g.updates[s]);
    effective += static_cast<double>(g.effective[s]);
    bref::EntryPoolStats dp = b.pool;
    dp -= a.pool;
    pool += dp;
    traced += g.lat[s];
  }
  double stage_us[3];
  for (int i = 0; i < 3; ++i) stage_us[i] = ratio(stage_sum[i], stage_n[i]) * 1e6;
  rep.add("ds.contains_ns", ratio(op_sum[0], op_n[0]) * 1e9, "ns");
  rep.add("ds.insert_ns", ratio(op_sum[1], op_n[1]) * 1e9, "ns");
  rep.add("ds.remove_ns", ratio(op_sum[2], op_n[2]) * 1e9, "ns");
  rep.add("ds.rq_ns", 0.0, "ns");  // no range queries on this workload
  rep.add("ds.rq_keys", 0.0, "count");
  rep.add("ds.update_effective_frac", ratio(effective, updates), "ratio");
  rep.add("core.chain_depth_mean", ratio(depth_sum, depth_n), "count");
  rep.add("core.pruned_per_update", ratio(pruned_core, updates), "count");
  rep.add("core.pool_hit_ratio",
          ratio(static_cast<double>(pool.hits), static_cast<double>(pool.hits + pool.misses)),
          "ratio");
  rep.add("core.pool_allocs_per_op", ratio(static_cast<double>(pool.allocs()), frames), "count");
  rep.add("shard.maint_wakeups_per_kop", ratio(wakeups, frames) * 1e3, "count");
  rep.add("shard.pruned_per_update", ratio(pruned_maint, updates), "count");
  rep.add("net.queue_us", stage_us[0], "us");
  rep.add("net.execute_us", stage_us[1], "us");
  rep.add("net.flush_us", stage_us[2], "us");
  rep.add("net.frames_per_batch", ratio(frames, batches), "count");
  rep.add("net.cpu_us_per_frame", ratio(srv_cpu_us, frames), "us");
  rep.add("net.unattributed_us",
          traced.mean() / 1e3 - (stage_us[0] + stage_us[1] + stage_us[2]), "us");
  rep.add("client.send_late_p99_us", late_p99_us, "us");
  rep.add("client.inflight_max", static_cast<double>(g.inflight_max), "count");
  rep.add("trace.ops_s_ratio", ratio(median(cap[1]), median(cap[0])), "ratio");
  rep.add("trace.p50_ratio", ratio(median(p50[1]), median(p50[0])), "ratio");
  return rep;
}

}  // namespace bref_bench
