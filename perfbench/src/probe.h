#pragma once
// What the benchmark reads from outside the library: clocks, CPU time per
// thread, the host's steal share, and the Prometheus text the server's
// METRICS op (and obs::registry()) produces. Also the run's report: the
// metric list and the one-line JSON result.

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace bref_bench {

inline uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time consumed so far by another (live) thread of this process.
inline uint64_t thread_cpu_ns(pthread_t t) {
  clockid_t id;
  if (::pthread_getcpuclockid(t, &id) != 0) return 0;
  return clock_ns(id);
}

/// CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

/// Restrict the calling thread (and the threads it creates later) to
/// `cpus`; a no-op for an empty list.
inline void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

/// Aggregate CPU jiffies from the first line of /proc/stat; steal is the
/// time the hypervisor ran something else on this VM's vCPUs.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;

  static HostCpu read() {
    HostCpu h;
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    if (cpu != "cpu") return h;
    for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
      uint64_t v = 0;
      if (!(f >> v)) return h;
      h.total += v;
      if (i == 7) h.steal = v;
    }
    return h;
  }
};

inline double steal_share(const HostCpu& a, const HostCpu& b) {
  const uint64_t dt = b.total - a.total;
  return dt == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / dt;
}

/// Series -> value from Prometheus text exposition ("name{labels} value",
/// optionally followed by an exemplar after " # ").
inline std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

inline double series(const std::map<std::string, double>& m,
                     const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One run's outcome. `attempted` counts every operation issued,
/// warm-up included; `failed` counts operations whose result was wrong,
/// shed, lost or unanswered. `correct` is false when any of them failed
/// or a whole-run check (invariants, size, load validity) did not hold.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<std::string> warnings;  // the host disturbed the measurement
  // Context printed beside the result (sample counts, whole-run tails).
  std::vector<std::pair<std::string, double>> details;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({name, value, unit});
  }
  void warn(const std::string& why) { warnings.push_back(why); }
  void detail(const std::string& name, double value) {
    details.emplace_back(name, value);
  }
};

/// The result line: exactly correct/attempted/failed/metrics.
inline std::string result_json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[160];
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  return out + "}}";
}

}  // namespace bref_bench
