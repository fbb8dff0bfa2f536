// bref-bench: one benchmark for the library and the wire.
//
//   bref_bench --workload <wire-point|inproc-rq|inproc-update>
//              --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and the tracing overhead. The
// last line of standard output is the result as one JSON object; the
// lines before it, each starting with '#', record the environment (steal
// share, nproc, compiler, build type, BREF_OBS), sample counts and the
// reasons a run was judged incorrect. perfbench/README.md describes the
// workloads and what each metric should move.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "inproc.h"
#include "obs/metrics.h"
#include "probe.h"
#include "run_config.h"
#include "wire.h"

#ifndef BREF_BENCH_BUILD_TYPE
#define BREF_BENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define BREF_BENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define BREF_BENCH_COMPILER "gcc " __VERSION__
#else
#define BREF_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace bref_bench;

int usage(const char* why) {
  std::fprintf(stderr,
               "bref_bench: %s\nusage: bref_bench --workload "
               "<wire-point|inproc-rq|inproc-update> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

/// The printed names must be exactly the canonical list for the run kind.
template <size_t N>
bool names_match(const Report& rep, const MetricName (&want)[N]) {
  std::set<std::string> got, exp;
  for (const Metric& m : rep.metrics) got.insert(m.name + "/" + m.unit);
  for (const MetricName& m : want) exp.insert(std::string(m.name) + "/" + m.unit);
  return got == exp && rep.metrics.size() == N;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig rc;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      rc.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (a == "--seconds") {
      rc.seconds = std::strtod(v, &end);
      have_seconds = *v != '\0' && *end == '\0' && rc.seconds >= 2 && rc.seconds <= 120;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      rc.trace = std::strcmp(v, "1") == 0;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (2..120) and --trace (0|1) are required");

  const HostCpu host0 = HostCpu::read();
  Report rep;
  try {
    if (workload == "wire-point") {
      rep = run_wire(rc);
    } else if (workload == "inproc-rq") {
      rep = run_inproc({10, 40, 50}, rc);
    } else if (workload == "inproc-update") {
      rep = run_inproc({90, 0, 10}, rc);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bref_bench: %s\n", e.what());
    return 1;
  }
  const HostCpu host1 = HostCpu::read();

  const bool names_ok = rc.trace ? names_match(rep, kLayerMetrics)
                                 : names_match(rep, kEndToEndMetrics);
  if (!names_ok) {
    std::fprintf(stderr, "bref_bench: metric list does not match the canonical one\n");
    return 3;
  }

  std::printf("# bref-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(rc.seed),
              rc.seconds, rc.trace ? 1 : 0);
  std::printf("# env {\"nproc\": %ld, \"steal_share\": %.4f, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"bref_obs\": \"%s\"}\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), steal_share(host0, host1),
              BREF_BENCH_COMPILER, BREF_BENCH_BUILD_TYPE,
              bref::obs::kEnabled ? "ON" : "OFF");
  std::printf("# detail {");
  for (size_t i = 0; i < rep.details.size(); ++i)
    std::printf("%s\"%s\": %.6g", i > 0 ? ", " : "", rep.details[i].first.c_str(),
                rep.details[i].second);
  std::printf("}\n");
  for (const Metric& m : rep.metrics)
    std::printf("# %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& w : rep.warnings) {
    std::printf("# warning: %s\n", w.c_str());
    std::fprintf(stderr, "bref_bench: warning: %s\n", w.c_str());
  }
  for (const std::string& p : rep.problems) {
    std::printf("# problem: %s\n", p.c_str());
    std::fprintf(stderr, "bref_bench: %s\n", p.c_str());
  }
  std::printf("%s\n", result_json(rep).c_str());
  return 0;
}
