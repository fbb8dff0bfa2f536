#pragma once
// Shared driver for Figure 2 (throughput vs thread count across workload
// mixes) — instantiated for the skip-list and Citrus-tree families.
// Prints one panel per U-C-RQ mix with one column per technique, matching
// the paper's series, plus a shape-check summary of who wins each panel.
//
// The competitor set is derived from the ImplRegistry at startup rather
// than hard-coded template parameter lists: every builtin of the panel's
// base structure, plus every builtin that brings its own structure kind
// (the LFCA tree was the first), joins the figure automatically. Workers
// run through TypedSession<AnyOrderedSet>, so a registry-built structure
// costs one virtual call per operation uniformly across the columns.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/builtin_impls.h"
#include "api/registry.h"
#include "harness.h"

namespace bref::bench {

struct Mix {
  int u, c, rq;
};

inline const std::vector<Mix>& fig2_mixes() {
  static const std::vector<Mix> mixes{
      {2, 88, 10}, {10, 80, 10}, {50, 40, 10}, {90, 0, 10}, {0, 90, 10}};
  return mixes;
}

/// True when a builtin's structure is not one of the three base structures
/// the paper instantiates every technique over — i.e. the technique *is*
/// its own structure (LFCA) and belongs in every panel.
inline bool self_structured(const ImplDescriptor& d) {
  return d.structure != "list" && d.structure != "skiplist" &&
         d.structure != "citrus";
}

/// The competitor columns for a panel over `structure`: the registry's
/// builtins of that structure plus the self-structured ones, ordered to
/// match the paper's column layout — the Unsafe baseline first, Bundle
/// last, everything else in registration order between them.
inline std::vector<ImplDescriptor> competitors_for(
    const std::string& structure) {
  std::vector<ImplDescriptor> out;
  for (const auto& d : ImplRegistry::instance().descriptors())
    if (d.builtin && (d.structure == structure || self_structured(d)))
      out.push_back(d);
  auto rank = [](const ImplDescriptor& d) {
    if (d.technique == "Unsafe") return 0;
    if (d.technique == "Bundle") return 2;
    return 1;
  };
  std::stable_sort(out.begin(), out.end(),
                   [&](const ImplDescriptor& a, const ImplDescriptor& b) {
                     return rank(a) < rank(b);
                   });
  return out;
}

inline int run_fig2(const char* structure, const char* tag, int argc,
                    char** argv) {
  Args args(argc, argv);
  Config base = config_from_args(args);
  if (!args.has("--keyrange")) base.key_range = 20000;  // quick default
  // Shape-check default: 150 ms x 1 run gave Bundle/best-competitor
  // ratios from 0.24x to 1.33x for one binary at 4 threads; 1000 ms x 3
  // runs held two runs within 0.15x.
  if (!args.has("--duration")) base.duration_ms = 1000;
  if (!args.has("--runs")) base.runs = 3;
  json_init(args, (std::string("fig2_") + structure).c_str(), base);

  const auto competitors = competitors_for(structure);

  std::printf("=== Figure 2: %s throughput (Mops/s), workloads U-C-RQ ===\n",
              tag);
  print_header(tag, base);

  for (const Mix& mix : fig2_mixes()) {
    Config cfg = base;
    cfg.u_pct = mix.u;
    cfg.c_pct = mix.c;
    cfg.rq_pct = mix.rq;
    std::printf("\n-- %s, %d-%d-%d --\n", tag, mix.u, mix.c, mix.rq);
    std::printf("%8s", "threads");
    for (const auto& d : competitors)
      std::printf(" %13s", self_structured(d) ? d.name.c_str()
                                              : d.technique.c_str());
    std::printf("\n");
    double best_bundle = 0, best_competitor = 0;
    char mix_str[32];
    std::snprintf(mix_str, sizeof mix_str, "%d-%d-%d", mix.u, mix.c, mix.rq);
    for (int threads : cfg.thread_counts) {
      std::printf("%8d", threads);
      for (const auto& d : competitors) {
        const Measured md = measure_detailed(
            [&] { return ImplRegistry::instance().create(d.name); }, threads,
            cfg);
        const double mops = md.mops;
        JsonSink::instance().record(d.name, mix_str, threads, md);
        std::printf(" %13.3f", mops);
        if (threads == cfg.thread_counts.back()) {
          if (d.technique == std::string("Bundle")) {
            best_bundle = mops;
          } else if (d.caps.linearizable_rq && mops > best_competitor) {
            best_competitor = mops;
          }
        }
      }
      std::printf("\n");
    }
    std::printf("shape-check [%d-%d-%d @max threads]: Bundle/best-"
                "linearizable-competitor = %.2fx %s\n",
                mix.u, mix.c, mix.rq, best_bundle / best_competitor,
                best_bundle >= best_competitor
                    ? "(Bundle wins or ties)"
                    : "(competitor wins - paper expects this only in the "
                      "90-0-10 / 0-90-10 corner cases)");
  }
  JsonSink::instance().flush();
  return 0;
}

}  // namespace bref::bench
