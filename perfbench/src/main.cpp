// perfbench: the end-to-end benchmark driver.
//
//   perfbench --workload <query-cold|serve-stream|overlay-steady>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test [--seed <n>]
//   perfbench --baseline
//
// A workload run prints, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics (and the tracing overhead) with
// --trace 1. The metric names and units below match BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"query_p50_us", "us"},
    {"query_p99_us", "us"},    {"query_rate_qps", "1/s"},
    {"upkeep_p50_ms", "ms"},   {"upkeep_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.synth_ms", "ms"},
    {"data.dynamics_step_ms", "ms"},
    {"data.dirty_hosts", "count"},
    {"tree.embed_ms", "ms"},
    {"tree.embed_probes", "count"},
    {"tree.repair_ms", "ms"},
    {"tree.repaired_hosts", "count"},
    {"tree.full_rebuilds", "count"},
    {"tree.hub_degree", "count"},
    {"tree.diameter", "count"},
    {"core.fixpoint_ms", "ms"},
    {"core.fixpoint_cycles", "count"},
    {"core.fixpoint_kb", "KiB"},
    {"core.self_crt_ms", "ms"},
    {"core.self_crt_hub_ms", "ms"},
    {"core.delta_fixpoint_ms", "ms"},
    {"core.delta_reuse_ratio", "ratio"},
    {"core.upkeep_kb", "KiB"},
    {"core.space_size_p50", "count"},
    {"core.space_size_max", "count"},
    {"core.compute_us_p50", "us"},
    {"core.compute_us_p99", "us"},
    {"core.find_cluster_us_p99", "us"},
    {"core.pairs_per_query", "count"},
    {"core.route_hops_mean", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.overhead_us_p50", "us"},
    {"serve.epoch_pin_ns_p50", "ns"},
    {"serve.admission_ns_p50", "ns"},
    {"serve.cache_ns_p50", "ns"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.snapshots_in_limbo_max", "count"},
    {"overlay.converge_sim_s", "sim_s"},
    {"overlay.converge_cpu_s", "s"},
    {"overlay.converge_kb", "KiB"},
    {"overlay.rounds_per_sim_s", "1/sim_s"},
    {"overlay.self_crt_ms_per_round", "ms"},
    {"sim.events_per_sim_s", "1/sim_s"},
    {"net.frames_per_sim_s", "1/sim_s"},
    {"net.kb_per_sim_s", "KiB/sim_s"},
    {"self_ms.data", "ms"},
    {"self_ms.tree", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.serve", "ms"},
    {"self_ms.overlay", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_query_p50_pct", "%"},
    {"trace.overhead_upkeep_p50_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "       perfbench --self-test [--seed <n>]\n"
               "       perfbench --baseline\n",
               why);
  std::exit(2);
}

int run_self_test(std::uint64_t seed) {
  std::size_t checks = 0;
  const std::size_t failures = self_test(seed, &checks);
  std::printf("checker self-test: %zu checks, %zu failed\n", checks, failures);
  return failures == 0 ? 0 : 1;
}

int run_workload(const Args& args) {
  // The checker must catch what it is meant to catch before its verdicts
  // on the program count for anything.
  std::size_t checks = 0;
  const bool checker_ok = self_test(args.seed, &checks) == 0;
  if (!checker_ok) std::fprintf(stderr, "perfbench: checker self-test failed\n");

  Result out;
  if (args.workload == "query-cold") {
    run_query_cold(args, out);
  } else if (args.workload == "serve-stream") {
    run_serve_stream(args, out);
  } else if (args.workload == "overlay-steady") {
    run_overlay_steady(args, out);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  std::string metrics;
  auto emit = [&](const MetricDef& m, double value) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  };
  if (!args.trace) {
    for (const MetricDef& m : kEndToEnd) {
      auto it = out.metrics.find(m.name);
      if (it == out.metrics.end()) {
        std::fprintf(stderr, "perfbench: %s measured no %s\n",
                     args.workload.c_str(), m.name);
        return 1;
      }
      emit(m, it->second);
    }
  } else {
    // A layer a workload does not exercise reads 0 on it.
    for (const MetricDef& m : kPerLayer) {
      auto it = out.metrics.find(m.name);
      emit(m, it == out.metrics.end() ? 0.0 : it->second);
    }
  }
  const bool correct = checker_ok && out.tally.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.tally.attempted()),
              static_cast<unsigned long long>(out.tally.failed()),
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool self_test_mode = false, baseline_mode = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
        have_seconds = true;
      } else if (flag == "--trace") {
        args.trace = std::stoi(value()) != 0;
        have_trace = true;
      } else if (flag == "--self-test") {
        self_test_mode = true;
      } else if (flag == "--baseline") {
        baseline_mode = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  try {
    if (self_test_mode) return run_self_test(args.seed);
    if (baseline_mode) {
      run_baseline();
      return 0;
    }
    if (args.workload.empty() || !have_seconds || !have_trace ||
        !(args.seconds > 0)) {
      usage("--workload, --seconds (> 0) and --trace are required");
    }
    return run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
