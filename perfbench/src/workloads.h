// The workloads of the end-to-end benchmark. Each builds its fixed world,
// drives it with inputs drawn from args.seed in rounds (kRounds, or more)
// over args.seconds, checks every output it gets, and fills `out` with the
// end-to-end metrics (args.trace off) or the per-layer metrics (on).
#pragma once

#include "harness.h"

namespace perfbench {

void run_query_cold(const Args& args, Result& out);
void run_serve_stream(const Args& args, Result& out);
void run_overlay_steady(const Args& args, Result& out);

/// Reruns the ROADMAP baseline table (n = 100/200/400/800, dataset seed
/// kDatasetSeed) and prints it.
void run_baseline();

/// Per-layer metrics shared by the workloads: the anchor tree's shape and
/// the self-CRT pass (library's max_cluster_sizes_for_classes, timed over
/// every node's final clustering space).
struct ShapeStats {
  double hub_degree = 0;
  double diameter = 0;
  double space_p50 = 0;
  double space_max = 0;
  double self_crt_ms = 0;
  double self_crt_hub_ms = 0;
};
ShapeStats shape_stats(const bcc::AnchorTree& anchors,
                       const bcc::OverlayNodeMap& nodes,
                       const bcc::DistanceMatrix& predicted,
                       const bcc::BandwidthClasses& classes);
void set_shape_metrics(const ShapeStats& s, Result& out);

/// Self time per layer and the span count of the traced round, and writes
/// the spans under kTraceDir.
void set_trace_metrics(const Args& args, Result& out);

}  // namespace perfbench
