// Per-layer metrics shared by the workloads: anchor-tree shape, clustering
// space sizes, the timed self-CRT pass, and the traced run's self times.
#include <cstdio>
#include <filesystem>

#include "core/find_cluster.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

ShapeStats shape_stats(const bcc::AnchorTree& anchors,
                       const bcc::OverlayNodeMap& nodes,
                       const bcc::DistanceMatrix& predicted,
                       const bcc::BandwidthClasses& classes) {
  ShapeStats s;
  s.hub_degree = static_cast<double>(anchors.max_degree());
  s.diameter = static_cast<double>(anchors.diameter());
  const std::vector<double> dist = class_distances(classes);
  std::vector<double> sizes;
  for (const auto& [x, node] : nodes) {
    const std::vector<NodeId> space = node.clustering_space();
    const double t0 = wall_s();
    {
      Span span("core.self_crt");
      bcc::max_cluster_sizes_for_classes(predicted, space, dist);
    }
    const double ms = (wall_s() - t0) * 1e3;
    s.self_crt_ms += ms;
    const auto m = static_cast<double>(space.size());
    if (m > s.space_max) {
      s.space_max = m;
      s.self_crt_hub_ms = ms;
    }
    sizes.push_back(m);
  }
  s.space_p50 = median(sizes);
  return s;
}

void set_shape_metrics(const ShapeStats& s, Result& out) {
  out.set("tree.hub_degree", s.hub_degree);
  out.set("tree.diameter", s.diameter);
  out.set("core.space_size_p50", s.space_p50);
  out.set("core.space_size_max", s.space_max);
  out.set("core.self_crt_ms", s.self_crt_ms);
  out.set("core.self_crt_hub_ms", s.self_crt_hub_ms);
}

void set_trace_metrics(const Args& args, Result& out) {
  const std::vector<SpanRecord> spans = Tracer::collect();
  for (const auto& [layer, ms] : layer_self_ms(spans)) {
    out.set("self_ms." + layer, ms);
  }
  out.set("trace.spans", static_cast<double>(spans.size()));
  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  const std::string path = std::string(kTraceDir) + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!write_spans(spans, path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                 path.c_str());
  }
}

}  // namespace perfbench
