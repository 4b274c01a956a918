// Rerun of the ROADMAP baseline table: per n, embed, synchronous Algorithm
// 2+3 fixpoint, snapshot publish, the mean of 2000 uncached single-threaded
// submit() calls (random start, k in [2, 16], b in [10, 100] Mbps), and the
// hub's degree and clustering-space size. Same settings as that table:
// synthesize_planetlab at dataset seed kDatasetSeed (7), n_cut = 10,
// classes 10..200 Mbps.
#include <cstdio>

#include "core/system.h"
#include "serve/query_service.h"
#include "workloads.h"

namespace perfbench {

void run_baseline() {
  const std::uint64_t seed = kDatasetSeed;
  std::printf("| n | embed | Alg 2+3 fixpoint (sync) | snapshot publish | "
              "uncached query, mean | hub degree / hub |V_x| |\n"
              "|---|---|---|---|---|---|\n");
  for (std::size_t n : {100, 200, 400, 800}) {
    bcc::Rng rng(seed);
    const bcc::SynthDataset data = synth_world(n, rng);

    double t0 = wall_s();
    const bcc::Framework fw = bcc::build_framework(data.distances, rng);
    const double embed_ms = (wall_s() - t0) * 1e3;

    t0 = wall_s();
    bcc::DecentralizedClusterSystem sys(fw.anchors, fw.predicted_distances(),
                                        class_grid(data.c));
    const std::size_t cycles = sys.run_to_convergence();
    const double fixpoint_ms = (wall_s() - t0) * 1e3;

    t0 = wall_s();
    bcc::QueryServiceOptions qopts;
    qopts.threads = 1;
    qopts.cache_enabled = false;
    bcc::QueryService service(sys, qopts);
    const double publish_ms = (wall_s() - t0) * 1e3;

    bcc::Rng qrng = bcc::Rng(seed).split(3);
    t0 = wall_s();
    constexpr int kQueries = 2000;
    for (int i = 0; i < kQueries; ++i) {
      const auto start = static_cast<NodeId>(qrng.below(n));
      const std::size_t k = 2 + qrng.below(15);
      const double b = qrng.uniform(10.0, 100.0);
      service.submit(bcc::QueryRequest::bandwidth(start, k, b));
    }
    const double query_us = (wall_s() - t0) * 1e6 / kQueries;

    NodeId hub = fw.anchors.root();
    for (NodeId x : fw.anchors.bfs_order()) {
      if (fw.anchors.degree(x) > fw.anchors.degree(hub)) hub = x;
    }
    std::printf("| %zu | %.0f ms | %.0f ms (%zu cycles) | %.1f ms | %.0f us | "
                "%zu / %zu |\n",
                n, embed_ms, fixpoint_ms, cycles, publish_ms, query_us,
                fw.anchors.degree(hub), sys.node(hub).clustering_space().size());
    std::fflush(stdout);
  }
}

}  // namespace perfbench
