#include "oracle.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/rng.h"

namespace perfbench {

std::vector<double> class_distances(const bcc::BandwidthClasses& classes) {
  std::vector<double> out(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    out[c] = classes.distance_at(c);
  }
  return out;
}

std::vector<std::size_t> best_cluster_sizes(const bcc::DistanceMatrix& d,
                                            std::span<const NodeId> space,
                                            std::span<const double> class_dist,
                                            std::size_t* pairs) {
  const std::size_t m = space.size();
  std::vector<std::size_t> best(class_dist.size(), m == 0 ? 0 : 1);
  if (m < 2) return best;
  double widest = 0.0;
  for (double l : class_dist) widest = std::max(widest, l);

  // Dense row-major copy: row i holds d(space[i], .) contiguously.
  std::vector<double> dense(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      dense[i * m + j] = i == j ? 0.0 : d.at(space[i], space[j]);
    }
  }
  std::size_t scanned = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* row_i = &dense[i * m];
    for (std::size_t j = i + 1; j < m; ++j) {
      const double dij = row_i[j];
      if (dij > widest) continue;  // qualifies for no class
      ++scanned;
      const double* row_j = &dense[j * m];
      std::size_t count = 0;
      for (std::size_t y = 0; y < m; ++y) {
        count += static_cast<std::size_t>((row_i[y] <= dij) & (row_j[y] <= dij));
      }
      for (std::size_t c = 0; c < class_dist.size(); ++c) {
        if (dij <= class_dist[c]) best[c] = std::max(best[c], count);
      }
    }
  }
  if (pairs != nullptr) *pairs += scanned;
  return best;
}

SpaceScan scan_spaces(const bcc::OverlayNodeMap& nodes,
                      const bcc::DistanceMatrix& d,
                      const bcc::BandwidthClasses& classes) {
  const std::vector<double> dist = class_distances(classes);
  SpaceScan scan;
  scan.best.assign(classes.size(), 0);
  for (const auto& [x, node] : nodes) {
    const std::vector<NodeId> space = node.clustering_space();
    std::vector<std::size_t> sizes = best_cluster_sizes(d, space, dist);
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      scan.best[c] = std::max(scan.best[c], sizes[c]);
    }
    scan.per_node.emplace(x, std::move(sizes));
  }
  return scan;
}

std::string check_cluster(const bcc::DistanceMatrix& d,
                          const std::vector<NodeId>& cluster, std::size_t k,
                          double l) {
  constexpr double kSlack = 1e-9;  // the library's FindClusterOptions::slack
  if (cluster.size() != k) {
    return "cluster has " + std::to_string(cluster.size()) + " members, k=" +
           std::to_string(k);
  }
  std::vector<NodeId> sorted = cluster;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "cluster repeats a member";
  }
  if (!sorted.empty() && sorted.back() >= d.size()) {
    return "cluster names an unknown host";
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    for (std::size_t j = i + 1; j < cluster.size(); ++j) {
      if (d.at(cluster[i], cluster[j]) > l + kSlack) {
        return "members " + std::to_string(cluster[i]) + "," +
               std::to_string(cluster[j]) + " are farther apart than the class";
      }
    }
  }
  return {};
}

namespace {

/// The class a request resolves to: its explicit class, or the slowest
/// class at least as fast as its bandwidth (classes ascend in bandwidth).
std::optional<std::size_t> expected_class(const bcc::QueryRequest& q,
                                          const bcc::BandwidthClasses& classes) {
  if (auto c = q.explicit_class()) {
    return *c < classes.size() ? std::optional<std::size_t>(*c) : std::nullopt;
  }
  const double b = q.bandwidth_mbps().value_or(0.0);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (classes.bandwidth_at(c) >= b) return c;
  }
  return std::nullopt;
}

}  // namespace

std::string check_found_only(const bcc::QueryRequest& q,
                             const bcc::QueryResult& r,
                             const bcc::BandwidthClasses& classes,
                             const bcc::DistanceMatrix& d) {
  if (r.status != bcc::QueryStatus::kFound &&
      r.status != bcc::QueryStatus::kNotFound) {
    return std::string("unexpected status ") + bcc::to_string(r.status);
  }
  const std::optional<std::size_t> c = expected_class(q, classes);
  if (!c || r.class_idx != c) return "answer served at the wrong class";
  if (r.status == bcc::QueryStatus::kNotFound) return {};
  return check_cluster(d, r.cluster, q.k, classes.distance_at(*c));
}

std::string check_answer(const bcc::QueryRequest& q, const bcc::QueryResult& r,
                         const bcc::BandwidthClasses& classes,
                         const bcc::DistanceMatrix& d,
                         const std::vector<std::size_t>& best) {
  std::string why = check_found_only(q, r, classes, d);
  if (!why.empty()) return why;
  const std::size_t c = *r.class_idx;
  const bool should_find = q.k <= best[c];
  if (r.found() != should_find) {
    return std::string(r.found() ? "found" : "not found") + " for k=" +
           std::to_string(q.k) + " but the largest cluster at class " +
           std::to_string(c) + " has " + std::to_string(best[c]) + " nodes";
  }
  return {};
}

// ------------------------------------------------------------- self-test --

namespace {

/// A random weighted tree on `vertices` vertices (integer weights 1..3, so
/// distances tie often), with `m` hosts placed on distinct vertices.
bcc::DistanceMatrix random_tree_metric(bcc::Rng& rng, std::size_t vertices,
                                       std::size_t m) {
  std::vector<std::vector<std::pair<std::size_t, double>>> adj(vertices);
  for (std::size_t v = 1; v < vertices; ++v) {
    const std::size_t u = rng.below(v);
    const double w = static_cast<double>(1 + rng.below(3));
    adj[u].emplace_back(v, w);
    adj[v].emplace_back(u, w);
  }
  std::vector<std::size_t> all(vertices);
  for (std::size_t v = 0; v < vertices; ++v) all[v] = v;
  rng.shuffle(all);
  const std::vector<std::size_t> hosts(all.begin(), all.begin() + m);

  bcc::DistanceMatrix d(m);
  for (std::size_t a = 0; a < m; ++a) {
    std::vector<double> dist(vertices, -1.0);
    std::vector<std::size_t> stack = {hosts[a]};
    dist[hosts[a]] = 0.0;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (auto [v, w] : adj[u]) {
        if (dist[v] < 0.0) {
          dist[v] = dist[u] + w;
          stack.push_back(v);
        }
      }
    }
    for (std::size_t b = a + 1; b < m; ++b) d.set(a, b, dist[hosts[b]]);
  }
  return d;
}

/// Largest subset of {0..m-1} with diameter <= l, by enumerating subsets.
std::size_t exhaustive_best(const bcc::DistanceMatrix& d, double l,
                            std::vector<NodeId>* members = nullptr) {
  const std::size_t m = d.size();
  std::size_t best = 0;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 1; mask < (1u << m); ++mask) {
    const auto size = static_cast<std::size_t>(std::popcount(mask));
    if (size <= best) continue;
    bool ok = true;
    for (std::size_t i = 0; i < m && ok; ++i) {
      if (!(mask >> i & 1u)) continue;
      for (std::size_t j = i + 1; j < m && ok; ++j) {
        if ((mask >> j & 1u) && d.at(i, j) > l) ok = false;
      }
    }
    if (ok) {
      best = size;
      best_mask = mask;
    }
  }
  if (members != nullptr) {
    members->clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (best_mask >> i & 1u) members->push_back(static_cast<NodeId>(i));
    }
  }
  return best;
}

}  // namespace

std::size_t self_test(std::uint64_t seed, std::size_t* checks) {
  bcc::Rng rng(seed ^ 0x5E1F7E57ull);
  std::size_t failures = 0;
  auto expect = [&](bool ok) {
    ++*checks;
    if (!ok) ++failures;
  };

  // 1. Oracle vs exhaustive enumeration, at every distinct pair distance.
  for (int instance = 0; instance < 24; ++instance) {
    const std::size_t m = 4 + rng.below(8);  // 4..11 hosts
    const bcc::DistanceMatrix d =
        random_tree_metric(rng, m + rng.below(m + 1), m);
    std::vector<double> levels = d.pair_values();
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    levels.push_back(levels.front() * 0.5);  // below every pair: singletons
    std::vector<NodeId> space(m);
    for (std::size_t i = 0; i < m; ++i) space[i] = static_cast<NodeId>(i);
    const std::vector<std::size_t> oracle =
        best_cluster_sizes(d, space, levels);
    for (std::size_t c = 0; c < levels.size(); ++c) {
      expect(oracle[c] == exhaustive_best(d, levels[c]));
    }
  }

  // 2. Negative controls on a correct kFound answer.
  for (int instance = 0; instance < 8; ++instance) {
    const std::size_t m = 9;
    const bcc::DistanceMatrix d = random_tree_metric(rng, 12, m);
    std::vector<double> levels = d.pair_values();
    std::sort(levels.begin(), levels.end());
    const double l = levels[levels.size() / 3];
    // One class whose distance is l, up to the transform's rounding.
    const bcc::BandwidthClasses classes({bcc::kDefaultTransformC / l});
    const double class_l = classes.distance_at(0);
    std::vector<NodeId> clique;
    exhaustive_best(d, class_l, &clique);
    std::vector<NodeId> space(m);
    for (std::size_t i = 0; i < m; ++i) space[i] = static_cast<NodeId>(i);
    const std::vector<std::size_t> best =
        best_cluster_sizes(d, space, class_distances(classes));

    const std::size_t k = clique.size();
    const bcc::QueryRequest q = bcc::QueryRequest::at_class(0, k, 0);
    bcc::QueryResult r;
    r.status = bcc::QueryStatus::kFound;
    r.cluster = clique;
    r.class_idx = 0;
    expect(check_answer(q, r, classes, d, best).empty());  // positive control

    // Swap one member for the host farthest from the rest of the cluster.
    if (k >= 2) {
      NodeId far = 0;
      double far_dist = -1.0;
      for (NodeId x = 0; x < m; ++x) {
        if (std::find(clique.begin(), clique.end(), x) != clique.end()) continue;
        double worst = 0.0;
        for (std::size_t i = 1; i < k; ++i) {
          worst = std::max(worst, d.at(x, clique[i]));
        }
        if (worst > far_dist) {
          far_dist = worst;
          far = x;
        }
      }
      if (far_dist > class_l) {
        bcc::QueryResult swapped = r;
        swapped.cluster[0] = far;
        expect(!check_answer(q, swapped, classes, d, best).empty());
      }
    }
    bcc::QueryResult relabelled = r;
    relabelled.status = bcc::QueryStatus::kNotFound;
    relabelled.cluster.clear();
    expect(!check_answer(q, relabelled, classes, d, best).empty());
  }
  return failures;
}

}  // namespace perfbench
