// The benchmark's own correctness oracle, written apart from the library's
// Algorithm 1 code: a dense scan of |S*_pq| over a clustering space, the
// answer checks built on it, and the checker's self-test against
// exhaustive subset enumeration.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/bandwidth_classes.h"
#include "core/overlay_node.h"
#include "core/query.h"

namespace perfbench {

using bcc::NodeId;

/// Per class c, the largest |S*_pq| over pairs p, q of `space` with
/// d_pq <= class_dist[c], where S*_pq = {x in space : d_xp <= d_pq and
/// d_xq <= d_pq} (Theorem 3.1); 1 when no pair qualifies and the space is
/// not empty. `pairs` (if given) is incremented by the pairs scanned.
std::vector<std::size_t> best_cluster_sizes(const bcc::DistanceMatrix& d,
                                            std::span<const NodeId> space,
                                            std::span<const double> class_dist,
                                            std::size_t* pairs = nullptr);

/// Class distances of the grid, indexed like the classes.
std::vector<double> class_distances(const bcc::BandwidthClasses& classes);

/// Checks a cluster: exactly k distinct members, all pairwise predicted
/// distances <= l (plus the library's 1e-9 slack). Empty string = ok.
std::string check_cluster(const bcc::DistanceMatrix& d,
                          const std::vector<NodeId>& cluster, std::size_t k,
                          double l);

/// Checks one answer against the oracle: it must be served at the class the
/// request resolves to, a kFound cluster must pass check_cluster, and it
/// must be found exactly when k <= best[c] (Theorems 3.1 and 3.3 with
/// Algorithm 4's routing). Empty string = ok.
std::string check_answer(const bcc::QueryRequest& q, const bcc::QueryResult& r,
                         const bcc::BandwidthClasses& classes,
                         const bcc::DistanceMatrix& d,
                         const std::vector<std::size_t>& best);

/// check_answer without the existence half, for answers whose snapshot has
/// no M(l) computed: the class and any kFound cluster are checked.
std::string check_found_only(const bcc::QueryRequest& q,
                             const bcc::QueryResult& r,
                             const bcc::BandwidthClasses& classes,
                             const bcc::DistanceMatrix& d);

/// M(l) per class over every node's clustering space, and each node's own
/// per-class maxima (what its self CRT entry must hold), by the oracle.
struct SpaceScan {
  std::vector<std::size_t> best;
  std::map<NodeId, std::vector<std::size_t>> per_node;
};
SpaceScan scan_spaces(const bcc::OverlayNodeMap& nodes,
                      const bcc::DistanceMatrix& d,
                      const bcc::BandwidthClasses& classes);

/// The checker's self-test: the S*_pq oracle against exhaustive subset
/// enumeration on seeded small tree metrics, plus the negative controls (a
/// swapped-in far member, a kFound relabelled kNotFound) that the checks
/// must reject. Returns the number of failed self-checks; `checks` counts
/// the self-checks made.
std::size_t self_test(std::uint64_t seed, std::size_t* checks);

}  // namespace perfbench
