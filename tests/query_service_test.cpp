// The serving layer: QueryStatus branches of the redesigned query API,
// QueryService batching/caching/stats, and the snapshot-swap concurrency
// contract (run under ThreadSanitizer via tools/sanitize.sh).
#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/system.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tree/embedder.h"

namespace bcc {
namespace {

/// A converged decentralized system over a random perfect tree metric.
DecentralizedClusterSystem make_system(std::size_t n, std::size_t n_cut,
                                       std::uint64_t seed,
                                       double c = kDefaultTransformC) {
  Rng rng(seed);
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order_rng(seed + 77);
  Framework fw = build_framework(real, order_rng);
  DistanceMatrix predicted = fw.predicted_distances();
  const double dmax = predicted.max_distance();
  BandwidthClasses classes(
      {c / dmax, c / (dmax * 0.6), c / (dmax * 0.3), c / (dmax * 0.1)}, c);
  SystemOptions options;
  options.n_cut = n_cut;
  DecentralizedClusterSystem sys(std::move(fw.anchors), std::move(predicted),
                                 std::move(classes), options);
  sys.run_to_convergence();
  EXPECT_TRUE(sys.converged());
  return sys;
}

void expect_route_acyclic(const QueryResult& r) {
  auto route = r.route;
  std::sort(route.begin(), route.end());
  EXPECT_EQ(std::adjacent_find(route.begin(), route.end()), route.end());
}

// ---------------------------------------------------------------- statuses

TEST(QueryStatusApi, FoundCarriesClusterRouteAndClass) {
  auto sys = make_system(20, 100, 1);
  const auto r = sys.query(QueryRequest::at_class(3, 4, 0));
  ASSERT_EQ(r.status, QueryStatus::kFound);
  EXPECT_TRUE(r.found());
  EXPECT_EQ(r.cluster.size(), 4u);
  EXPECT_EQ(r.class_idx, std::optional<std::size_t>(0));
  ASSERT_FALSE(r.route.empty());
  EXPECT_EQ(r.route.front(), 3u);
  EXPECT_EQ(r.route.size(), r.hops + 1);
  EXPECT_TRUE(cluster_satisfies(sys.predicted(), r.cluster, 4,
                                sys.classes().distance_at(0)));
}

TEST(QueryStatusApi, NotFoundWhenKExceedsPopulation) {
  auto sys = make_system(15, 100, 2);
  const auto r = sys.query(QueryRequest::at_class(0, 16, 0));
  EXPECT_EQ(r.status, QueryStatus::kNotFound);
  EXPECT_TRUE(r.cluster.empty());
  EXPECT_FALSE(r.found());
}

TEST(QueryStatusApi, InvalidK) {
  auto sys = make_system(10, 4, 3);
  const auto r = sys.query(QueryRequest::at_class(0, 1, 0));
  EXPECT_EQ(r.status, QueryStatus::kInvalidK);
  EXPECT_TRUE(r.cluster.empty());
  EXPECT_TRUE(r.route.empty());
}

TEST(QueryStatusApi, BandwidthUnsatisfiable) {
  auto sys = make_system(10, 4, 4);
  const double b_max =
      sys.classes().bandwidth_at(sys.classes().size() - 1);
  // b stricter than every class.
  const auto r = sys.query(QueryRequest::bandwidth(0, 2, b_max * 2.0));
  EXPECT_EQ(r.status, QueryStatus::kBandwidthUnsatisfiable);
  // Out-of-range explicit class index reports the same way.
  const auto r2 = sys.query(QueryRequest::at_class(0, 2, 99));
  EXPECT_EQ(r2.status, QueryStatus::kBandwidthUnsatisfiable);
  // A request with no constraint at all satisfies nothing.
  QueryRequest unconstrained;
  unconstrained.start = 0;
  unconstrained.k = 2;
  const auto r3 = sys.query(unconstrained);
  EXPECT_EQ(r3.status, QueryStatus::kBandwidthUnsatisfiable);
}

TEST(QueryStatusApi, UnknownStart) {
  auto sys = make_system(10, 4, 5);
  const auto r = sys.query(QueryRequest::at_class(99, 2, 0));
  EXPECT_EQ(r.status, QueryStatus::kUnknownStart);
}

TEST(QueryStatusApi, BandwidthSnapsUpToServingClass) {
  auto sys = make_system(20, 100, 6);
  const double b1 = sys.classes().bandwidth_at(1);
  const auto r = sys.query(QueryRequest::bandwidth(0, 2, b1 * 0.95));
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.class_idx, std::optional<std::size_t>(1));  // snapped up
}

TEST(QueryStatusApi, SnapUpAccessor) {
  auto sys = make_system(8, 4, 7);
  const auto& classes = sys.classes();
  EXPECT_EQ(classes.snap_up(classes.bandwidth_at(0)),
            std::optional<std::size_t>(0));
  EXPECT_EQ(classes.snap_up(classes.bandwidth_at(0) * 0.5),
            std::optional<std::size_t>(0));
  EXPECT_FALSE(
      classes.snap_up(classes.bandwidth_at(classes.size() - 1) * 1.01));
}

TEST(QueryStatusApi, ConstraintVariantsAgree) {
  // The two constraint alternatives are interchangeable when the bandwidth
  // snaps to the same class: bandwidth(b) must serve identically to
  // at_class(snap_up(b)).
  auto sys = make_system(25, 8, 8);
  for (std::size_t cls = 0; cls < sys.classes().size(); ++cls) {
    const double b = sys.classes().bandwidth_at(cls);
    for (std::size_t k : {2ul, 4ul, 9ul}) {
      for (NodeId start : {0ul, 12ul, 24ul}) {
        const auto by_class = sys.query(QueryRequest::at_class(start, k, cls));
        const auto by_bandwidth =
            sys.query(QueryRequest::bandwidth(start, k, b));
        EXPECT_EQ(by_class.status, by_bandwidth.status);
        EXPECT_EQ(by_class.cluster, by_bandwidth.cluster);
        EXPECT_EQ(by_class.hops, by_bandwidth.hops);
        EXPECT_EQ(by_class.route, by_bandwidth.route);
        EXPECT_EQ(by_class.class_idx, by_bandwidth.class_idx);
      }
    }
  }
}

TEST(QueryStatusApi, RequestChainersSetServingFields) {
  auto req = QueryRequest::bandwidth(3, 5, 40.0)
                 .with_deadline(2500)
                 .with_priority(QueryPriority::kHigh);
  EXPECT_EQ(req.deadline_micros, 2500u);
  EXPECT_EQ(req.priority, QueryPriority::kHigh);
  EXPECT_EQ(req.bandwidth_mbps(), std::optional<double>(40.0));
  EXPECT_FALSE(req.explicit_class().has_value());
  const auto cls = QueryRequest::at_class(3, 5, 2);
  EXPECT_EQ(cls.explicit_class(), std::optional<std::size_t>(2));
  EXPECT_FALSE(cls.bandwidth_mbps().has_value());
  EXPECT_EQ(cls.priority, QueryPriority::kNormal);  // default
}

// ------------------------------------------------------------ QueryService

TEST(QueryService, BatchAnswersMatchDirectQueries) {
  auto sys = make_system(30, 8, 10);
  QueryServiceOptions options;
  options.threads = 4;
  QueryService service(sys, options);

  std::vector<QueryRequest> batch;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    batch.push_back(QueryRequest::at_class(
        static_cast<NodeId>(rng.below(30)), 2 + rng.below(8),
        rng.below(sys.classes().size())));
  }
  const auto results = service.submit_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto direct = sys.query(batch[i]);
    EXPECT_EQ(results[i].status, direct.status) << "i=" << i;
    EXPECT_EQ(results[i].cluster, direct.cluster) << "i=" << i;
    EXPECT_EQ(results[i].snapshot_version, 1u);
  }
}

TEST(QueryService, EmptyBatch) {
  auto sys = make_system(10, 4, 12);
  QueryService service(sys, {});
  EXPECT_TRUE(service.submit_batch({}).empty());
}

TEST(QueryService, CacheHitsAreCountedAndConsistent) {
  auto sys = make_system(20, 8, 13);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(sys, options);

  const auto req = QueryRequest::at_class(5, 4, 0);
  const auto first = service.submit(req);
  const auto second = service.submit(req);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.cluster, second.cluster);
  EXPECT_EQ(first.route, second.route);
}

TEST(QueryService, CacheCanBeDisabled) {
  auto sys = make_system(20, 8, 14);
  QueryServiceOptions options;
  options.threads = 2;
  options.cache_enabled = false;
  QueryService service(sys, options);
  const auto req = QueryRequest::at_class(5, 4, 0);
  service.submit(req);
  service.submit(req);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(QueryService, RefreshSwapsSnapshotAndInvalidatesCache) {
  auto sys = make_system(20, 8, 15);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(sys, options);
  EXPECT_EQ(service.snapshot_version(), 1u);

  const auto req = QueryRequest::at_class(2, 3, 1);
  service.submit(req);
  service.submit(req);
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // Restructure: scale the predicted metric (still a tree metric) and
  // re-converge, then publish the new state to the service.
  DistanceMatrix scaled = sys.predicted();
  for (NodeId u = 0; u < scaled.size(); ++u) {
    for (NodeId v = u + 1; v < scaled.size(); ++v) {
      scaled.set(u, v, scaled.at(u, v) * 1.1);
    }
  }
  sys.refresh(std::move(scaled));
  service.refresh(sys);
  EXPECT_EQ(service.snapshot_version(), 2u);

  const auto after = service.submit(req);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_EQ(service.stats().cache_hits, 1u);  // no hit across the swap
}

TEST(QueryService, UnconvergedSnapshotServesDegradedResults) {
  auto sys = make_system(20, 100, 42);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(sys, options);
  const auto req = QueryRequest::at_class(0, 4, 0);
  EXPECT_FALSE(service.submit(req).degraded);  // converged system

  // Install a snapshot captured mid-disruption (converged = false): every
  // result served from it — found, not-found, or argument error — carries
  // the degraded flag.
  SystemSnapshot disrupted = *snapshot_of(sys);
  disrupted.converged = false;
  service.refresh(std::move(disrupted));
  const auto degraded = service.submit(req);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.found());  // still a well-formed answer
  EXPECT_TRUE(service.submit(QueryRequest::at_class(0, 1, 0)).degraded);
  for (const auto& r :
       service.submit_batch(std::vector<QueryRequest>{req, req})) {
    EXPECT_TRUE(r.degraded);
  }

  // A healthy refresh clears the flag.
  service.refresh(sys);
  EXPECT_FALSE(service.submit(req).degraded);
}

TEST(QueryService, StatsCountStatusesHopsAndLatency) {
  auto sys = make_system(20, 100, 16);
  QueryServiceOptions options;
  options.threads = 2;
  options.cache_enabled = false;
  QueryService service(sys, options);

  std::vector<QueryRequest> batch = {
      QueryRequest::at_class(0, 2, 0),      // found
      QueryRequest::at_class(1, 2, 0),      // found
      QueryRequest::at_class(0, 21, 0),     // not found (k > n)
      QueryRequest::at_class(0, 1, 0),      // invalid k
      QueryRequest::at_class(0, 2, 99),     // unsatisfiable
      QueryRequest::at_class(99, 2, 0),     // unknown start
  };
  service.submit_batch(batch);

  const auto stats = service.stats();
  EXPECT_EQ(stats.count(QueryStatus::kFound), 2u);
  EXPECT_EQ(stats.count(QueryStatus::kNotFound), 1u);
  EXPECT_EQ(stats.count(QueryStatus::kInvalidK), 1u);
  EXPECT_EQ(stats.count(QueryStatus::kBandwidthUnsatisfiable), 1u);
  EXPECT_EQ(stats.count(QueryStatus::kUnknownStart), 1u);
  EXPECT_EQ(stats.total(), batch.size());

  // Hop histogram only counts routed queries (found / not-found).
  EXPECT_EQ(stats.hops.count, 3u);

  // Latency histogram counts every record; percentile is monotone in p.
  EXPECT_EQ(stats.latency.count, batch.size());
  EXPECT_TRUE(stats.consistent);
  EXPECT_LE(stats.latency_percentile_micros(50.0),
            stats.latency_percentile_micros(99.0));
  EXPECT_LE(stats.latency_percentile_micros(99.0), stats.latency.max);

  service.reset_stats();
  EXPECT_EQ(service.stats().total(), 0u);
}

TEST(QueryService, ToStringCoversEveryStatus) {
  EXPECT_STREQ(to_string(QueryStatus::kFound), "found");
  EXPECT_STREQ(to_string(QueryStatus::kNotFound), "not_found");
  EXPECT_STREQ(to_string(QueryStatus::kInvalidK), "invalid_k");
  EXPECT_STREQ(to_string(QueryStatus::kBandwidthUnsatisfiable),
               "bandwidth_unsatisfiable");
  EXPECT_STREQ(to_string(QueryStatus::kUnknownStart), "unknown_start");
  EXPECT_STREQ(to_string(QueryStatus::kShed), "shed");
  EXPECT_STREQ(to_string(QueryPriority::kLow), "low");
  EXPECT_STREQ(to_string(QueryPriority::kNormal), "normal");
  EXPECT_STREQ(to_string(QueryPriority::kHigh), "high");
}

// ------------------------------------------------------------- concurrency

// N submitter threads fire mixed batches while the main thread restructures
// the system and swaps service snapshots. Every result must be
// status-consistent with the exact snapshot version it reports, and no route
// may cycle. (tools/sanitize.sh runs this under ThreadSanitizer.)
TEST(QueryService, ConcurrentBatchesRaceSnapshotSwaps) {
  const std::size_t n = 30;
  auto sys = make_system(n, 8, 17);
  QueryServiceOptions options;
  options.threads = 4;
  options.shards = 4;
  QueryService service(sys, options);

  // Retain every snapshot ever published so results can be re-validated
  // against the exact state that served them.
  std::map<std::uint64_t, std::shared_ptr<const SystemSnapshot>> published;
  auto retain = [&] {
    const auto snap = service.snapshot();
    published[snap->version] = snap;
  };
  retain();

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kBatchesPerThread = 6;
  constexpr std::size_t kBatchSize = 120;
  std::atomic<bool> failed{false};
  std::vector<std::vector<QueryResult>> collected(kSubmitters);
  std::vector<std::vector<QueryRequest>> sent(kSubmitters);

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(100 + t);
      for (std::size_t round = 0; round < kBatchesPerThread; ++round) {
        std::vector<QueryRequest> batch;
        batch.reserve(kBatchSize);
        for (std::size_t i = 0; i < kBatchSize; ++i) {
          switch (rng.below(5)) {
            case 0:  // plausible class query
              batch.push_back(QueryRequest::at_class(
                  static_cast<NodeId>(rng.below(n)), 2 + rng.below(10),
                  rng.below(4)));
              break;
            case 1:  // bandwidth query
              batch.push_back(QueryRequest::bandwidth(
                  static_cast<NodeId>(rng.below(n)), 2 + rng.below(10),
                  1.0 + static_cast<double>(rng.below(100))));
              break;
            case 2:  // invalid k
              batch.push_back(QueryRequest::at_class(
                  static_cast<NodeId>(rng.below(n)), rng.below(2), 0));
              break;
            case 3:  // bad class
              batch.push_back(QueryRequest::at_class(
                  static_cast<NodeId>(rng.below(n)), 3, 50 + rng.below(10)));
              break;
            default:  // unknown start
              batch.push_back(
                  QueryRequest::at_class(n + rng.below(10), 3, 0));
              break;
          }
        }
        auto results = service.submit_batch(batch);
        if (results.size() != batch.size()) {
          failed = true;
          return;
        }
        sent[t].insert(sent[t].end(), batch.begin(), batch.end());
        collected[t].insert(collected[t].end(), results.begin(),
                            results.end());
      }
    });
  }

  // Meanwhile: restructure + swap snapshots, racing the batches above.
  Rng refresh_rng(999);
  for (int swap = 0; swap < 3; ++swap) {
    DistanceMatrix scaled = sys.predicted();
    const double factor = 0.9 + 0.1 * static_cast<double>(swap);
    for (NodeId u = 0; u < scaled.size(); ++u) {
      for (NodeId v = u + 1; v < scaled.size(); ++v) {
        scaled.set(u, v, scaled.at(u, v) * factor);
      }
    }
    sys.refresh(std::move(scaled));
    service.refresh(sys);
    retain();
  }

  for (auto& thread : submitters) thread.join();
  ASSERT_FALSE(failed.load());

  std::size_t checked = 0;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    ASSERT_EQ(collected[t].size(), sent[t].size());
    for (std::size_t i = 0; i < collected[t].size(); ++i) {
      const QueryRequest& req = sent[t][i];
      const QueryResult& r = collected[t][i];
      ASSERT_TRUE(published.count(r.snapshot_version))
          << "result served by an unpublished snapshot";
      const SystemSnapshot& snap = *published.at(r.snapshot_version);
      expect_route_acyclic(r);
      switch (r.status) {
        case QueryStatus::kFound: {
          ASSERT_EQ(r.cluster.size(), req.k);
          ASSERT_TRUE(r.class_idx.has_value());
          const double l = snap.classes.distance_at(*r.class_idx);
          EXPECT_TRUE(
              cluster_satisfies(snap.predicted, r.cluster, req.k, l))
              << "cluster violates the class it was served at";
          EXPECT_EQ(r.route.size(), r.hops + 1);
          EXPECT_EQ(r.route.front(), req.start);
          break;
        }
        case QueryStatus::kNotFound:
          EXPECT_TRUE(r.cluster.empty());
          EXPECT_EQ(r.route.front(), req.start);
          break;
        case QueryStatus::kInvalidK:
          EXPECT_LT(req.k, 2u);
          break;
        case QueryStatus::kBandwidthUnsatisfiable:
          EXPECT_TRUE(!resolve_class(req, snap.classes).has_value());
          break;
        case QueryStatus::kUnknownStart:
          EXPECT_GE(req.start, n);
          break;
        case QueryStatus::kShed:
          ADD_FAILURE() << "shed response with admission control disabled";
          break;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, kSubmitters * kBatchesPerThread * kBatchSize);
  EXPECT_EQ(service.stats().total(), checked);
}

std::uint64_t global_counter(std::string_view name) {
  return obs::Registry::global().snapshot().counter_value(name);
}

TEST(QueryServiceRegistry, ServicesCountApartAndTheGlobalRegistrySumsThem) {
  auto sys = make_system(16, 100, 5);
  const std::uint64_t queries0 = global_counter("bcc.serve.queries");
  const std::uint64_t hits0 = global_counter("bcc.serve.cache_hits");
  const std::uint64_t shed0 = global_counter("bcc.serve.shard.shed");
  QueryServiceOptions options;
  options.threads = 1;
  QueryService a(sys, options);
  QueryService b(sys, options);
  const QueryRequest req = QueryRequest::at_class(0, 2, 0);
  {
    QueryService gone(sys, options);
    for (int i = 0; i < 3; ++i) gone.submit(req);  // 1 miss + 2 hits
    EXPECT_EQ(gone.stats().total(), 3u);
  }
  for (int i = 0; i < 5; ++i) a.submit(req);
  for (int i = 0; i < 7; ++i) b.submit(req);
  b.submit(QueryRequest::at_class(0, 1, 0));  // invalid k

  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.total(), 5u);
  EXPECT_EQ(sa.cache_hits, 4u);
  EXPECT_EQ(sa.count(QueryStatus::kInvalidK), 0u);
  EXPECT_EQ(sb.total(), 8u);
  EXPECT_EQ(sb.cache_hits, 6u);
  EXPECT_EQ(sb.count(QueryStatus::kInvalidK), 1u);
  // The global view sums live services with the destroyed one.
  EXPECT_EQ(global_counter("bcc.serve.queries") - queries0, 3u + 5u + 8u);
  EXPECT_EQ(global_counter("bcc.serve.cache_hits") - hits0, 2u + 4u + 6u);
  EXPECT_EQ(global_counter("bcc.serve.shard.shed") - shed0, 0u);
  // reset_stats() zeroes one service, never the process-lifetime totals.
  a.reset_stats();
  EXPECT_EQ(a.stats().total(), 0u);
  EXPECT_EQ(b.stats().total(), 8u);
  EXPECT_EQ(global_counter("bcc.serve.queries") - queries0, 16u);
  a.submit(req);
  EXPECT_EQ(a.stats().total(), 1u);
  EXPECT_EQ(global_counter("bcc.serve.queries") - queries0, 17u);
}

// Submitters hammer submit() while a reader takes stats() continuously.
// Every result flagged `consistent` must balance exactly: each query feeds
// one status and one latency sample, so the two totals can never differ in
// a torn-free read, and its cache hit and hop sample belong to that same
// set of queries. (tools/sanitize.sh runs this under ThreadSanitizer.)
TEST(QueryStatsConsistency, SnapshotsNeverTearUnderConcurrentRecords) {
  auto sys = make_system(24, 100, 33);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(sys, options);
  // One hot key: after this warmup miss every submit of it is a found cache
  // hit, so the only queries that are not hits are the miss and the invalid
  // ones. A hit or hop counted from a query outside the read's set shows up
  // as more hits or hops than that set holds.
  const QueryRequest hot = QueryRequest::at_class(3, 4, 0);
  ASSERT_EQ(service.submit(hot).status, QueryStatus::kFound);
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kQueriesPerWriter = 20000;

  std::atomic<bool> done{false};
  std::size_t consistent_seen = 0;
  std::size_t snapshots_taken = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto s = service.stats();
      ++snapshots_taken;
      if (!s.consistent) continue;
      ++consistent_seen;
      ASSERT_EQ(s.total(), s.latency.count)
          << "consistent snapshot has torn status/latency totals";
      ASSERT_LE(s.cache_hits, s.total());
      ASSERT_LE(s.hops.count, s.total());
      ASSERT_LE(s.cache_hits + 1 + s.count(QueryStatus::kInvalidK),
                s.total());
      ASSERT_LE(s.hops.count, s.count(QueryStatus::kFound));
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&service, &hot] {
      for (std::size_t i = 0; i < kQueriesPerWriter; ++i) {
        service.submit(i % 8 == 0 ? QueryRequest::at_class(3, 1, 0) : hot);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Quiescent: the final read must be exact on the first attempt.
  const std::uint64_t total = kWriters * kQueriesPerWriter + 1;
  const std::uint64_t invalid = kWriters * (kQueriesPerWriter / 8);
  const auto s = service.stats();
  EXPECT_TRUE(s.consistent);
  EXPECT_EQ(s.total(), total);
  EXPECT_EQ(s.latency.count, total);
  EXPECT_EQ(s.count(QueryStatus::kInvalidK), invalid);
  EXPECT_EQ(s.count(QueryStatus::kFound), total - invalid);
  EXPECT_EQ(s.cache_hits, total - invalid - 1);
  EXPECT_EQ(s.hops.count, total - invalid);
  EXPECT_GT(snapshots_taken, 0u);
  // Not asserted — under a saturating write load every mid-run read may
  // legitimately come back inconsistent — but worth surfacing.
  (void)consistent_seen;
}

}  // namespace
}  // namespace bcc
