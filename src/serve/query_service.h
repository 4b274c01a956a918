// QueryService — the sharded query plane: batched, thread-pooled serving of
// bandwidth-cluster queries (Algorithm 4) over epoch-protected immutable
// snapshots, with per-shard caches and admission control.
//
// The paper treats query processing as the cheap, read-only phase over a
// converged overlay; this layer exploits that three ways:
//
//   * queries are embarrassingly parallel, so a batch is fanned out across a
//     small fixed thread pool, and every query in the batch is served
//     against ONE pinned SystemSnapshot — results within a batch are
//     mutually consistent even if refresh() swaps in a newer snapshot
//     mid-flight;
//   * snapshots are published through an EpochPtr (src/serve/epoch.h):
//     readers pin an epoch on entry instead of taking a lock or bumping a
//     shared refcount, so snapshot access costs no contended cache line.
//     Restructuring never blocks serving and serving never blocks
//     restructuring; retired snapshots are reclaimed after a grace period;
//   * every request hashes to a QueryShard (src/serve/shard.h) owning its
//     own memo cache and admission state — cores serving different shards
//     share nothing.
//
// Each service records every query and admission outcome once, into its
// own obs::Registry attached to obs::Registry::global(): stats() and
// admission_stats() read that registry back, and the global export sums it
// with every other service's `bcc.serve.*` counts, past and present.
//
// When admission control is on (options.admission) an overloaded shard
// sheds instead of queueing: the response comes back with
// QueryStatus::kShed and, when the shard has memoized this (start, k,
// class) from a previously *converged* snapshot, that stale answer as a
// well-formed degraded payload. Requests carrying a deadline are shed
// rather than served late. Argument-error requests (bad k/class/start)
// bypass admission entirely — they are answered in nanoseconds and rejecting
// them would only mask caller bugs under load.
//
// Thread-safety: submit / submit_batch / refresh / snapshot / stats may all
// be called concurrently from any thread. Refreshing from several threads
// at once is allowed (versions stay monotonic) but pointless.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "serve/epoch.h"
#include "serve/shard.h"
#include "serve/snapshot.h"
#include "serve/thread_pool.h"

namespace bcc {

/// Service-wide serving statistics, read back from the service's registry
/// (QueryService::stats()). A plain value.
struct QueryStats {
  struct Snapshot {
    std::array<std::uint64_t, kQueryStatusCount> by_status{};
    std::uint64_t cache_hits = 0;
    /// Route length of every routed (found / not-found) query.
    obs::Histogram::Snapshot hops;
    /// Serve time in microseconds of every query.
    obs::Histogram::Snapshot latency;
    /// True when the counts describe one set of finished queries:
    /// sum(by_status) == latency.count, and cache_hits and hops.count
    /// belong to those queries (see QueryService::stats()).
    bool consistent = true;

    std::uint64_t count(QueryStatus status) const {
      return by_status[static_cast<std::size_t>(status)];
    }
    std::uint64_t total() const {
      std::uint64_t sum = 0;
      for (std::uint64_t c : by_status) sum += c;
      return sum;
    }
    /// Upper bound of the latency bucket holding percentile p (0..100];
    /// accurate to the bucket's factor-of-two width. 0 when empty.
    std::uint64_t latency_percentile_micros(double p) const {
      return latency.quantile(p);
    }
  };
};

struct QueryServiceOptions {
  /// Worker threads; 0 = hardware concurrency (at least 1).
  std::size_t threads = 0;
  /// Memoize per-(start, k, class) results until the next snapshot swap.
  bool cache_enabled = true;
  /// Query-plane shard count: each shard owns a cache partition and its
  /// admission state.
  std::size_t shards = 16;
  /// Per-shard admission control; default-constructed = admit everything.
  AdmissionOptions admission;
};

/// Aggregated admission/shedding counters across all shards (all zero when
/// admission control is disabled and no deadlines are set).
struct AdmissionStatsSnapshot {
  std::uint64_t admitted = 0;
  /// Every kShed response: refused by admission control or past deadline.
  std::uint64_t shed = 0;
  /// Of the shed responses, how many were past their deadline.
  std::uint64_t deadline_expired = 0;
  /// Of the shed responses, how many carried a stale best-effort payload.
  std::uint64_t shed_with_answer = 0;
  /// Max concurrently served queries observed on any one shard.
  std::size_t peak_shard_inflight = 0;
};

/// See file comment.
class QueryService {
 public:
  /// Snapshots `system` (deep copy) as serving state version 1.
  explicit QueryService(const DecentralizedClusterSystem& system,
                        QueryServiceOptions options = {});

  /// Serves one request synchronously on the calling thread, against the
  /// current snapshot. Thread-safe; lock-free snapshot access.
  QueryResult submit(const QueryRequest& request);

  /// Serves a batch across the thread pool; blocks until every request is
  /// answered. results[i] answers requests[i], and the whole batch is served
  /// against the single snapshot pinned at entry. Thread-safe.
  std::vector<QueryResult> submit_batch(std::span<const QueryRequest> requests);

  /// Re-snapshots the (presumably restructured) system and atomically swaps
  /// it in. In-flight batches finish on the snapshot they pinned; subsequent
  /// submissions see the new state. Cached results from older snapshots are
  /// discarded lazily; the retired snapshot is reclaimed after its grace
  /// period.
  void refresh(const DecentralizedClusterSystem& system);

  /// Installs an externally built snapshot — e.g. snapshot_of(AsyncOverlay…)
  /// captured mid-churn, whose `converged` flag makes subsequent results
  /// degraded. The version field is assigned internally (monotonic); same
  /// swap/pinning semantics as refresh(system).
  void refresh(SystemSnapshot snapshot);

  /// The snapshot new submissions are currently served against (shared
  /// ownership: survives any number of later refreshes).
  std::shared_ptr<const SystemSnapshot> snapshot() const;
  std::uint64_t snapshot_version() const { return snapshot()->version; }

  const QueryServiceOptions& options() const { return options_; }
  /// Service-wide stats, read from this service's registry.
  QueryStats::Snapshot stats() const;
  /// Zeroes this service's stats; the global export keeps the counts.
  void reset_stats() { registry_.reset(); }

  AdmissionStatsSnapshot admission_stats() const;
  /// Queries currently being served across all shards (0 once quiescent —
  /// the serving "queue" is bounded by shards * admission.queue_limit).
  std::size_t shards_inflight_now() const {
    std::size_t sum = 0;
    for (const auto& shard : shards_) sum += shard->inflight();
    return sum;
  }
  /// Retired-but-unreclaimed snapshots (0 once every grace period expired).
  std::size_t snapshots_in_limbo() const { return snapshot_.limbo_size(); }

 private:
  /// epoch_pin_ns is what the caller already spent pinning the snapshot —
  /// nonzero only for profiled direct submits (a batch shares one pin, so
  /// per-query attribution would be a lie).
  QueryResult serve_one(const SystemSnapshot& snap,
                        const QueryRequest& request,
                        std::uint64_t queued_micros,
                        std::uint64_t epoch_pin_ns = 0);
  /// The kShed path: best-effort stale payload, never any routing work.
  /// *stale_answer reports whether a memoized payload was attached (the
  /// explain profile's kStaleFallback / kShedEmpty distinction).
  QueryResult shed(QueryShard& shard, const QueryKey& key,
                   const SystemSnapshot& snap, bool deadline_expired,
                   bool* stale_answer = nullptr);
  QueryShard& shard_for(const QueryKey& key) {
    return *shards_[QueryKeyHash{}(key) % shards_.size()];
  }
  /// Counts one answered query in registry_ (the order of its writes is
  /// what makes stats() consistent; see there).
  void record(const QueryResult& result, bool cache_hit);

  // First member: outlives every reference into it below.
  obs::Registry registry_{obs::Registry::global()};
  obs::Counter& queries_;
  obs::Counter& cache_hits_;
  obs::Histogram& query_micros_;
  obs::Histogram& query_hops_;
  obs::Gauge& cache_hit_ratio_;
  /// Outcome counters: one per QueryStatus except kFound, which is
  /// queries_ minus the rest. kShed's is bcc.serve.shard.shed.
  std::array<obs::LazyCounter, kQueryStatusCount - 1> outcomes_;
  obs::LazyCounter admitted_;
  obs::LazyCounter deadline_expired_;
  obs::LazyCounter shed_with_answer_;
  obs::Gauge* shard_inflight_;  // registered when admission is enabled

  QueryServiceOptions options_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<QueryShard>> shards_;

  EpochPtr<SystemSnapshot> snapshot_;
  std::mutex refresh_mutex_;        // serializes version allocation + publish
  std::uint64_t next_version_ = 2;  // guarded by refresh_mutex_
};

}  // namespace bcc
