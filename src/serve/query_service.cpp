#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <latch>
#include <thread>

#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcc {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint64_t now_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Only terminal routing outcomes are worth memoizing; argument errors are
/// answered in nanoseconds anyway.
bool cacheable(QueryStatus status) {
  return status == QueryStatus::kFound || status == QueryStatus::kNotFound;
}

/// Pairs QueryShard::admit's in-flight slot with its finish() on every
/// return path.
struct FinishGuard {
  QueryShard* shard = nullptr;
  ~FinishGuard() {
    if (shard != nullptr) shard->finish();
  }
};

/// Stage-boundary clock for explain profiles. One steady_clock read per
/// boundary; each stage's end doubles as the next stage's begin, so the
/// stages telescope exactly to the measured total (what lets the explain
/// self-consistency test demand >= 95% coverage). Inert — no clock reads —
/// unless the request opted in.
struct StageClock {
  bool on = false;
  std::chrono::steady_clock::time_point mark;
  /// Nanoseconds since the previous boundary; advances the boundary.
  std::uint64_t lap() {
    if (!on) return 0;
    const auto now = std::chrono::steady_clock::now();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now - mark)
                        .count();
    mark = now;
    return static_cast<std::uint64_t>(ns);
  }
};

}  // namespace

QueryService::QueryService(const DecentralizedClusterSystem& system,
                           QueryServiceOptions options)
    : queries_(registry_.counter("bcc.serve.queries")),
      cache_hits_(registry_.counter("bcc.serve.cache_hits")),
      query_micros_(registry_.histogram("bcc.serve.query_micros")),
      query_hops_(registry_.histogram("bcc.serve.query_hops")),
      // kMean: a fleet-wide hit ratio is the average of the node ratios,
      // not their max (which would report the luckiest node).
      cache_hit_ratio_(registry_.gauge("bcc.serve.cache_hit_ratio",
                                       obs::GaugeAgg::kMean)),
      outcomes_{registry_.lazy_counter("bcc.serve.not_found"),
                registry_.lazy_counter("bcc.serve.invalid_k"),
                registry_.lazy_counter("bcc.serve.bandwidth_unsatisfiable"),
                registry_.lazy_counter("bcc.serve.unknown_start"),
                registry_.lazy_counter("bcc.serve.shard.shed")},
      admitted_(registry_.lazy_counter("bcc.serve.shard.admitted")),
      deadline_expired_(
          registry_.lazy_counter("bcc.serve.shard.deadline_expired")),
      shed_with_answer_(
          registry_.lazy_counter("bcc.serve.shard.shed_with_answer")),
      // kSum: in-flight queries add up across nodes; the fleet view wants
      // the total load, not one shard's.
      shard_inflight_(options.admission.enabled()
                          ? &registry_.gauge("bcc.serve.shard.inflight",
                                             obs::GaugeAgg::kSum)
                          : nullptr),
      options_(options),
      pool_(resolve_threads(options.threads)),
      snapshot_(snapshot_of(system, /*version=*/1)) {
  options_.threads = pool_.size();
  const std::size_t shard_count = std::max<std::size_t>(1, options_.shards);
  options_.shards = shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<QueryShard>());
  }
}

QueryResult QueryService::shed(QueryShard& shard, const QueryKey& key,
                               const SystemSnapshot& snap,
                               bool deadline_expired, bool* stale_answer) {
  QueryResult result;
  const bool stale = shard.stale_lookup(key, &result);
  if (stale_answer != nullptr) *stale_answer = stale;
  if (stale) {
    // The payload (cluster/hops/route/class/snapshot_version) is the answer
    // last memoized from a converged snapshot; keep it, mark it shed+stale.
    shed_with_answer_.add(1);
  } else {
    result.snapshot_version = snap.version;
    result.class_idx = key.class_idx;
  }
  result.status = QueryStatus::kShed;
  result.degraded = true;
  if (deadline_expired) deadline_expired_.add(1);
  return result;
}

static_assert(static_cast<std::size_t>(QueryStatus::kFound) == 0,
              "outcomes_ and by_status[0] assume kFound is status 0");

void QueryService::record(const QueryResult& result, bool cache_hit) {
  queries_.add(1);
  std::atomic_thread_fence(std::memory_order_release);
  if (result.status != QueryStatus::kFound) {
    outcomes_[static_cast<std::size_t>(result.status) - 1].add(1);
  }
  std::atomic_thread_fence(std::memory_order_release);
  // The trace id rides the latency histogram as a per-bucket exemplar, so a
  // p99 spike in `bcc top` names a concrete query to pull the trace for.
  query_micros_.record_with_exemplar(result.micros, result.trace_id);
  if (cache_hit) cache_hits_.add(1);
  if (result.status == QueryStatus::kFound ||
      result.status == QueryStatus::kNotFound) {
    query_hops_.record(result.hops);
  }
  // Refreshing the ratio gauge sums every stripe of two counters (32 padded
  // cache lines); sample it rather than paying that on each query. The first
  // query still publishes so the gauge is live immediately.
  thread_local std::uint32_t tick = 0;
  if ((tick++ & 63u) == 0) {
    cache_hit_ratio_.set(static_cast<double>(cache_hits_.value()) /
                         static_cast<double>(queries_.value()));
  }
}

QueryResult QueryService::serve_one(const SystemSnapshot& snap,
                                    const QueryRequest& request,
                                    std::uint64_t queued_micros,
                                    std::uint64_t epoch_pin_ns) {
  obs::Span span(obs::SpanCategory::kServe, "serve_query");
  const auto t0 = std::chrono::steady_clock::now();
  QueryProfile prof;
  StageClock clock{request.profile, t0};
  if (request.profile) {
    prof.queue_ns = queued_micros * 1000;
    prof.epoch_pin_ns = epoch_pin_ns;
    prof.snapshot_version = snap.version;
  }
  // Runs on every return path; cached and stale results get the *current*
  // span's trace id, not the one they were computed under. `final_stage` is
  // the profile stage this path ended in: its lap closes at the SAME clock
  // read that defines total_ns, so stages telescope to the total exactly.
  auto stamp = [&](QueryResult& r, QueryPath path,
                   std::uint64_t QueryProfile::*final_stage) {
    const auto now = std::chrono::steady_clock::now();
    r.micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - t0)
            .count());
    r.trace_id = span.trace_id();
    if (request.profile) {
      prof.*final_stage += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                               clock.mark)
              .count());
      prof.path = path;
      prof.total_ns =
          prof.queue_ns + prof.epoch_pin_ns +
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0)
                  .count());
      r.profile = prof;
    }
  };

  // Validate up front (same precedence as QueryProcessor::run). Argument
  // errors bypass admission control entirely: they cost nanoseconds, and
  // shedding them would only mask caller bugs under load.
  QueryResult result;
  const auto cls = resolve_class(request, snap.classes);
  if (request.k < 2) {
    result.status = QueryStatus::kInvalidK;
  } else if (!cls) {
    result.status = QueryStatus::kBandwidthUnsatisfiable;
  } else if (!snap.nodes.count(request.start)) {
    result.status = QueryStatus::kUnknownStart;
  }
  if (result.status != QueryStatus::kNotFound) {  // argument error
    result.snapshot_version = snap.version;
    result.degraded = !snap.converged;
    const QueryKey err_key{request.start, request.k, cls.value_or(0)};
    if (request.profile) {
      prof.shard =
          static_cast<std::uint32_t>(QueryKeyHash{}(err_key) % shards_.size());
    }
    stamp(result, QueryPath::kBypass, &QueryProfile::validate_ns);
    record(result, /*cache_hit=*/false);
    return result;
  }

  const QueryKey key{request.start, request.k, *cls};
  const std::size_t shard_idx = QueryKeyHash{}(key) % shards_.size();
  QueryShard& shard = *shards_[shard_idx];
  if (request.profile) {
    prof.shard = static_cast<std::uint32_t>(shard_idx);
    prof.validate_ns = clock.lap();
  }

  // A query that already waited past its deadline is shed, never served
  // late (only batch fanout introduces waiting; direct submit passes 0).
  // The shed path's work is a stale-cache probe, so its lap lands in
  // cache_ns.
  bool stale = false;
  if (request.deadline_micros > 0 && queued_micros > request.deadline_micros) {
    result = shed(shard, key, snap, /*deadline_expired=*/true, &stale);
    stamp(result,
          stale ? QueryPath::kStaleFallback : QueryPath::kShedEmpty,
          &QueryProfile::cache_ns);
    record(result, /*cache_hit=*/false);
    return result;
  }

  FinishGuard fin;
  if (options_.admission.enabled()) {
    const AdmitDecision decision =
        shard.admit(options_.admission, request.priority, now_micros());
    if (decision != AdmitDecision::kAdmitted) {
      prof.admission_ns = clock.lap();
      result = shed(shard, key, snap, /*deadline_expired=*/false, &stale);
      stamp(result,
            stale ? QueryPath::kStaleFallback : QueryPath::kShedEmpty,
            &QueryProfile::cache_ns);
      record(result, /*cache_hit=*/false);
      return result;
    }
    fin.shard = &shard;
    admitted_.add(1);
    shard_inflight_->set(static_cast<double>(shard.inflight()));
  }
  prof.admission_ns += clock.lap();

  if (options_.cache_enabled && shard.cache_lookup(key, snap.version,
                                                   &result)) {
    stamp(result, QueryPath::kCacheHit, &QueryProfile::cache_ns);
    record(result, /*cache_hit=*/true);
    return result;
  }
  prof.cache_ns = clock.lap();

  result = snap.run(request);
  stamp(result, QueryPath::kCompute, &QueryProfile::compute_ns);
  if (options_.cache_enabled && cacheable(result.status)) {
    shard.cache_store(key, snap.version, result, snap.converged);
  }
  record(result, /*cache_hit=*/false);
  return result;
}

QueryResult QueryService::submit(const QueryRequest& request) {
  // Lock-free snapshot pin; the guard spans exactly one query. A profiled
  // submit times the pin itself — the one serve stage that happens before
  // serve_one gets control.
  if (request.profile) {
    const auto pin_t0 = std::chrono::steady_clock::now();
    const auto guard = snapshot_.read();
    const auto pin_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - pin_t0)
            .count());
    return serve_one(*guard, request, /*queued_micros=*/0, pin_ns);
  }
  const auto guard = snapshot_.read();
  return serve_one(*guard, request, /*queued_micros=*/0);
}

std::vector<QueryResult> QueryService::submit_batch(
    std::span<const QueryRequest> requests) {
  std::vector<QueryResult> results(requests.size());
  if (requests.empty()) return results;
  // One read-side critical section held by the caller pins the whole
  // batch's snapshot: workers share the raw pointer, and the epoch domain
  // keeps it alive until this guard drops (after done.wait()).
  const auto guard = snapshot_.read();
  const SystemSnapshot& snap = *guard;
  const auto batch_t0 = std::chrono::steady_clock::now();

  const std::size_t tasks = std::min(pool_.size(), requests.size());
  // Coarse dynamic chunking: cheap queries amortize the atomic, slow ones
  // still balance across workers.
  const std::size_t block =
      std::max<std::size_t>(1, requests.size() / (tasks * 8));

  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  std::latch done(static_cast<std::ptrdiff_t>(tasks));
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (std::size_t t = 0; t < tasks; ++t) {
    pool_.post([&, next, block] {
      try {
        for (;;) {
          const std::size_t begin = next->fetch_add(block);
          if (begin >= requests.size()) break;
          const std::size_t end = std::min(begin + block, requests.size());
          // Time already spent queued behind earlier chunks — what a
          // request's deadline is checked against.
          const auto queued = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - batch_t0)
                  .count());
          for (std::size_t i = begin; i < end; ++i) {
            results[i] = serve_one(snap, requests[i], queued);
          }
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done.count_down();
    });
  }
  done.wait();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

void QueryService::refresh(const DecentralizedClusterSystem& system) {
  std::uint64_t version;
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    version = next_version_++;
  }
  // Deep copy outside the lock: serving keeps going while we copy.
  auto snap = snapshot_of(system, version);
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  // Concurrent refreshes may finish out of order; never roll back.
  if (snapshot_.current_shared()->version < version) {
    snapshot_.publish(std::move(snap));
  }
}

void QueryService::refresh(SystemSnapshot snapshot) {
  std::uint64_t version;
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    version = next_version_++;
  }
  snapshot.version = version;
  auto snap = std::make_shared<const SystemSnapshot>(std::move(snapshot));
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  if (snapshot_.current_shared()->version < version) {
    snapshot_.publish(std::move(snap));
  }
}

std::shared_ptr<const SystemSnapshot> QueryService::snapshot() const {
  return snapshot_.current_shared();
}

QueryStats::Snapshot QueryService::stats() const {
  // record() writes queries_, a release fence, the outcome counter, a
  // release fence, then query_micros_, cache_hits_ and query_hops_. This
  // reads them in the reverse order with an acquire fence before each of
  // the last two steps, so a query seen by an earlier read is seen by every
  // later read of what it wrote before that fence. Hence the queries counted
  // in hops, hits, latency and outcomes are all among those counted in
  // `queries`, and every latency sample's outcome is among the outcomes
  // read. When `queries` equals the latency count the two sets are the
  // same, so the outcomes, hits and hops are exactly theirs: no pair of
  // in-flight queries can cancel out. Under relentless load this retries a
  // bounded number of times, then returns the last read flagged
  // inconsistent; it never blocks writers.
  constexpr int kMaxAttempts = 64;
  QueryStats::Snapshot s;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    s.hops = query_hops_.snapshot();
    s.cache_hits = cache_hits_.value();
    s.latency = query_micros_.snapshot();
    std::atomic_thread_fence(std::memory_order_acquire);
    std::uint64_t others = 0;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      s.by_status[i + 1] = outcomes_[i].value();
      others += s.by_status[i + 1];
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t queries = queries_.value();
    // A concurrent reset_stats() can zero queries_ before the outcomes.
    s.by_status[0] = queries >= others ? queries - others : 0;
    s.consistent = queries >= others && queries == s.latency.count;
    if (s.consistent) break;
  }
  return s;
}

AdmissionStatsSnapshot QueryService::admission_stats() const {
  AdmissionStatsSnapshot s;
  s.admitted = admitted_.value();
  s.shed = outcomes_[static_cast<std::size_t>(QueryStatus::kShed) - 1].value();
  s.deadline_expired = deadline_expired_.value();
  s.shed_with_answer = shed_with_answer_.value();
  for (const auto& shard : shards_) {
    s.peak_shard_inflight = std::max(s.peak_shard_inflight,
                                     shard->peak_inflight());
  }
  return s;
}

}  // namespace bcc
