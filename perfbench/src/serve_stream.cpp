// serve-stream: the 317-host UMD stand-in under BandwidthDynamics (diurnal
// cycles, congestion, flash crowds, region degradation). One writer applies
// epochs back to back -- step, dirty_hosts, refresh_dirty, write_predicted
// [_delta], refresh_delta, QueryService::refresh -- while two clients run
// closed loops of hot-key submit() calls with the memo cache on. Every
// found cluster is checked on the predicted metric of the snapshot version
// it reports; at checkpoints the repaired state must equal a from-scratch
// fixpoint, and at the end cached answers must equal uncached ones. The
// bandwidth trace is fixed like the world. A round is a fresh set-up and
// kRoundEpochs epochs of the trace, so every round does the same writes and
// ends in the same state whatever the host's speed; a run is as many rounds
// as fill --seconds, and at least kRounds.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/system.h"
#include "data/dynamics.h"
#include "oracle.h"
#include "serve/query_service.h"
#include "tree/maintenance.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kHosts = 317;  // make_umd_planetlab's world
constexpr int kClients = 2;
constexpr std::size_t kRoundEpochs = 100;  // epochs of the trace a round runs
constexpr std::size_t kCheckEvery = 25;   // epochs between fixpoint checks
constexpr double kDirtyThreshold = 0.5;   // min per-host |delta log BW|
constexpr std::size_t kHotKeys = 64;
constexpr double kZipfS = 1.0;

bcc::DynamicsOptions dynamics_options() {
  bcc::DynamicsOptions o;
  o.rho = 0.85;
  o.sigma = 0.05;
  o.congestion_rate = 1.0;  // one host's congestion episode starts per epoch
  o.congestion_factor = 0.25;
  o.congestion_epochs = 3;
  o.diurnal_amplitude = 0.3;
  o.diurnal_period = 96;
  o.flash_crowd_rate = 0.0;
  o.flash_crowd_fraction = 0.03;  // ~10 hosts
  o.regions = 32;                 // ~10 hosts each
  o.region_degrade_rate = 0.0;
  return o;
}

/// The streaming world: measurements, their embedding, the synchronous
/// system and the service that serves it.
struct Stream {
  bcc::SynthDataset data;
  std::optional<bcc::BandwidthDynamics> dyn;
  bcc::DistanceMatrix real;  // the maintainer reads this in place
  std::optional<bcc::FrameworkMaintainer> maintainer;
  bcc::DistanceMatrix predicted;
  std::unique_ptr<bcc::DecentralizedClusterSystem> sys;
  std::unique_ptr<bcc::QueryService> service;
  std::size_t epoch = 0;
  // Stage times of the last set-up.
  double synth_ms = 0, embed_ms = 0, fixpoint_ms = 0, publish_ms = 0,
         total_s = 0, fixpoint_kb = 0;
  std::size_t cycles = 0;
};

void set_up(Stream& s) {
  s.service.reset();
  s.sys.reset();
  s.maintainer.reset();
  s.dyn.reset();
  s.epoch = 0;
  const double t0 = wall_s();
  {
    Span span("data.synth");
    bcc::Rng rng(kDatasetSeed);
    s.data = bcc::make_umd_planetlab(rng);
    s.dyn.emplace(s.data, dynamics_options(), kDatasetSeed);
    s.real = s.dyn->current().to_distance(s.data.c);
  }
  const double t1 = wall_s();
  const std::size_t n = s.data.bandwidth.size();
  if (n != kHosts) throw std::runtime_error("the UMD stand-in changed size");
  {
    Span span("tree.embed");
    s.maintainer.emplace(&s.real);
    for (NodeId h = 0; h < n; ++h) s.maintainer->join(h);
    s.predicted = bcc::DistanceMatrix(n);
    s.maintainer->write_predicted(&s.predicted);
  }
  const double t2 = wall_s();
  {
    Span span("core.fixpoint");
    s.sys = std::make_unique<bcc::DecentralizedClusterSystem>(
        s.maintainer->anchors(), s.predicted, class_grid(s.data.c));
    s.cycles = s.sys->run_to_convergence();
  }
  const double t3 = wall_s();
  {
    Span span("serve.publish");
    bcc::QueryServiceOptions options;
    options.threads = 1;
    s.service = std::make_unique<bcc::QueryService>(*s.sys, options);
  }
  const double t4 = wall_s();
  s.synth_ms = (t1 - t0) * 1e3;
  s.embed_ms = (t2 - t1) * 1e3;
  s.fixpoint_ms = (t3 - t2) * 1e3;
  s.publish_ms = (t4 - t3) * 1e3;
  s.total_s = t4 - t0;
  s.fixpoint_kb = static_cast<double>(s.sys->metrics().total_bytes()) / 1024.0;
}

/// The published snapshots a client may still name, so it can check an
/// answer on the predicted metric of the version it reports. The versions a
/// client sees only grow, so a snapshot older than every client's last
/// lookup is dropped at once: the ring holds no snapshot longer than the
/// clients need it, and none of those they may still name.
class SnapshotRing {
 public:
  void push(std::shared_ptr<const bcc::SystemSnapshot> snap) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ring_.push_back(std::move(snap));
      prune();
    }
    grown_.notify_all();
  }
  /// The snapshot of `version` for client `client`; waits for the writer to
  /// record a version that was published but not pushed yet. nullptr if
  /// `version` was never published.
  std::shared_ptr<const bcc::SystemSnapshot> find(int client,
                                                  std::uint64_t version) {
    std::unique_lock<std::mutex> lock(mutex_);
    grown_.wait_for(lock, std::chrono::seconds(10), [&] {
      return !ring_.empty() && ring_.back()->version >= version;
    });
    seen_[static_cast<std::size_t>(client)] = version;
    prune();
    for (const auto& snap : ring_) {
      if (snap->version == version) return snap;
    }
    return nullptr;
  }

 private:
  void prune() {  // under mutex_
    const std::uint64_t oldest = *std::min_element(seen_.begin(), seen_.end());
    while (ring_.size() > 1 && ring_.front()->version < oldest) {
      ring_.pop_front();
    }
  }
  std::mutex mutex_;
  std::condition_variable grown_;
  std::deque<std::shared_ptr<const bcc::SystemSnapshot>> ring_;  // by mutex_
  std::array<std::uint64_t, kClients> seen_{};  // last lookup; by mutex_
};

/// The hot keys and their Zipf(kZipfS) popularity, drawn from the seed.
struct KeyMix {
  std::vector<bcc::QueryRequest> keys;
  std::vector<double> cdf;

  KeyMix(std::uint64_t seed, std::size_t n) {
    bcc::Rng rng = bcc::Rng(seed).split(21);
    double total = 0.0;
    for (std::size_t i = 0; i < kHotKeys; ++i) {
      const auto start = static_cast<NodeId>(rng.below(n));
      const std::size_t k = 2 + rng.below(15);
      keys.push_back(
          bcc::QueryRequest::bandwidth(start, k, rng.uniform(10.0, 100.0)));
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  const bcc::QueryRequest& pick(bcc::Rng& rng) const {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
    return keys[std::min<std::size_t>(it - cdf.begin(), keys.size() - 1)];
  }
};

constexpr std::size_t kReservoir = 1 << 16;  // samples kept per client
constexpr std::uint32_t kTraceEvery = 16;    // traced run: spans on 1 in 16

/// The QueryProfile stages of one query (traced run).
struct Stages {
  double compute_us, overhead_us, pin_ns, admission_ns, cache_ns, hops;
  bool computed;  ///< answered by Algorithm 4, not by the cache
};

/// What one client measured, as uniform samples of all its queries, and
/// its own tally (merged after the round, so clients share no counter).
struct ClientLog {
  Reservoir<double> latency_us{kReservoir};
  Reservoir<Stages> stages{kReservoir};
  double submit_s = 0;  ///< time spent inside submit(), all queries
  Tally tally;
};

void client(Stream& s, SnapshotRing& ring, int id, const KeyMix& mix,
            bcc::Rng rng, bool traced, const std::atomic<bool>& stop,
            ClientLog& log) {
  Tally& tally = log.tally;
  const bcc::BandwidthClasses classes = s.sys->classes();  // never changes
  std::shared_ptr<const bcc::SystemSnapshot> snap;
  for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    bcc::QueryRequest q = mix.pick(rng);
    q.with_profile(traced);
    const bool sampled = traced && i % kTraceEvery == 0;
    bcc::QueryResult r;
    const std::int64_t a = Tracer::now_ns();
    {
      Span span("serve.submit", sampled, kTraceEvery);
      r = s.service->submit(q);
      if (sampled && r.profile && r.profile->compute_ns > 0) {
        const std::int64_t end = Tracer::now_ns();
        Tracer::record_child(
            "core.compute",
            end - static_cast<std::int64_t>(r.profile->compute_ns), end);
      }
    }
    const double us = static_cast<double>(Tracer::now_ns() - a) / 1e3;
    log.submit_s += us / 1e6;
    log.latency_us.add(us, rng);
    if (!snap || snap->version != r.snapshot_version) {
      snap = ring.find(id, r.snapshot_version);
    }
    if (!snap) {
      tally.record("answer names snapshot version " +
                   std::to_string(r.snapshot_version) + ", never published");
      continue;
    }
    tally.record(check_found_only(q, r, classes, snap->predicted));
    if (!r.profile) continue;
    const bcc::QueryProfile& p = *r.profile;
    log.stages.add({static_cast<double>(p.compute_ns) / 1e3,
                    static_cast<double>(p.total_ns - p.compute_ns) / 1e3,
                    static_cast<double>(p.epoch_pin_ns),
                    static_cast<double>(p.admission_ns),
                    static_cast<double>(p.cache_ns),
                    static_cast<double>(r.hops),
                    p.path == bcc::QueryPath::kCompute},
                   rng);
  }
}

/// What the writer measured over one round of epochs.
struct EpochLog {
  std::vector<double> repair_ms, kb, step_ms, dirty, tree_ms, repaired,
      delta_ms, publish_ms;
  std::size_t full_rebuilds = 0;
  std::size_t reused = 0, recomputed = 0;
  std::size_t limbo_max = 0;
};

/// The repaired state must string-equal a from-scratch fixpoint on the same
/// inputs (the fixpoint is unique). Made in a child process: the writer's
/// state is this thread's own, and the fresh system stays out of the peak.
void check_fixpoint(const Stream& s, Tally& tally) {
  record_all(run_in_child([&](ChildReport& out) {
               bcc::DecentralizedClusterSystem fresh(s.maintainer->anchors(),
                                                     s.predicted,
                                                     s.sys->classes());
               fresh.run_to_convergence();
               out.verdicts.push_back(
                   s.sys->converged() && fresh.converged() &&
                           s.sys->canonical_dump() == fresh.canonical_dump()
                       ? ""
                       : "epoch " + std::to_string(s.epoch) +
                             ": repaired state differs from a fresh fixpoint");
             }),
             tally);
}

void run_epochs(Stream& s, SnapshotRing& ring, Tally& tally, EpochLog& log) {
  const std::size_t reused0 = s.sys->messages_reused();
  const std::size_t recomputed0 = s.sys->messages_recomputed();
  while (s.epoch < kRoundEpochs) {
    ++s.epoch;
    const std::size_t bytes0 = s.sys->metrics().total_bytes();
    const double t0 = wall_s();
    {
      Span span("data.step");
      s.dyn->step();
    }
    const double t1 = wall_s();  // a new measurement matrix is in
    std::vector<NodeId> dirty;
    {
      Span span("data.dirty_hosts");
      s.real = s.dyn->current().to_distance(s.data.c);
      dirty = s.dyn->dirty_hosts(kDirtyThreshold);
    }
    const double t2 = wall_s();
    bcc::FrameworkMaintainer::RepairReport rep;
    {
      Span span("tree.repair");
      rep = s.maintainer->refresh_dirty(&s.real, dirty);
      if (rep.full_rebuild) {
        s.maintainer->write_predicted(&s.predicted);
      } else {
        s.maintainer->write_predicted_delta(&s.predicted, rep.repaired);
      }
    }
    const double t3 = wall_s();
    {
      Span span("core.delta_fixpoint");
      s.sys->refresh_delta(s.predicted, rep.repaired, &s.maintainer->anchors());
    }
    const double t4 = wall_s();
    {
      Span span("serve.publish");
      s.service->refresh(*s.sys);
    }
    const double t5 = wall_s();
    ring.push(s.service->snapshot());
    tally.record(s.sys->converged()
                     ? ""
                     : "epoch " + std::to_string(s.epoch) + " did not converge");

    log.limbo_max = std::max(log.limbo_max, s.service->snapshots_in_limbo());
    if (s.epoch % kCheckEvery == 0) check_fixpoint(s, tally);
    log.repair_ms.push_back((t5 - t1) * 1e3);
    log.kb.push_back(
        static_cast<double>(s.sys->metrics().total_bytes() - bytes0) / 1024.0);
    log.step_ms.push_back((t2 - t0) * 1e3);
    log.dirty.push_back(static_cast<double>(dirty.size()));
    log.tree_ms.push_back((t3 - t2) * 1e3);
    log.repaired.push_back(static_cast<double>(rep.repaired.size()));
    log.delta_ms.push_back((t4 - t3) * 1e3);
    log.publish_ms.push_back((t5 - t4) * 1e3);
    if (rep.full_rebuild) ++log.full_rebuilds;
  }
  log.reused = s.sys->messages_reused() - reused0;
  log.recomputed = s.sys->messages_recomputed() - recomputed0;
}

/// One round: a fresh set-up, then the writer on this thread runs
/// kRoundEpochs epochs while the clients run on their own.
struct Round {
  double setup_s = 0;
  EpochLog epochs;
  std::vector<ClientLog> clients = std::vector<ClientLog>(kClients);
  double cache_hit_ratio = 0;

  /// Queries per second of time inside submit(), summed over the clients:
  /// the serve plane's rate, without the checks between the calls.
  double query_rate() const {
    double rate = 0;
    for (const ClientLog& c : clients) {
      rate += static_cast<double>(c.latency_us.seen()) / c.submit_s;
    }
    return rate;
  }
  std::vector<double> latencies() const {
    std::vector<double> all;
    for (const ClientLog& c : clients) {
      all.insert(all.end(), c.latency_us.kept().begin(),
                 c.latency_us.kept().end());
    }
    return all;
  }
  /// One stage over the sampled queries (only those Algorithm 4 computed,
  /// if `computed_only`).
  std::vector<double> stage(double Stages::*field,
                            bool computed_only = false) const {
    std::vector<double> all;
    for (const ClientLog& c : clients) {
      for (const Stages& st : c.stages.kept()) {
        if (!computed_only || st.computed) all.push_back(st.*field);
      }
    }
    return all;
  }
};

/// Memo-cache answers on the final snapshot must equal uncached ones.
void check_cache(Stream& s, const KeyMix& mix, Tally& tally) {
  const std::shared_ptr<const bcc::SystemSnapshot> snap = s.service->snapshot();
  for (std::size_t i = 0; i < mix.keys.size(); ++i) {
    const bcc::QueryRequest& q = mix.keys[i];
    s.service->submit(q);  // fills the cache if the clients did not
    const bcc::QueryResult cached = s.service->submit(q);
    const bcc::QueryResult direct = snap->run(q);
    tally.record(cached.snapshot_version == snap->version &&
                         cached.status == direct.status &&
                         cached.cluster == direct.cluster
                     ? ""
                     : "cached answer for hot key " + std::to_string(i) +
                           " differs from the uncached one");
  }
}

Round run_round(Stream& s, const KeyMix& mix, bcc::Rng& rng, bool traced,
                Tally& tally) {
  Round r;
  set_up(s);
  r.setup_s = s.total_s;
  tally.record(s.sys->converged() ? "" : "initial fixpoint not reached");
  SnapshotRing ring;
  ring.push(s.service->snapshot());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back(client, std::ref(s), std::ref(ring), i,
                         std::cref(mix),
                         rng.split(static_cast<std::uint64_t>(i)), traced,
                         std::cref(stop),
                         std::ref(r.clients[static_cast<std::size_t>(i)]));
  }
  rng = rng.split(kClients);
  run_epochs(s, ring, tally, r.epochs);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  for (const ClientLog& c : r.clients) tally.add(c.tally);
  const bcc::QueryStats::Snapshot stats = s.service->stats();
  r.cache_hit_ratio = stats.total() == 0
                          ? 0.0
                          : static_cast<double>(stats.cache_hits) /
                                static_cast<double>(stats.total());
  check_fixpoint(s, tally);
  check_cache(s, mix, tally);
  return r;
}

}  // namespace

void run_serve_stream(const Args& args, Result& out) {
  Stream s;
  const KeyMix mix(args.seed, kHosts);
  bcc::Rng rng = bcc::Rng(args.seed).split(33);
  if (!args.trace) {
    const double deadline = wall_s() + args.seconds;
    std::vector<Round> rounds;
    std::vector<double> setups;
    while (rounds.size() < static_cast<std::size_t>(kRounds) ||
           wall_s() < deadline) {
      rounds.push_back(run_round(s, mix, rng, false, out.tally));
      setups.push_back(rounds.back().setup_s);
    }
    out.set("setup_s", median(setups));
    out.set("query_p50_us", best_of(rounds, [](const Round& r) {
              return percentile(r.latencies(), 50);
            }));
    out.set("query_p99_us", best_of(rounds, [](const Round& r) {
              return percentile(r.latencies(), 99);
            }));
    out.set("query_rate_qps",
            best_of(
                rounds, [](const Round& r) { return r.query_rate(); }, true));
    // The trace is fixed: epoch e is the same repair in every round.
    const std::vector<double> repair = best_replays(
        rounds, [](const Round& r) -> const std::vector<double>& {
          return r.epochs.repair_ms;
        });
    out.set("upkeep_p50_ms", percentile(repair, 50));
    out.set("upkeep_p90_ms", percentile(repair, 90));
    out.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced run: one round untraced, then one traced (its set-up included);
  // both replay the same epochs, so the overhead compares like with like.
  bcc::Rng rng1 = rng;
  const Round st0 = run_round(s, mix, rng, false, out.tally);
  Tracer::enable(true);
  const Round st1 = run_round(s, mix, rng1, true, out.tally);
  Tracer::enable(false);
  set_trace_metrics(args, out);

  const EpochLog& e = st1.epochs;
  out.set("trace.overhead_query_p50_pct",
          100.0 * (median(st1.latencies()) / median(st0.latencies()) - 1.0));
  out.set("trace.overhead_upkeep_p50_pct",
          100.0 * (median(e.repair_ms) / median(st0.epochs.repair_ms) - 1.0));
  out.set("data.synth_ms", s.synth_ms);
  out.set("data.dynamics_step_ms", median(e.step_ms));
  out.set("data.dirty_hosts", mean(e.dirty));
  out.set("tree.embed_ms", s.embed_ms);
  out.set("tree.repair_ms", median(e.tree_ms));
  out.set("tree.repaired_hosts", mean(e.repaired));
  out.set("tree.full_rebuilds", static_cast<double>(e.full_rebuilds));
  out.set("core.fixpoint_ms", s.fixpoint_ms);
  out.set("core.fixpoint_cycles", static_cast<double>(s.cycles));
  out.set("core.fixpoint_kb", s.fixpoint_kb);
  out.set("core.delta_fixpoint_ms", median(e.delta_ms));
  out.set("core.upkeep_kb", mean(e.kb));
  out.set("core.delta_reuse_ratio",
          e.reused + e.recomputed == 0
              ? 0.0
              : static_cast<double>(e.reused) /
                    static_cast<double>(e.reused + e.recomputed));
  out.set("core.compute_us_p50", percentile(st1.stage(&Stages::compute_us, true), 50));
  out.set("core.compute_us_p99", percentile(st1.stage(&Stages::compute_us, true), 99));
  out.set("core.route_hops_mean", mean(st1.stage(&Stages::hops, true)));
  out.set("serve.publish_ms", median(e.publish_ms));
  out.set("serve.overhead_us_p50", percentile(st1.stage(&Stages::overhead_us), 50));
  out.set("serve.epoch_pin_ns_p50", percentile(st1.stage(&Stages::pin_ns), 50));
  out.set("serve.admission_ns_p50", percentile(st1.stage(&Stages::admission_ns), 50));
  out.set("serve.cache_ns_p50", percentile(st1.stage(&Stages::cache_ns), 50));
  out.set("serve.cache_hit_ratio", st1.cache_hit_ratio);
  out.set("serve.snapshots_in_limbo_max", static_cast<double>(e.limbo_max));
  set_shape_metrics(shape_stats(s.maintainer->anchors(), s.sys->nodes(),
                                s.predicted, s.sys->classes()),
                    out);
}

}  // namespace perfbench
