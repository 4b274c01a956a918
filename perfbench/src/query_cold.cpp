// query-cold: an 800-host world converged synchronously and served by a
// QueryService with its memo cache off. One client runs a closed loop of
// submit() calls; every answer is checked against the oracle's M(l).
// Between 0.5 s slices of the loop runs upkeep: a full re-aggregation of
// the unchanged world (Algorithms 2-3 over every node) and a publish. A run
// is kRounds rounds, each from a fresh set-up. The heavy checks (the
// oracle's scan, canonical dumps) run in child processes.
#include <optional>

#include "core/find_cluster.h"
#include "core/system.h"
#include "oracle.h"
#include "serve/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kHosts = 800;
constexpr double kQuerySlice = 0.5;  // seconds of queries per upkeep round

/// One world brought to its first answerable state, with its stage times.
struct ColdSetup {
  std::optional<bcc::Framework> fw;
  bcc::EmbedStats embed;
  std::unique_ptr<bcc::DecentralizedClusterSystem> sys;
  std::unique_ptr<bcc::QueryService> service;
  double synth_ms = 0, embed_ms = 0, fixpoint_ms = 0, publish_ms = 0,
         total_s = 0, fixpoint_kb = 0;
  std::size_t cycles = 0;
};

void set_up(ColdSetup& s) {
  s.service.reset();
  s.sys.reset();
  const double t0 = wall_s();
  bcc::Rng rng(kDatasetSeed);
  bcc::SynthDataset data;
  {
    Span span("data.synth");
    data = synth_world(kHosts, rng);
  }
  const double t1 = wall_s();
  bcc::DistanceMatrix predicted;
  {
    Span span("tree.embed");
    s.embed = {};
    s.fw = bcc::build_framework(data.distances, rng, {}, &s.embed);
    predicted = s.fw->predicted_distances();
  }
  const double t2 = wall_s();
  {
    Span span("core.fixpoint");
    s.sys = std::make_unique<bcc::DecentralizedClusterSystem>(
        s.fw->anchors, std::move(predicted), class_grid(data.c));
    s.cycles = s.sys->run_to_convergence();
  }
  const double t3 = wall_s();
  {
    Span span("serve.publish");
    bcc::QueryServiceOptions options;
    options.threads = 1;
    options.cache_enabled = false;
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

/// The oracle's verdict on the first fixpoint: M(l) per class, and a hash
/// of its canonical dump that every later state must match.
struct Reference {
  std::vector<std::size_t> best;
  std::uint64_t dump_hash = 0;
};

/// What the closed loop of one round measured.
struct QueryPhase {
  std::vector<double> latency_us;
  // Traced rounds only: QueryProfile stages and Algorithm 1 re-timed.
  std::vector<double> compute_us, overhead_us, pin_ns, admission_ns, cache_ns;
  std::vector<double> find_us, pairs, hops;
};

void run_queries(ColdSetup& s, const Reference& ref, bcc::Rng& rng,
                 double seconds, bool traced, Tally& tally, QueryPhase& p) {
  const bcc::DecentralizedClusterSystem& sys = *s.sys;
  const bcc::BandwidthClasses& classes = sys.classes();
  const double deadline = wall_s() + seconds;
  while (wall_s() < deadline) {
    bcc::QueryRequest q = cold_query(rng, kHosts, classes, ref.best);
    q.with_profile(traced);
    bcc::QueryResult r;
    const std::int64_t a = Tracer::now_ns();
    {
      Span span("serve.submit");
      r = s.service->submit(q);
      if (traced && r.profile) {
        const std::int64_t end = Tracer::now_ns();
        Tracer::record_child("core.compute",
                             end - static_cast<std::int64_t>(r.profile->compute_ns),
                             end);
      }
    }
    const std::int64_t b = Tracer::now_ns();
    p.latency_us.push_back(static_cast<double>(b - a) / 1e3);
    tally.record(check_answer(q, r, classes, sys.predicted(), ref.best));
    if (!traced || !r.profile) continue;
    const bcc::QueryProfile& prof = *r.profile;
    p.compute_us.push_back(static_cast<double>(prof.compute_ns) / 1e3);
    p.overhead_us.push_back(
        static_cast<double>(prof.total_ns - prof.compute_ns) / 1e3);
    p.pin_ns.push_back(static_cast<double>(prof.epoch_pin_ns));
    p.admission_ns.push_back(static_cast<double>(prof.admission_ns));
    p.cache_ns.push_back(static_cast<double>(prof.cache_ns));
    p.hops.push_back(static_cast<double>(r.hops));
    if (r.found() && !r.route.empty() && p.latency_us.size() % 4 == 0) {
      // Algorithm 1 alone, on the answering node's clustering space.
      const std::vector<NodeId> space = sys.node(r.route.back()).clustering_space();
      const double l = classes.distance_at(*r.class_idx);
      const std::int64_t f0 = Tracer::now_ns();
      const auto again = bcc::find_cluster(sys.predicted(), space, q.k, l);
      const std::int64_t f1 = Tracer::now_ns();
      tally.record(again ? "" : "find_cluster lost a cluster routing found");
      p.find_us.push_back(static_cast<double>(f1 - f0) / 1e3);
      const auto m = static_cast<double>(space.size());
      p.pairs.push_back(m * (m - 1) / 2);  // computed, not counted
    }
  }
}

/// Upkeep rounds: full re-aggregation of the unchanged world and a publish.
struct UpkeepPhase {
  std::vector<double> ms, kb;
};

void upkeep_round(ColdSetup& s, Tally& tally, UpkeepPhase& u) {
  bcc::DecentralizedClusterSystem& sys = *s.sys;
  const std::size_t bytes0 = sys.metrics().total_bytes();
  const double t0 = wall_s();
  {
    Span span("core.refresh");
    sys.refresh(sys.predicted());
  }
  {
    Span span("serve.publish");
    s.service->refresh(sys);
  }
  u.ms.push_back((wall_s() - t0) * 1e3);
  u.kb.push_back(static_cast<double>(sys.metrics().total_bytes() - bytes0) /
                 1024.0);
  tally.record(sys.converged() ? "" : "full refresh did not converge");
}

/// What one round measured.
struct Round {
  QueryPhase queries;
  UpkeepPhase upkeep;
  double setup_s = 0;

  /// Queries per second of time inside submit().
  double query_rate() const {
    double s = 0;
    for (double us : queries.latency_us) s += us / 1e6;
    return static_cast<double>(queries.latency_us.size()) / s;
  }
};

/// The oracle's scan of the first fixpoint (in a child process): M(l) over
/// every clustering space, each self CRT entry against it, and the hash of
/// the canonical dump.
Reference make_reference(const bcc::DecentralizedClusterSystem& sys,
                         Tally& tally) {
  const ChildReport rep = run_in_child([&](ChildReport& out) {
    const SpaceScan scan =
        scan_spaces(sys.nodes(), sys.predicted(), sys.classes());
    for (const auto& [x, sizes] : scan.per_node) {
      out.verdicts.push_back(sys.node(x).aggr_crt.at(x) == sizes
                                 ? ""
                                 : "self CRT of node " + std::to_string(x) +
                                       " differs from the oracle's scan");
    }
    out.values.assign(scan.best.begin(), scan.best.end());
    out.values.push_back(state_hash(sys.canonical_dump()));
  });
  record_all(rep, tally);
  Reference ref;
  ref.best.assign(rep.values.begin(), rep.values.end() - 1);
  ref.dump_hash = rep.values.back();
  return ref;
}

/// The tables must still be the first fixpoint (same inputs, unique
/// fixpoint); compared in a child process.
void check_state(const bcc::DecentralizedClusterSystem& sys,
                 const Reference& ref, const char* failure, Tally& tally) {
  record_all(run_in_child([&](ChildReport& out) {
               out.verdicts.push_back(
                   state_hash(sys.canonical_dump()) == ref.dump_hash ? ""
                                                                     : failure);
             }),
             tally);
}

/// One round: a fresh set-up, then query slices alternating with upkeep
/// for `seconds`. The first round also makes the oracle's reference.
Round run_round(ColdSetup& s, Reference& ref, bcc::Rng& rng, double seconds,
                bool traced, Tally& tally) {
  Round r;
  set_up(s);
  r.setup_s = s.total_s;
  const bcc::DecentralizedClusterSystem& sys = *s.sys;
  tally.record(sys.converged() ? "" : "initial fixpoint not reached");
  if (ref.best.empty()) {
    ref = make_reference(sys, tally);
  } else {
    check_state(sys, ref, "a fresh set-up reached another fixpoint", tally);
  }
  const double start = wall_s();
  while (wall_s() - start < seconds) {
    run_queries(s, ref, rng, kQuerySlice, traced, tally, r.queries);
    upkeep_round(s, tally, r.upkeep);
  }
  check_state(*s.sys, ref,
              "full refresh of an unchanged world moved the fixpoint", tally);
  return r;
}

}  // namespace

void run_query_cold(const Args& args, Result& out) {
  ColdSetup s;
  Reference ref;
  bcc::Rng rng = bcc::Rng(args.seed).split(11);
  const double round_s = args.seconds / kRounds;
  if (!args.trace) {
    std::vector<Round> rounds;
    std::vector<double> setups;
    for (int i = 0; i < kRounds; ++i) {
      rounds.push_back(run_round(s, ref, rng, round_s, false, out.tally));
      setups.push_back(rounds.back().setup_s);
    }
    out.set("setup_s", median(setups));
    out.set("query_p50_us", best_of(rounds, [](const Round& r) {
              return percentile(r.queries.latency_us, 50);
            }));
    out.set("query_p99_us", best_of(rounds, [](const Round& r) {
              return percentile(r.queries.latency_us, 99);
            }));
    out.set("query_rate_qps",
            best_of(
                rounds, [](const Round& r) { return r.query_rate(); }, true));
    const std::vector<double> upkeep = best_replays(
        rounds, [](const Round& r) -> const std::vector<double>& {
          return r.upkeep.ms;
        });
    out.set("upkeep_p50_ms", percentile(upkeep, 50));
    out.set("upkeep_p90_ms", percentile(upkeep, 90));
    out.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced run: one round untraced, then one traced (its set-up included).
  const Round r0 = run_round(s, ref, rng, round_s, false, out.tally);
  Tracer::enable(true);
  const Round r1 = run_round(s, ref, rng, round_s, true, out.tally);
  Tracer::enable(false);
  set_trace_metrics(args, out);
  const QueryPhase& q0 = r0.queries;
  const QueryPhase& q1 = r1.queries;

  out.set("trace.overhead_query_p50_pct",
          100.0 * (median(q1.latency_us) / median(q0.latency_us) - 1.0));
  out.set("trace.overhead_upkeep_p50_pct",
          100.0 * (median(r1.upkeep.ms) / median(r0.upkeep.ms) - 1.0));
  out.set("data.synth_ms", s.synth_ms);
  out.set("tree.embed_ms", s.embed_ms);
  out.set("tree.embed_probes", static_cast<double>(s.embed.probes));
  out.set("core.fixpoint_ms", s.fixpoint_ms);
  out.set("core.fixpoint_cycles", static_cast<double>(s.cycles));
  out.set("core.fixpoint_kb", s.fixpoint_kb);
  out.set("serve.publish_ms", s.publish_ms);
  out.set("core.upkeep_kb", mean(r1.upkeep.kb));
  out.set("core.compute_us_p50", percentile(q1.compute_us, 50));
  out.set("core.compute_us_p99", percentile(q1.compute_us, 99));
  out.set("core.find_cluster_us_p99", percentile(q1.find_us, 99));
  out.set("core.pairs_per_query", mean(q1.pairs));
  out.set("core.route_hops_mean", mean(q1.hops));
  out.set("serve.overhead_us_p50", percentile(q1.overhead_us, 50));
  out.set("serve.epoch_pin_ns_p50", percentile(q1.pin_ns, 50));
  out.set("serve.admission_ns_p50", percentile(q1.admission_ns, 50));
  out.set("serve.cache_ns_p50", percentile(q1.cache_ns, 50));
  set_shape_metrics(shape_stats(s.fw->anchors, s.sys->nodes(),
                                s.sys->predicted(), s.sys->classes()),
                    out);
}

}  // namespace perfbench
