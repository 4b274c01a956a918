// overlay-steady: a 400-host AsyncOverlay over the default fault-free
// SimTransport. It converges from empty tables, then gossips at steady
// state for at least 30 simulated seconds. Between simulated seconds (never
// during one) it answers 50 ms slices of a closed loop of queries from a
// snapshot of its tables. A run is kRounds rounds, each with a fresh
// overlay. After convergence every node's tables must equal the synchronous
// fixpoint and every self CRT entry the oracle's scan (both checked in a
// child process); last_change() must not move during the steady window. The
// gossip schedule is fixed like the world; --seed drives the queries.
#include <cmath>
#include <map>
#include <optional>

#include "core/async_overlay.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "serve/snapshot.h"
#include "sim/event_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kHosts = 400;
constexpr std::size_t kNCut = 10;
constexpr std::size_t kQuietSeconds = 5;     // unchanged tables = converged
constexpr std::size_t kMaxConvergeSeconds = 300;
constexpr std::size_t kMinSteadySeconds = 30;
constexpr double kQuerySlice = 0.05;  // seconds of queries per sim second

/// The overlay's world and the overlay itself, ready to start.
struct Overlay {
  std::optional<bcc::Framework> fw;
  bcc::DistanceMatrix predicted;
  std::optional<bcc::BandwidthClasses> classes;
  std::unique_ptr<bcc::EventEngine> engine;  // outlives no overlay
  std::unique_ptr<bcc::AsyncOverlay> overlay;
  double synth_ms = 0, embed_ms = 0, total_s = 0;
};

void set_up(Overlay& o) {
  o.overlay.reset();  // before its engine: pending timers point into it
  o.engine = std::make_unique<bcc::EventEngine>();
  const double t0 = wall_s();
  bcc::Rng rng(kDatasetSeed);
  bcc::SynthDataset data;
  {
    Span span("data.synth");
    data = synth_world(kHosts, rng);
  }
  const double t1 = wall_s();
  {
    Span span("tree.embed");
    o.fw = bcc::build_framework(data.distances, rng);
    o.predicted = o.fw->predicted_distances();
  }
  const double t2 = wall_s();
  o.classes = class_grid(data.c);
  bcc::AsyncOverlayOptions options;
  options.n_cut = kNCut;
  o.overlay = std::make_unique<bcc::AsyncOverlay>(
      &o.fw->anchors, &o.predicted, &*o.classes, options, kDatasetSeed);
  o.synth_ms = (t1 - t0) * 1e3;
  o.embed_ms = (t2 - t1) * 1e3;
  o.total_s = wall_s() - t0;
}

std::uint64_t net_counter(const char* name) {
  return bcc::obs::Registry::global().snapshot().counter_value(name);
}

/// Runs one simulated second of gossip; returns its wall time in ms.
double gossip_second(Overlay& o) {
  Span span("overlay.gossip_second");
  const double t0 = wall_s();
  o.overlay->run_for(*o.engine, 1.0);
  return (wall_s() - t0) * 1e3;
}

/// Steady-window measurements, one entry per simulated second.
struct SteadyLog {
  std::vector<double> ms, kb;
  double rounds = 0, events = 0, frames = 0;
};

void steady_second(Overlay& o, SteadyLog& log) {
  const std::size_t rounds0 = o.overlay->gossip_rounds();
  const std::size_t events0 = o.engine->events_processed();
  const std::uint64_t frames0 = net_counter("bcc.net.frames_sent");
  const std::uint64_t bytes0 = net_counter("bcc.net.bytes_sent");
  log.ms.push_back(gossip_second(o));
  log.kb.push_back(
      static_cast<double>(net_counter("bcc.net.bytes_sent") - bytes0) / 1024.0);
  log.rounds += static_cast<double>(o.overlay->gossip_rounds() - rounds0);
  log.events += static_cast<double>(o.engine->events_processed() - events0);
  log.frames +=
      static_cast<double>(net_counter("bcc.net.frames_sent") - frames0);
}

/// Convergence from empty tables: reached when last_change() has stood
/// still for kQuietSeconds simulated seconds.
struct Convergence {
  bool reached = false;
  double sim_s = 0;    ///< last_change() at the fixpoint
  double cpu_s = 0;    ///< CPU up to the end of that simulated second
  double kb = 0;       ///< bytes sent by then
};

Convergence converge(Overlay& o) {
  const double cpu0 = thread_cpu_s();
  const std::uint64_t bytes0 = net_counter("bcc.net.bytes_sent");
  std::vector<double> cpu_at = {0.0};  // by simulated second
  std::vector<std::uint64_t> bytes_at = {0};
  std::size_t quiet = 0;
  while (quiet < kQuietSeconds && cpu_at.size() <= kMaxConvergeSeconds) {
    const double before = o.overlay->last_change();
    gossip_second(o);
    cpu_at.push_back(thread_cpu_s() - cpu0);
    bytes_at.push_back(net_counter("bcc.net.bytes_sent") - bytes0);
    quiet = o.overlay->last_change() == before ? quiet + 1 : 0;
  }
  Convergence c;
  c.reached = quiet >= kQuietSeconds;
  c.sim_s = o.overlay->last_change();
  const auto settle = std::min(cpu_at.size() - 1,
                               static_cast<std::size_t>(std::ceil(c.sim_s)));
  c.cpu_s = cpu_at[settle];
  c.kb = static_cast<double>(bytes_at[settle]) / 1024.0;
  return c;
}

/// The closed loop of queries on a snapshot of the overlay's tables.
struct QueryLog {
  std::vector<double> latency_us, hops;
};

void run_queries(const bcc::SystemSnapshot& snap,
                 const std::vector<std::size_t>& best, bcc::Rng& rng,
                 double seconds, Tally& tally, QueryLog& log) {
  const double deadline = wall_s() + seconds;
  while (wall_s() < deadline) {
    const bcc::QueryRequest q = cold_query(rng, kHosts, snap.classes, best);
    bcc::QueryResult r;
    const std::int64_t a = Tracer::now_ns();
    {
      Span span("core.query");
      r = snap.run(q);
    }
    log.latency_us.push_back(static_cast<double>(Tracer::now_ns() - a) / 1e3);
    log.hops.push_back(static_cast<double>(r.hops));
    tally.record(check_answer(q, r, snap.classes, snap.predicted, best));
  }
}

/// What one round measured.
struct Round {
  double setup_s = 0;
  Convergence convergence;
  SteadyLog steady;
  QueryLog queries;

  /// Queries per second of time inside run().
  double query_rate() const {
    double s = 0;
    for (double us : queries.latency_us) s += us / 1e6;
    return static_cast<double>(queries.latency_us.size()) / s;
  }
};

/// The synchronous fixpoint every converged overlay must equal, as a hash
/// of each node's canonical state (made on the first round), and the
/// oracle's M(l) per class.
struct Reference {
  std::map<NodeId, std::uint64_t> state_hashes;
  std::vector<std::size_t> best;
};

/// Checks the converged overlay in a child process: each node's tables
/// against the synchronous fixpoint (computed there on the first round,
/// whose hashes it hands back), each self CRT entry against the oracle's
/// scan, whose M(l) it hands back.
void check_converged(const Overlay& o, Reference& ref, Tally& tally) {
  const bool first = ref.state_hashes.empty();
  const ChildReport rep = run_in_child([&](ChildReport& out) {
    const bcc::OverlayNodeMap& nodes = o.overlay->nodes();
    std::map<NodeId, std::uint64_t> want = ref.state_hashes;
    if (first) {
      bcc::SystemOptions sync_options;
      sync_options.n_cut = kNCut;
      bcc::DecentralizedClusterSystem sync(o.fw->anchors, o.predicted,
                                           *o.classes, sync_options);
      sync.run_to_convergence();
      for (const auto& [x, node] : sync.nodes()) {
        want.emplace(x, state_hash(bcc::canonical_node_state(x, node)));
      }
    }
    for (const auto& [x, hash] : want) {
      auto it = nodes.find(x);
      out.verdicts.push_back(
          it != nodes.end() &&
                  state_hash(bcc::canonical_node_state(x, it->second)) == hash
              ? ""
              : "node " + std::to_string(x) +
                    " differs from the sync fixpoint");
    }
    const SpaceScan scan = scan_spaces(nodes, o.predicted, *o.classes);
    for (const auto& [x, sizes] : scan.per_node) {
      out.verdicts.push_back(nodes.at(x).aggr_crt.at(x) == sizes
                                 ? ""
                                 : "self CRT of node " + std::to_string(x) +
                                       " differs from the oracle's scan");
    }
    out.values.push_back(scan.best.size());
    out.values.insert(out.values.end(), scan.best.begin(), scan.best.end());
    if (first) {
      for (const auto& [x, hash] : want) {
        out.values.push_back(x);
        out.values.push_back(hash);
      }
    }
  });
  record_all(rep, tally);
  const auto classes = static_cast<std::size_t>(rep.values.at(0));
  auto it = rep.values.begin() + 1;
  ref.best.assign(it, it + static_cast<std::ptrdiff_t>(classes));
  for (it += static_cast<std::ptrdiff_t>(classes); it != rep.values.end();
       it += 2) {
    ref.state_hashes.emplace(static_cast<NodeId>(*it), *(it + 1));
  }
}

/// One round: a fresh overlay converges from empty tables, is checked, and
/// then gossips at steady state, alternating simulated seconds with query
/// slices, for `seconds` (and at least kMinSteadySeconds).
Round run_round(Overlay& o, Reference& ref, bcc::Rng& rng, double seconds,
                Tally& tally, double* publish_ms = nullptr) {
  Round r;
  // Set-up is everything before the steady window: the world, the overlay
  // and its convergence from empty tables.
  set_up(o);
  const double c0 = wall_s();
  r.convergence = converge(o);
  r.setup_s = o.total_s + (wall_s() - c0);
  const double start = wall_s();
  tally.record(r.convergence.reached ? "" : "overlay never converged");

  check_converged(o, ref, tally);

  const double p0 = wall_s();
  std::shared_ptr<const bcc::SystemSnapshot> snap;
  {
    Span span("serve.publish");
    snap = bcc::snapshot_of(*o.overlay, o.predicted, *o.classes);
  }
  if (publish_ms != nullptr) *publish_ms = (wall_s() - p0) * 1e3;
  while (wall_s() - start < seconds ||
         r.steady.ms.size() < kMinSteadySeconds) {
    steady_second(o, r.steady);
    run_queries(*snap, ref.best, rng, kQuerySlice, tally, r.queries);
  }
  tally.record(o.overlay->last_change() == r.convergence.sim_s
                   ? ""
                   : "tables changed during the steady window");
  return r;
}

}  // namespace

void run_overlay_steady(const Args& args, Result& out) {
  Overlay o;
  Reference ref;
  bcc::Rng rng = bcc::Rng(args.seed).split(44);
  const double round_s = args.seconds / kRounds;
  if (!args.trace) {
    std::vector<Round> rounds;
    std::vector<double> setups;
    for (int i = 0; i < kRounds; ++i) {
      rounds.push_back(run_round(o, ref, rng, round_s, out.tally));
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
    // The gossip schedule is fixed: the n-th steady second is the same
    // simulated work in every round.
    const std::vector<double> steady = best_replays(
        rounds, [](const Round& r) -> const std::vector<double>& {
          return r.steady.ms;
        });
    out.set("upkeep_p50_ms", percentile(steady, 50));
    out.set("upkeep_p90_ms", percentile(steady, 90));
    out.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced run: one round untraced, then one traced (its set-up included).
  const Round r0 = run_round(o, ref, rng, round_s, out.tally);
  Tracer::enable(true);
  double publish_ms = 0;
  const Round r1 = run_round(o, ref, rng, round_s, out.tally, &publish_ms);
  Tracer::enable(false);
  set_trace_metrics(args, out);

  const SteadyLog& st = r1.steady;
  const auto sim_s = static_cast<double>(st.ms.size());
  out.set("trace.overhead_query_p50_pct",
          100.0 * (median(r1.queries.latency_us) /
                       median(r0.queries.latency_us) -
                   1.0));
  out.set("trace.overhead_upkeep_p50_pct",
          100.0 * (median(st.ms) / median(r0.steady.ms) - 1.0));
  out.set("data.synth_ms", o.synth_ms);
  out.set("tree.embed_ms", o.embed_ms);
  out.set("overlay.converge_sim_s", r1.convergence.sim_s);
  out.set("overlay.converge_cpu_s", r1.convergence.cpu_s);
  out.set("overlay.converge_kb", r1.convergence.kb);
  out.set("overlay.rounds_per_sim_s", st.rounds / sim_s);
  out.set("sim.events_per_sim_s", st.events / sim_s);
  out.set("net.frames_per_sim_s", st.frames / sim_s);
  out.set("net.kb_per_sim_s", mean(st.kb));
  out.set("core.compute_us_p50", percentile(r1.queries.latency_us, 50));
  out.set("core.compute_us_p99", percentile(r1.queries.latency_us, 99));
  out.set("core.route_hops_mean", mean(r1.queries.hops));
  out.set("serve.publish_ms", publish_ms);
  const ShapeStats shape = shape_stats(o.fw->anchors, o.overlay->nodes(),
                                       o.predicted, *o.classes);
  set_shape_metrics(shape, out);
  // One gossip round is one node's round: its self-CRT pass on average.
  out.set("overlay.self_crt_ms_per_round",
          shape.self_crt_ms / static_cast<double>(o.overlay->nodes().size()));
}

}  // namespace perfbench
