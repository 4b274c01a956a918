// Fleet telemetry collection: the data model, byte codec, merge, clock
// alignment, and merged-timeline export behind `bcc collect` / `bcc top`.
//
// Layering: this module is pure data-plane — it encodes/decodes telemetry
// payloads and fuses per-process snapshots, but owns no sockets. The wire
// transport (TELEMETRY frames on the framed src/net transport) lives in
// src/net/telemetry_client, which sits *above* obs in the dependency
// graph; the flight-recorder fallback (obs/flight.h) sits beside it. This
// split is what lets the chaos tests exercise merge/offset/export logic
// hermetically, without processes.
//
// Pipeline, end to end:
//   node:      Registry::global().snapshot() + Tracer::global().drain()
//              -> encode_node_telemetry() -> TELEMETRY frame payload
//   collector: decode_node_telemetry() per node (or telemetry_from_flight()
//              for a crashed node's on-disk ring)
//              -> merge_fleet_metrics()     one fleet registry
//              -> estimate_clock_offsets()  align per-process clocks
//              -> fleet_chrome_trace_json() one Perfetto timeline
//
// Clock alignment: each process stamps spans with its own steady_clock,
// whose epoch is arbitrary per process — raw lanes can sit *hours* apart.
// But every cross-process exchange leaves a matched pair: a send span on
// process i and a remote-parented receive span on process j whose
// wall_begin difference is (clock_j - clock_i) + network latency. Taking
// the minimum difference per direction (NTP's trick) cancels queueing
// noise, and half the difference of the two directional minima cancels the
// symmetric part of the latency:
//     offset(j relative to i) ~ (min_delta(i->j) - min_delta(j->i)) / 2.
// Offsets then propagate from the reference process by BFS over the pair
// graph, so any process that ever exchanged (transitively) with the
// reference lands on one shared axis. Residual error is bounded by the
// path asymmetry — microseconds on loopback, plenty for eyeballing lanes.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcc::obs {

struct FlightData;  // obs/flight.h

/// Bumped on incompatible telemetry payload changes. Decoders reject other
/// versions; the frame layer's major-version gate handles framing drift.
/// Version 2: gauge aggregation hints (GaugeAgg), per-bucket histogram
/// exemplars, and sampling-profiler folded-stack summaries.
inline constexpr std::uint32_t kTelemetryFormatVersion = 2;

/// One process's telemetry at one scrape: identity, full metrics registry
/// snapshot, and the drained span ring. Move-only — decoded `spans[i].name`
/// pointers alias `name_pool` entries (SpanRecord keeps `const char*` for
/// the zero-cost live path; decoded telemetry owns its strings here).
struct NodeTelemetry {
  std::uint32_t node = 0;  ///< simulated node id
  std::uint32_t pid = 0;   ///< real OS pid -> Perfetto process lane
  /// Sender's steady clock at encode time (us) — staleness hint for `top`.
  std::uint64_t wall_now_us = 0;
  /// True when this entry was recovered from an on-disk flight ring after
  /// the process died, rather than scraped live.
  bool recovered = false;
  RegistrySnapshot metrics;
  std::vector<SpanRecord> spans;
  /// Sampling-profiler summary: folded stacks ("a;b;c") with cumulative
  /// sample counts, hottest first, truncated by the sender (the full
  /// resolution stays on the node — `bcc profile` reads it locally). Empty
  /// when the node's profiler is off.
  std::vector<std::pair<std::string, std::uint64_t>> profile;
  std::deque<std::string> name_pool;  ///< backs spans[i].name when decoded

  NodeTelemetry() = default;
  NodeTelemetry(NodeTelemetry&&) = default;
  NodeTelemetry& operator=(NodeTelemetry&&) = default;
  NodeTelemetry(const NodeTelemetry&) = delete;
  NodeTelemetry& operator=(const NodeTelemetry&) = delete;
};

/// Metrics-only codec (registry snapshot <-> bytes, sparse histogram
/// buckets). Also the flight recorder's metrics-blob format.
std::vector<std::uint8_t> encode_node_metrics(const RegistrySnapshot& s);
bool decode_node_metrics(const std::uint8_t* data, std::size_t len,
                         RegistrySnapshot* out);

/// Full telemetry codec — the TELEMETRY frame payload. Span names are
/// length-prefixed and truncated to 255 bytes; everything else round-trips
/// exactly (tests/collect_test.cpp pins this).
std::vector<std::uint8_t> encode_node_telemetry(const NodeTelemetry& t);
bool decode_node_telemetry(const std::uint8_t* data, std::size_t len,
                           NodeTelemetry* out);

/// Fuses per-process registries into one fleet registry with
/// merge_snapshots (obs/metrics.h): counters add (bcc.net.frames_sent across
/// the fleet is the sum of everyone's), histograms merge bucket-wise (exact;
/// exemplar slots keep the freshest), and each gauge merges by the GaugeAgg
/// hint it was registered under — kMax for worst-observed (staleness,
/// suspicion, queue depth, the historical default), kSum for additive
/// occupancy, kLast for node-local scalars, kMean for ratios and rates (a
/// max over cache_hit_ratio would report the luckiest node). Nodes
/// disagreeing on a hint (skewed binaries) resolve first-seen-wins.
RegistrySnapshot merge_fleet_metrics(const std::vector<NodeTelemetry>& fleet);

/// Fuses the fleet's profiler summaries into one folded-stack list (counts
/// added per identical stack), sorted hottest first — what `bcc collect`
/// prints and the flamegraph artifact is built from.
std::vector<std::pair<std::string, std::uint64_t>> merge_fleet_profiles(
    const std::vector<NodeTelemetry>& fleet);

/// Per-entry clock offsets in microseconds, aligned with `fleet` by index:
/// adding offsets[i] to entry i's wall timestamps maps them onto entry 0's
/// clock (offsets[0] == 0). Estimated from matched send/receive span pairs
/// as described in the file comment; an entry with no (transitive)
/// exchange path to the reference keeps offset 0 — its lane still renders,
/// just unaligned.
std::vector<double> estimate_clock_offsets(
    const std::vector<NodeTelemetry>& fleet);

/// The merged fleet timeline (Chrome trace-event JSON for ui.perfetto.dev):
/// pid = real OS pid, one lane per process (named "node N (pid P)", with a
/// "[flight]" suffix for crash-recovered entries), ts = wall time shifted
/// by the entry's clock offset and rebased so the earliest span starts at
/// 0, and every remote-parented span whose sender span exists anywhere in
/// the fleet gets a cross-process flow arrow — including senders that only
/// survive in a dead node's flight ring, which is the crash-forensics
/// payoff. `offsets_us` must come from estimate_clock_offsets (or be
/// empty, meaning all zero).
std::string fleet_chrome_trace_json(const std::vector<NodeTelemetry>& fleet,
                                    const std::vector<double>& offsets_us);

/// Converts a crash-recovered flight ring into a fleet entry (recovered =
/// true; decodes the metrics blob when present and untorn).
NodeTelemetry telemetry_from_flight(FlightData&& flight);

/// Scans `dir` for `*.flight` files and appends, as recovered entries,
/// those whose node id is absent from `*fleet` — the nodes the live scrape
/// missed because they were dead. Returns how many were added. Unreadable
/// or foreign files are skipped.
std::size_t augment_missing_from_flight(const std::string& dir,
                                        std::vector<NodeTelemetry>* fleet);

}  // namespace bcc::obs
