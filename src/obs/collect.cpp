#include "obs/collect.h"

#include <dirent.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "obs/flight.h"

namespace bcc::obs {

namespace {

// ---- little-endian byte codec (mirrors src/net/frame.cpp's helpers; obs
// cannot include net, and eight lines of codec beat a layering violation).

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}
void put_name(std::vector<std::uint8_t>& out, std::string_view s) {
  const auto len = static_cast<std::uint16_t>(
      std::min<std::size_t>(s.size(), 0xffff));
  put_u16(out, len);
  out.insert(out.end(), s.begin(), s.begin() + len);
}

/// Bounds-checked read cursor: every read checks remaining bytes and trips
/// `ok` on underrun; callers test ok once at the end (and at loop bounds),
/// so a truncated or hostile payload decodes to "false", never past-the-end.
struct Cursor {
  const std::uint8_t* p;
  std::size_t n;
  bool ok = true;

  bool take(std::size_t k) {
    if (!ok || n < k) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    const std::uint8_t v = p[0];
    p += 1;
    n -= 1;
    return v;
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(p[i]) << (8 * i);
    p += 2;
    n -= 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    n -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    n -= 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string name() {
    const std::uint16_t len = u16();
    if (!take(len)) return {};
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    n -= len;
    return s;
  }
};

}  // namespace

std::vector<std::uint8_t> encode_node_metrics(const RegistrySnapshot& s) {
  std::vector<std::uint8_t> out;
  put_u32(out, kTelemetryFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(s.counters.size()));
  for (const auto& [name, v] : s.counters) {
    put_name(out, name);
    put_u64(out, v);
  }
  put_u32(out, static_cast<std::uint32_t>(s.gauges.size()));
  for (const RegistrySnapshot::GaugeEntry& g : s.gauges) {
    put_name(out, g.name);
    put_f64(out, g.value);
    put_u8(out, static_cast<std::uint8_t>(g.agg));
  }
  put_u32(out, static_cast<std::uint32_t>(s.histograms.size()));
  for (const auto& [name, h] : s.histograms) {
    put_name(out, name);
    put_u64(out, h.count);
    put_u64(out, h.sum);
    put_u64(out, h.max);
    std::uint8_t nonzero = 0;
    for (std::uint64_t b : h.buckets) nonzero += b != 0 ? 1 : 0;
    put_u8(out, nonzero);  // sparse: most of the 65 buckets are empty
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      put_u8(out, static_cast<std::uint8_t>(i));
      put_u64(out, h.buckets[i]);
    }
    // Sparse exemplars, same shape as the buckets above.
    std::uint8_t populated = 0;
    for (const Exemplar& e : h.exemplars) populated += e.valid() ? 1 : 0;
    put_u8(out, populated);
    for (std::size_t i = 0; i < h.exemplars.size(); ++i) {
      const Exemplar& e = h.exemplars[i];
      if (!e.valid()) continue;
      put_u8(out, static_cast<std::uint8_t>(i));
      put_u64(out, e.trace_id);
      put_u64(out, e.value);
      put_u64(out, e.wall_us);
    }
  }
  return out;
}

bool decode_node_metrics(const std::uint8_t* data, std::size_t len,
                         RegistrySnapshot* out) {
  *out = RegistrySnapshot{};
  Cursor c{data, len};
  if (c.u32() != kTelemetryFormatVersion) return false;
  const std::uint32_t n_counters = c.u32();
  for (std::uint32_t i = 0; i < n_counters && c.ok; ++i) {
    std::string name = c.name();
    const std::uint64_t v = c.u64();
    out->counters.emplace_back(std::move(name), v);
  }
  const std::uint32_t n_gauges = c.u32();
  for (std::uint32_t i = 0; i < n_gauges && c.ok; ++i) {
    std::string name = c.name();
    const double v = c.f64();
    const std::uint8_t agg = c.u8();
    out->gauges.push_back(
        {std::move(name), v,
         static_cast<GaugeAgg>(agg % kGaugeAggCount)});
  }
  const std::uint32_t n_hists = c.u32();
  for (std::uint32_t i = 0; i < n_hists && c.ok; ++i) {
    std::string name = c.name();
    Histogram::Snapshot h;
    h.count = c.u64();
    h.sum = c.u64();
    h.max = c.u64();
    const std::uint8_t nonzero = c.u8();
    for (std::uint8_t b = 0; b < nonzero && c.ok; ++b) {
      const std::uint8_t idx = c.u8();
      const std::uint64_t v = c.u64();
      if (idx < Histogram::kBuckets) h.buckets[idx] = v;
    }
    const std::uint8_t populated = c.u8();
    for (std::uint8_t b = 0; b < populated && c.ok; ++b) {
      const std::uint8_t idx = c.u8();
      Exemplar e;
      e.trace_id = c.u64();
      e.value = c.u64();
      e.wall_us = c.u64();
      if (idx < Histogram::kBuckets) h.exemplars[idx] = e;
    }
    out->histograms.emplace_back(std::move(name), h);
  }
  if (!c.ok) *out = RegistrySnapshot{};
  return c.ok;
}

std::vector<std::uint8_t> encode_node_telemetry(const NodeTelemetry& t) {
  std::vector<std::uint8_t> out;
  put_u32(out, kTelemetryFormatVersion);
  put_u32(out, t.node);
  put_u32(out, t.pid);
  put_u64(out, t.wall_now_us);
  put_u8(out, t.recovered ? 1 : 0);
  const std::vector<std::uint8_t> metrics = encode_node_metrics(t.metrics);
  put_u32(out, static_cast<std::uint32_t>(metrics.size()));
  out.insert(out.end(), metrics.begin(), metrics.end());
  put_u32(out, static_cast<std::uint32_t>(t.spans.size()));
  for (const SpanRecord& s : t.spans) {
    put_u64(out, s.id);
    put_u64(out, s.parent);
    put_u64(out, s.trace_id);
    put_u64(out, s.wall_begin_us);
    put_u64(out, s.wall_end_us);
    put_f64(out, s.sim_begin);
    put_f64(out, s.sim_end);
    put_u32(out, s.hop);
    put_u32(out, s.node);
    put_u8(out, static_cast<std::uint8_t>(s.category));
    put_u8(out, s.remote_parent ? 1 : 0);
    const std::size_t name_len = std::min<std::size_t>(std::strlen(s.name), 255);
    put_u8(out, static_cast<std::uint8_t>(name_len));
    out.insert(out.end(), s.name, s.name + name_len);
  }
  put_u32(out, static_cast<std::uint32_t>(t.profile.size()));
  for (const auto& [stack, samples] : t.profile) {
    put_name(out, stack);
    put_u64(out, samples);
  }
  return out;
}

bool decode_node_telemetry(const std::uint8_t* data, std::size_t len,
                           NodeTelemetry* out) {
  *out = NodeTelemetry{};
  Cursor c{data, len};
  if (c.u32() != kTelemetryFormatVersion) return false;
  out->node = c.u32();
  out->pid = c.u32();
  out->wall_now_us = c.u64();
  out->recovered = c.u8() != 0;
  const std::uint32_t metrics_len = c.u32();
  if (!c.take(0) || c.n < metrics_len ||
      !decode_node_metrics(c.p, metrics_len, &out->metrics)) {
    *out = NodeTelemetry{};
    return false;
  }
  c.p += metrics_len;
  c.n -= metrics_len;
  const std::uint32_t n_spans = c.u32();
  for (std::uint32_t i = 0; i < n_spans && c.ok; ++i) {
    SpanRecord s;
    s.id = c.u64();
    s.parent = c.u64();
    s.trace_id = c.u64();
    s.wall_begin_us = c.u64();
    s.wall_end_us = c.u64();
    s.sim_begin = c.f64();
    s.sim_end = c.f64();
    s.hop = c.u32();
    s.node = c.u32();
    s.category = static_cast<SpanCategory>(c.u8() % kSpanCategoryCount);
    s.remote_parent = c.u8() != 0;
    const std::uint8_t name_len = c.u8();
    if (!c.take(name_len)) break;
    out->name_pool.emplace_back(reinterpret_cast<const char*>(c.p), name_len);
    s.name = out->name_pool.back().c_str();
    c.p += name_len;
    c.n -= name_len;
    out->spans.push_back(s);
  }
  const std::uint32_t n_profile = c.u32();
  for (std::uint32_t i = 0; i < n_profile && c.ok; ++i) {
    std::string stack = c.name();
    const std::uint64_t samples = c.u64();
    out->profile.emplace_back(std::move(stack), samples);
  }
  if (!c.ok) {
    *out = NodeTelemetry{};
    return false;
  }
  return true;
}

RegistrySnapshot merge_fleet_metrics(
    const std::vector<NodeTelemetry>& fleet) {
  std::vector<const RegistrySnapshot*> parts;
  parts.reserve(fleet.size());
  for (const NodeTelemetry& t : fleet) parts.push_back(&t.metrics);
  return merge_snapshots(parts);
}

std::vector<std::pair<std::string, std::uint64_t>> merge_fleet_profiles(
    const std::vector<NodeTelemetry>& fleet) {
  std::map<std::string, std::uint64_t> by_stack;
  for (const NodeTelemetry& t : fleet) {
    for (const auto& [stack, samples] : t.profile) by_stack[stack] += samples;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out(by_stack.begin(),
                                                         by_stack.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

namespace {

/// Span id -> (fleet index, record), fleet-wide. Ids are unique across
/// processes because the node runtime seeds each tracer's id range
/// (Tracer::seed_ids).
using SpanIndex =
    std::unordered_map<std::uint64_t, std::pair<std::size_t, const SpanRecord*>>;

SpanIndex index_spans(const std::vector<NodeTelemetry>& fleet) {
  SpanIndex by_id;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const SpanRecord& s : fleet[i].spans) by_id[s.id] = {i, &s};
  }
  return by_id;
}

}  // namespace

std::vector<double> estimate_clock_offsets(
    const std::vector<NodeTelemetry>& fleet) {
  std::vector<double> offsets(fleet.size(), 0.0);
  if (fleet.size() < 2) return offsets;
  const SpanIndex by_id = index_spans(fleet);

  // min over matched pairs of (receive begin on j) - (send begin on i),
  // per ordered (i, j): latency-plus-skew with the queueing noise floored
  // away.
  std::map<std::pair<std::size_t, std::size_t>, double> min_delta;
  for (std::size_t j = 0; j < fleet.size(); ++j) {
    for (const SpanRecord& r : fleet[j].spans) {
      if (!r.remote_parent) continue;
      const auto it = by_id.find(r.parent);
      if (it == by_id.end()) continue;
      const std::size_t i = it->second.first;
      if (i == j) continue;
      const double delta = static_cast<double>(r.wall_begin_us) -
                           static_cast<double>(it->second.second->wall_begin_us);
      const auto key = std::make_pair(i, j);
      const auto cur = min_delta.find(key);
      if (cur == min_delta.end() || delta < cur->second) min_delta[key] = delta;
    }
  }

  // Skew edges: d(i, j) = clock_j - clock_i. Bidirectional pairs cancel the
  // symmetric latency; a one-directional pair falls back to the raw minimum
  // (biased by one-way latency — still far better than no alignment).
  std::map<std::size_t, std::vector<std::pair<std::size_t, double>>> edges;
  for (const auto& [key, fwd] : min_delta) {
    const auto [i, j] = key;
    const auto rev = min_delta.find({j, i});
    const double d = rev != min_delta.end() ? (fwd - rev->second) / 2.0 : fwd;
    edges[i].push_back({j, d});
    edges[j].push_back({i, -d});
  }

  // BFS from the reference (entry 0): rel[j] = clock_j - clock_0.
  std::vector<bool> seen(fleet.size(), false);
  std::vector<double> rel(fleet.size(), 0.0);
  std::vector<std::size_t> queue{0};
  seen[0] = true;
  while (!queue.empty()) {
    const std::size_t i = queue.back();
    queue.pop_back();
    const auto it = edges.find(i);
    if (it == edges.end()) continue;
    for (const auto& [j, d] : it->second) {
      if (seen[j]) continue;
      seen[j] = true;
      rel[j] = rel[i] + d;
      queue.push_back(j);
    }
  }
  // Shifting entry j's timestamps by -rel[j] maps them onto entry 0's axis.
  for (std::size_t j = 0; j < fleet.size(); ++j) offsets[j] = -rel[j];
  return offsets;
}

namespace {

std::string fmt_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

std::string fleet_chrome_trace_json(const std::vector<NodeTelemetry>& fleet,
                                    const std::vector<double>& offsets_us) {
  const SpanIndex by_id = index_spans(fleet);
  auto offset_of = [&](std::size_t i) {
    return i < offsets_us.size() ? offsets_us[i] : 0.0;
  };
  // Rebase so the earliest aligned span begins at ts 0 — per-process
  // steady_clock epochs are arbitrary and Perfetto's UI dislikes 2^40 us.
  double t0 = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const SpanRecord& s : fleet[i].spans) {
      const double ts = static_cast<double>(s.wall_begin_us) + offset_of(i);
      if (!any || ts < t0) t0 = ts;
      any = true;
    }
  }
  auto ts_of = [&](const SpanRecord& s, std::size_t i, bool end) {
    return static_cast<double>(end ? s.wall_end_us : s.wall_begin_us) +
           offset_of(i) - t0;
  };

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    out += first ? "\n" : ",\n";
    first = false;
    out += event;
  };

  std::set<std::uint64_t> named_pids;
  for (const NodeTelemetry& t : fleet) {
    if (!named_pids.insert(t.pid).second) continue;
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" + fmt_u64(t.pid) +
         ",\"tid\":0,\"args\":{\"name\":\"node " + fmt_u64(t.node) +
         " (pid " + fmt_u64(t.pid) + ")" +
         (t.recovered ? " [flight]" : "") + "\"}}");
  }

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const NodeTelemetry& t = fleet[i];
    for (const SpanRecord& s : t.spans) {
      const double begin = ts_of(s, i, /*end=*/false);
      const double dur = std::max(0.0, ts_of(s, i, /*end=*/true) - begin);
      emit("{\"ph\":\"X\",\"name\":\"" + std::string(s.name) +
           "\",\"cat\":\"" + to_string(s.category) +
           "\",\"ts\":" + fmt_double(begin) + ",\"dur\":" + fmt_double(dur) +
           ",\"pid\":" + fmt_u64(t.pid) +
           ",\"tid\":" + fmt_u64(static_cast<std::uint64_t>(s.category)) +
           ",\"args\":{\"span\":" + fmt_u64(s.id) +
           ",\"parent\":" + fmt_u64(s.parent) +
           ",\"trace\":" + fmt_u64(s.trace_id) +
           ",\"hop\":" + fmt_u64(s.hop) +
           ",\"node\":" + fmt_u64(s.node) +
           (t.recovered ? ",\"flight\":true" : "") + "}}");
      if (!s.remote_parent) continue;
      const auto sender = by_id.find(s.parent);
      if (sender == by_id.end()) continue;
      const auto [si, sp] = sender->second;
      emit("{\"ph\":\"s\",\"name\":\"causal\",\"cat\":\"trace\",\"id\":" +
           fmt_u64(s.id) +
           ",\"ts\":" + fmt_double(ts_of(*sp, si, /*end=*/false)) +
           ",\"pid\":" + fmt_u64(fleet[si].pid) + ",\"tid\":" +
           fmt_u64(static_cast<std::uint64_t>(sp->category)) + "}");
      emit("{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"causal\",\"cat\":\"trace\","
           "\"id\":" + fmt_u64(s.id) + ",\"ts\":" + fmt_double(begin) +
           ",\"pid\":" + fmt_u64(t.pid) + ",\"tid\":" +
           fmt_u64(static_cast<std::uint64_t>(s.category)) + "}");
    }
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

NodeTelemetry telemetry_from_flight(FlightData&& flight) {
  NodeTelemetry t;
  t.node = flight.node;
  t.pid = flight.pid;
  t.recovered = true;
  t.spans = std::move(flight.spans);
  t.name_pool = std::move(flight.name_pool);
  for (const SpanRecord& s : t.spans) {
    t.wall_now_us = std::max(t.wall_now_us, s.wall_end_us);
  }
  if (!flight.metrics_blob.empty()) {
    // Torn or undecodable metrics leave an empty registry — the spans are
    // the forensic payload; metrics are best-effort.
    decode_node_metrics(flight.metrics_blob.data(), flight.metrics_blob.size(),
                        &t.metrics);
  }
  return t;
}

std::size_t augment_missing_from_flight(const std::string& dir,
                                        std::vector<NodeTelemetry>* fleet) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::set<std::uint32_t> live;
  for (const NodeTelemetry& t : *fleet) live.insert(t.node);
  std::vector<std::string> files;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    constexpr std::string_view kSuffix = ".flight";
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) == 0) {
      files.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());  // deterministic merge order

  std::size_t added = 0;
  for (const std::string& path : files) {
    FlightData data;
    if (!read_flight_file(path, &data)) continue;
    if (!live.insert(data.node).second) continue;  // scraped live already
    fleet->push_back(telemetry_from_flight(std::move(data)));
    ++added;
  }
  return added;
}

}  // namespace bcc::obs
