// The metrics half of the observability substrate (src/obs): a thread-safe
// registry of named counters, gauges, and log-bucketed histograms that every
// layer (sim/, core/, serve/, tree/, bench/) records into, and that the
// exporters (obs/export.h) turn into Prometheus text or JSON.
//
// Hot-path cost model:
//   * Counter::add is a single relaxed fetch_add on a cache-line-padded
//     stripe chosen by thread (shard-per-thread, like the serve memo cache's
//     shards) — concurrent writers never touch the same line.
//   * Histogram::record is one relaxed fetch_add on a power-of-two bucket
//     plus count/sum updates — no locks, no allocation.
//   * Registry lookup (counter()/gauge()/histogram()) takes a mutex; callers
//     on hot paths cache the returned reference (instruments are never
//     destroyed or moved while the registry lives, so references stay valid
//     forever — reset() zeroes values but keeps registrations).
//
// Naming convention (enforced here and by tools/check_metrics_names.sh):
// `bcc.<module>.<metric>` — lowercase [a-z0-9_] segments, at least three,
// e.g. `bcc.serve.query_micros`, `bcc.sim.faults_dropped`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bcc::obs {

/// True iff `name` follows the `bcc.<module>.<metric>` convention.
bool valid_metric_name(std::string_view name);

/// How a fleet merge (obs/collect.h merge_fleet_metrics) should fuse one
/// gauge across processes. Declared at registration — the metric's author
/// knows whether "worst observed", "fleet total", or "average" is the
/// honest aggregate; a blanket policy is wrong for somebody (max turns an
/// 8-node cache_hit_ratio into the luckiest node's ratio).
enum class GaugeAgg : std::uint8_t {
  kMax = 0,   ///< worst-observed: staleness, suspicion, queue depth
  kSum = 1,   ///< additive occupancy/capacity: in-flight queries, slots
  kLast = 2,  ///< node-local scalar where fusing is meaningless; last wins
  kMean = 3,  ///< ratios and rates: unweighted mean across processes
};
inline constexpr std::size_t kGaugeAggCount = 4;

constexpr const char* to_string(GaugeAgg agg) {
  switch (agg) {
    case GaugeAgg::kMax: return "max";
    case GaugeAgg::kSum: return "sum";
    case GaugeAgg::kLast: return "last";
    case GaugeAgg::kMean: return "mean";
  }
  return "?";
}

/// Monotonic counter. Adds go to one of kStripes cache-line-padded atomic
/// cells selected per thread; value() sums the stripes (reads may miss
/// concurrent in-flight adds, which is what a counter read is allowed to do).
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::uint64_t n = 1) noexcept {
    cells_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t stripe_index() noexcept;
  std::array<Cell, kStripes> cells_{};
};

/// Last-written-wins instantaneous value (double). Carries its fleet
/// aggregation hint (immutable after registration — see Registry::gauge).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  GaugeAgg agg() const noexcept { return agg_; }
  void reset() noexcept { set(0.0); }

 private:
  friend class Registry;
  std::atomic<double> value_{0.0};
  GaugeAgg agg_ = GaugeAgg::kMax;
};

/// OpenMetrics-style exemplar: one recent sample that landed in a histogram
/// bucket, tagged with the trace id active when it was recorded — the join
/// key from "the p99 is X" to "and THIS query's span chain shows why".
/// trace_id == 0 means the slot is empty (recording with no active trace
/// never writes one, so exemplars cost nothing while tracing is off).
struct Exemplar {
  std::uint64_t trace_id = 0;  ///< 0 = empty slot
  std::uint64_t value = 0;     ///< the recorded sample
  std::uint64_t wall_us = 0;   ///< steady-clock stamp; merges keep latest

  bool valid() const { return trace_id != 0; }
};

/// Log-bucketed histogram of non-negative integer samples (typically
/// microseconds). Bucket i holds samples with bit_width(v) == i, i.e.
/// bucket 0 holds v = 0 and bucket i >= 1 holds [2^(i-1), 2^i - 1]:
/// factor-of-two resolution, fixed memory, lock-free recording.
class Histogram {
 public:
  /// bit_width of a uint64 is at most 64.
  static constexpr std::size_t kBuckets = 65;
  /// Exemplar slots share kExemplarStripes mutexes (bucket % stripes):
  /// concurrent recorders into *different* value ranges never contend, and
  /// the slots stay a fixed 65 * sizeof(Exemplar) bytes per histogram.
  static constexpr std::size_t kExemplarStripes = 8;

  /// Plain-data copy; quantiles are extracted from the copy so a snapshot
  /// is internally consistent even while recording continues.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    /// Per-bucket overwrite-latest exemplars (empty slots have trace_id 0).
    std::array<Exemplar, kBuckets> exemplars{};

    /// Upper bound of the bucket holding the p-th percentile sample
    /// (0 < p <= 100), capped by the observed max — accurate to the
    /// bucket's factor-of-two width, 0 when empty. For any recorded
    /// distribution: exact_quantile <= quantile(p) <= 2 * exact_quantile
    /// (with equality at 0).
    std::uint64_t quantile(double p) const;
    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Inclusive upper bound of bucket i (2^i - 1; bucket 0 -> 0).
    static std::uint64_t bucket_upper(std::size_t i) {
      return i == 0 ? 0
             : i >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << i) - 1;
    }

    /// Folds `other` into this snapshot bucket-by-bucket. Because buckets
    /// are value-range-aligned (bucket i always means bit_width == i), the
    /// merge is exact: merging snapshots of two sample streams yields the
    /// same snapshot as recording the concatenated stream, so merge is
    /// associative and commutative and merged quantiles keep the
    /// `exact <= est <= min(2*exact, max)` contract (ObsHistogram property
    /// tests pin this). This is what the fleet collector uses to fuse
    /// per-process histograms into one distribution.
    void merge_from(const Snapshot& other);

    /// The exemplar behind quantile(p): the slot of the bucket the p-th
    /// percentile sample falls in, falling back to the nearest populated
    /// slot below it, then above it (an exemplar from an adjacent bucket is
    /// still "a query from that latency neighborhood"). nullptr when no
    /// slot anywhere holds one (tracing was off for every recorded sample).
    const Exemplar* exemplar_near(double p) const;
  };

  void record(std::uint64_t v) noexcept;
  /// record(v), plus — when `trace_id` is nonzero — overwriting the value
  /// bucket's exemplar slot under its stripe lock. Callers pass the current
  /// span's trace id unconditionally: id 0 (tracing off) takes the plain
  /// record path, so the disabled-path cost is one compare.
  void record_with_exemplar(std::uint64_t v, std::uint64_t trace_id) noexcept;
  Snapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  mutable std::array<std::mutex, kExemplarStripes> exemplar_mutexes_;
  std::array<Exemplar, kBuckets> exemplars_{};  // slot i guarded by stripe i%8
};

/// Everything a registry knew at one instant, as plain data (see
/// Registry::snapshot). Vectors are sorted by name.
struct RegistrySnapshot {
  /// One gauge at snapshot time, with the aggregation hint it was
  /// registered under (the hint rides the telemetry codec so the fleet
  /// collector merges by the author's policy, not a blanket one).
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
    GaugeAgg agg = GaugeAgg::kMax;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

  /// Lookup helpers (0 / empty snapshot when absent).
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  GaugeAgg gauge_agg(std::string_view name) const;
  const Histogram::Snapshot* histogram(std::string_view name) const;
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Fuses snapshots into one: counters sum, histograms merge bucket-wise
/// (exact, see Histogram::Snapshot::merge_from), and gauges follow the
/// GaugeAgg hint they were registered under (the first part to carry a
/// gauge decides its hint; kMean averages over the parts that carry it).
/// The one merge behind both a registry's children (Registry::snapshot)
/// and a fleet of processes (obs/collect.h merge_fleet_metrics).
RegistrySnapshot merge_snapshots(
    std::span<const RegistrySnapshot* const> parts);

class Registry;

/// A counter that registers itself on its first add(), so its name shows up
/// in exports once its event has happened rather than at zero from the
/// start (rare outcomes: shed queries, argument errors). Made by
/// Registry::lazy_counter; costs one acquire load over Counter::add.
class LazyCounter {
 public:
  void add(std::uint64_t n = 1);
  std::uint64_t value() const noexcept {
    const Counter* c = counter_.load(std::memory_order_acquire);
    return c == nullptr ? 0 : c->value();
  }

 private:
  friend class Registry;
  LazyCounter(Registry* registry, std::string_view name)
      : registry_(registry), name_(name) {}
  Registry* registry_;
  std::string_view name_;  // a literal (static storage)
  std::atomic<Counter*> counter_{nullptr};
};

/// Named instrument registry. get-or-create accessors validate the naming
/// convention (BCC_REQUIRE) and return references that stay valid for the
/// registry's lifetime; a name is permanently bound to its first kind
/// (re-registering `bcc.x.y` as a different kind throws).
///
/// Registries form a tree. A component (one QueryService, one simulation's
/// MessageMetrics) records into its own registry attached to global(), so
/// it can read back exactly its own counts, while global().snapshot() still
/// reports every name summed over all components. When a component
/// registry is reset or destroyed, its values fold into the parent first:
/// the parent's view stays cumulative over the process lifetime.
class Registry {
 public:
  Registry() = default;
  /// A component registry attached to `parent`, which must outlive it.
  explicit Registry(Registry& parent);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  /// Get-or-create. The aggregation hint is bound at first registration
  /// (default kMax — the historical "worst observed" policy); a later call
  /// passing a *different* explicit hint throws, because two sites
  /// disagreeing about what a fleet merge means is a bug, not a preference.
  /// The hint-less overload accepts whatever is already registered.
  Gauge& gauge(std::string_view name);
  Gauge& gauge(std::string_view name, GaugeAgg agg);
  Histogram& histogram(std::string_view name);
  /// A counter registered under `name` (a string literal) on first add().
  LazyCounter lazy_counter(std::string_view name);

  /// Coherent-enough copy of every instrument for exporters and tests: this
  /// registry's own, merged (merge_snapshots) with its live children's and
  /// with what retired children left behind.
  RegistrySnapshot snapshot() const;

  /// Zeroes this registry's values; registrations (and outstanding
  /// references) survive. An attached registry first folds its values into
  /// its parent. Live children keep theirs.
  void reset();

  /// The process-wide default registry every built-in instrumentation site
  /// records into, and the parent of every component registry.
  static Registry& global();

 private:
  template <typename T>
  using NamedMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  void check_new_name(std::string_view name) const;  // callers hold mutex_
  /// Zeroes own instruments and clears retired_.
  void zero();
  /// Folds `child`'s values into retired_, then detaches the child (it is
  /// being destroyed) or zeroes it (it is being reset) — under mutex_, so
  /// no snapshot of this registry counts those values twice or not at all.
  void retire(Registry& child, bool detach);

  Registry* const parent_ = nullptr;
  mutable std::mutex mutex_;  // lock order: a parent's before its child's
  NamedMap<Counter> counters_;      // guarded by mutex_ (map structure only;
  NamedMap<Gauge> gauges_;          //  instrument values are atomic)
  NamedMap<Histogram> histograms_;  // ditto
  std::vector<Registry*> children_;  // guarded by mutex_
  RegistrySnapshot retired_;         // guarded by mutex_
};

}  // namespace bcc::obs
