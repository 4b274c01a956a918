// Shared plumbing of the end-to-end benchmark: run arguments, clocks,
// percentiles, the outcome tally, the result line, the in-memory span
// recorder of the traced run, and the world every workload starts from.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/bandwidth_classes.h"
#include "common/rng.h"
#include "core/query.h"
#include "data/planetlab_synth.h"
#include "tree/embedder.h"

namespace perfbench {

using bcc::NodeId;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Where the traced run writes its spans, relative to the checkout root.
inline constexpr const char* kTraceDir = ".bench_build/traces";

// ---------------------------------------------------------------- clocks --

double wall_s();          ///< steady clock, seconds
double thread_cpu_s();    ///< CPU time of the calling thread
double peak_rss_mb();     ///< ru_maxrss in MiB

/// Linear-interpolated percentile (p in [0, 100]) of the samples; 0 if empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
double mean(const std::vector<double>& v);

// --------------------------------------------------------------- outcome --

/// Counts operations and failed checks. Thread-safe; the first few failure
/// messages go to stderr so a failed run says what broke.
class Tally {
 public:
  /// One operation and the verdict of its check: empty = passed, else
  /// what was wrong with its output.
  void record(const std::string& failure);
  /// Adds the counts of another tally (whose failures it already reported).
  void add(const Tally& other);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<int> reported_{0};
};

/// What a workload hands back: its tally and every metric it measured.
struct Result {
  Tally tally;
  std::map<std::string, double> metrics;
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// What a check run in a child process hands back: one verdict per
/// operation it checked (empty = passed, else what was wrong with it), and
/// any figures the caller needs from it.
struct ChildReport {
  std::vector<std::string> verdicts;
  std::vector<std::uint64_t> values;
};

/// Runs `check` in a forked child process and returns what it reported, so
/// the memory a heavy check takes (a reference fixpoint, the oracle's dense
/// matrices, canonical dumps) stays out of this process's ru_maxrss, which
/// peak_rss_mb reports. The child sees this process's memory as it was at
/// the fork; it may read state this thread owns, must not touch objects
/// other threads are using (nor stdio), and ends with _exit. Throws if the
/// child fails to report.
ChildReport run_in_child(const std::function<void(ChildReport&)>& check);

/// Records every verdict of a child's report.
void record_all(const ChildReport& report, Tally& tally);

/// A hash of a canonical state string, for comparing states across
/// children (the same binary computes every hash).
std::uint64_t state_hash(const std::string& state);

// ---------------------------------------------------------------- traces --

/// One recorded span: [start_ns, end_ns) on the steady clock. `trace` is
/// the id of the root span of its request (spans of one request share it).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t trace = 0;
  const char* name = "";     ///< "<layer>.<call>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  std::uint32_t weight = 1;  ///< requests this span stands for (sampling)
};

/// Process-wide span recorder. Off by default; spans are kept in memory in
/// per-thread buffers and collected once, at the end of the run.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// A finished child span of the calling thread's current span, with
  /// times taken elsewhere (used for stages the program itself timed).
  static void record_child(const char* name, std::int64_t start_ns,
                           std::int64_t end_ns);
  static std::vector<SpanRecord> collect();
  static std::int64_t now_ns();

 private:
  friend class Span;
  static std::atomic<bool> enabled_;
};

/// RAII span around one call into a layer; does nothing while tracing is off
/// or when `sampled` is false. A sampled request that stands for `weight`
/// requests records that weight; its child spans inherit it.
class Span {
 public:
  explicit Span(const char* name, bool sampled = true,
                std::uint32_t weight = 1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool active_ = false;
};

/// Self time per layer (ms): each span's duration minus the part its
/// children cover, times its weight, summed by the layer prefix of the name.
std::map<std::string, double> layer_self_ms(const std::vector<SpanRecord>& s);
/// Writes the spans as JSON lines; returns false if the file can't be made.
bool write_spans(const std::vector<SpanRecord>& spans, const std::string& path);

// ---------------------------------------------------------------- rounds --

/// Every workload measures in this many rounds of the same operations, each
/// from a fresh set-up (serve-stream: at least this many, as many as fill
/// the run). Query figures are those of the best round; upkeep
/// figures take each upkeep item (the n-th upkeep of a round: the same
/// work in every round) at the best of its replays; setup_s is the median
/// of the set-ups. The host this was tuned on runs the same work up to 50%
/// slower for stretches of seconds; the best replay is the one least
/// disturbed by other tenants.
inline constexpr int kRounds = 3;

/// The best of the rounds' figures: the lowest, or the highest when
/// `higher_is_better`.
template <typename Round, typename Figure>
double best_of(const std::vector<Round>& rounds, Figure figure,
               bool higher_is_better = false) {
  double best = figure(rounds.front());
  for (const Round& r : rounds) {
    const double v = figure(r);
    best = higher_is_better ? std::max(best, v) : std::min(best, v);
  }
  return best;
}

/// Item by item, the best (lowest) of the rounds' replays, over the items
/// every round reached: `items(round)` is one round's per-item figures.
template <typename Round, typename Items>
std::vector<double> best_replays(const std::vector<Round>& rounds,
                                 Items items) {
  std::vector<double> best = items(rounds.front());
  for (const Round& r : rounds) {
    const std::vector<double>& v = items(r);
    best.resize(std::min(best.size(), v.size()));
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], v[i]);
    }
  }
  return best;
}

// ----------------------------------------------------------------- world --

/// The class grid of every workload: 10..200 Mbps in steps of 10.
bcc::BandwidthClasses class_grid(double c);

/// Seed of the fixed worlds. A workload's measurements and embedding (and
/// serve-stream's bandwidth trace, overlay-steady's gossip schedule) are
/// fixed, like the measured PlanetLab datasets the paper evaluates on;
/// --seed drives the queries asked of that world. Seed 7 is the world of
/// the ROADMAP baseline table.
inline constexpr std::uint64_t kDatasetSeed = 7;

/// Synthetic PlanetLab-like measurements for n hosts, drawn from `rng`.
bcc::SynthDataset synth_world(std::size_t n, bcc::Rng& rng);

/// A uniform sample of at most `cap` of the values offered (Algorithm R),
/// so a loop of millions of operations keeps bounded memory.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::size_t cap) : cap_(cap) {}
  void add(const T& value, bcc::Rng& rng) {
    if (kept_.size() < cap_) {
      kept_.push_back(value);
    } else if (const std::uint64_t j = rng.below(seen_ + 1); j < cap_) {
      kept_[j] = value;
    }
    ++seen_;
  }
  const std::vector<T>& kept() const { return kept_; }
  std::size_t seen() const { return seen_; }

 private:
  std::size_t cap_;
  std::size_t seen_ = 0;
  std::vector<T> kept_;
};

/// One query of the closed loops: a random start, a bandwidth in [10, 100]
/// Mbps, and a k on either side of M(l) (`best`) at the snapped class.
bcc::QueryRequest cold_query(bcc::Rng& rng, std::size_t n,
                             const bcc::BandwidthClasses& classes,
                             const std::vector<std::size_t>& best);

}  // namespace perfbench
