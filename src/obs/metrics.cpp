#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "common/assert.h"

namespace bcc::obs {

bool valid_metric_name(std::string_view name) {
  // bcc.<module>.<metric>: >= 3 segments, each nonempty over [a-z0-9_].
  std::size_t segments = 0;
  std::size_t seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;
  ++segments;
  return segments >= 3 && name.substr(0, 4) == "bcc.";
}

std::size_t Counter::stripe_index() noexcept {
  // Threads grab consecutive stripe ids on first use; with kStripes a power
  // of two this spreads any number of threads evenly.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx % kStripes;
}

void Histogram::record(std::uint64_t v) noexcept {
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen && !max_.compare_exchange_weak(seen, v,
                                                 std::memory_order_relaxed)) {
  }
}

void Histogram::record_with_exemplar(std::uint64_t v,
                                     std::uint64_t trace_id) noexcept {
  record(v);
  if (trace_id == 0) return;  // tracing off: plain-record cost
  const std::size_t bucket = std::bit_width(v);
  const auto wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  std::lock_guard<std::mutex> lock(exemplar_mutexes_[bucket % kExemplarStripes]);
  exemplars_[bucket] = Exemplar{trace_id, v, wall_us};
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot s;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  // count is derived from the copied buckets (not a separate atomic) so the
  // snapshot's quantile walk and its count can never disagree.
  s.count = 0;
  for (std::uint64_t b : s.buckets) s.count += b;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  // One stripe lock per stripe (not per bucket): slots in a stripe are
  // copied together, concurrent recorders into other stripes never wait.
  for (std::size_t stripe = 0; stripe < kExemplarStripes; ++stripe) {
    std::lock_guard<std::mutex> lock(exemplar_mutexes_[stripe]);
    for (std::size_t i = stripe; i < kBuckets; i += kExemplarStripes) {
      s.exemplars[i] = exemplars_[i];
    }
  }
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (std::size_t stripe = 0; stripe < kExemplarStripes; ++stripe) {
    std::lock_guard<std::mutex> lock(exemplar_mutexes_[stripe]);
    for (std::size_t i = stripe; i < kBuckets; i += kExemplarStripes) {
      exemplars_[i] = Exemplar{};
    }
  }
}

std::uint64_t Histogram::Snapshot::quantile(double p) const {
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank && buckets[i] > 0) {
      return std::min(bucket_upper(i), max);
    }
  }
  return max;
}

void Histogram::Snapshot::merge_from(const Snapshot& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  // Overwrite-latest per slot, fleet-wide: the freshest exemplar wins (both
  // sides stamp with their own steady clock — close enough for "recent").
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const Exemplar& theirs = other.exemplars[i];
    if (theirs.valid() &&
        (!exemplars[i].valid() || theirs.wall_us > exemplars[i].wall_us)) {
      exemplars[i] = theirs;
    }
  }
}

const Exemplar* Histogram::Snapshot::exemplar_near(double p) const {
  if (count == 0) return nullptr;
  // Same walk as quantile(): find the bucket holding the p-th sample.
  const auto rank = static_cast<std::uint64_t>(std::ceil(
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count)));
  std::size_t target = kBuckets - 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank && buckets[i] > 0) {
      target = i;
      break;
    }
  }
  if (exemplars[target].valid()) return &exemplars[target];
  for (std::size_t i = target; i-- > 0;) {
    if (exemplars[i].valid()) return &exemplars[i];
  }
  for (std::size_t i = target + 1; i < kBuckets; ++i) {
    if (exemplars[i].valid()) return &exemplars[i];
  }
  return nullptr;
}

std::uint64_t RegistrySnapshot::counter_value(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double RegistrySnapshot::gauge_value(std::string_view name) const {
  for (const GaugeEntry& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

GaugeAgg RegistrySnapshot::gauge_agg(std::string_view name) const {
  for (const GaugeEntry& g : gauges) {
    if (g.name == name) return g.agg;
  }
  return GaugeAgg::kMax;
}

const Histogram::Snapshot* RegistrySnapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

void Registry::check_new_name(std::string_view name) const {
  BCC_REQUIRE(valid_metric_name(name));
  // A name is bound to one instrument kind for the registry's lifetime.
  BCC_REQUIRE(counters_.find(name) == counters_.end() &&
              gauges_.find(name) == gauges_.end() &&
              histograms_.find(name) == histograms_.end());
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    check_new_name(name);
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_new_name(name);
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name, GaugeAgg agg) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_new_name(name);
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    it->second->agg_ = agg;
  } else {
    // Two sites disagreeing about the merge policy is a bug, not a
    // preference — same spirit as the name-to-kind binding above.
    BCC_REQUIRE(it->second->agg_ == agg);
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    check_new_name(name);
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

RegistrySnapshot merge_snapshots(
    std::span<const RegistrySnapshot* const> parts) {
  struct GaugeAccum {
    GaugeAgg agg = GaugeAgg::kMax;
    double value = 0.0;
    double sum = 0.0;
    std::uint64_t n = 0;
  };
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, GaugeAccum, std::less<>> gauges;
  std::map<std::string, Histogram::Snapshot, std::less<>> histograms;
  for (const RegistrySnapshot* part : parts) {
    for (const auto& [name, v] : part->counters) counters[name] += v;
    for (const RegistrySnapshot::GaugeEntry& g : part->gauges) {
      auto [it, inserted] =
          gauges.emplace(g.name, GaugeAccum{g.agg, g.value, g.value, 1});
      if (inserted) continue;
      GaugeAccum& a = it->second;
      switch (a.agg) {
        case GaugeAgg::kMax: a.value = std::max(a.value, g.value); break;
        case GaugeAgg::kSum: a.value += g.value; break;
        case GaugeAgg::kLast: a.value = g.value; break;
        case GaugeAgg::kMean: break;  // resolved from sum/n below
      }
      a.sum += g.value;
      ++a.n;
    }
    for (const auto& [name, h] : part->histograms) {
      histograms[name].merge_from(h);
    }
  }
  RegistrySnapshot out;  // maps iterate name-sorted, matching Registry
  out.counters.assign(counters.begin(), counters.end());
  out.gauges.reserve(gauges.size());
  for (const auto& [name, a] : gauges) {
    const double v = a.agg == GaugeAgg::kMean && a.n > 0
                         ? a.sum / static_cast<double>(a.n)
                         : a.value;
    out.gauges.push_back({name, v, a.agg});
  }
  out.histograms.assign(histograms.begin(), histograms.end());
  return out;
}

void LazyCounter::add(std::uint64_t n) {
  Counter* c = counter_.load(std::memory_order_acquire);
  if (c == nullptr) {
    // Racing first adds all get the same instrument (get-or-create).
    c = &registry_->counter(name_);
    counter_.store(c, std::memory_order_release);
  }
  c->add(n);
}

LazyCounter Registry::lazy_counter(std::string_view name) {
  BCC_REQUIRE(valid_metric_name(name));
  return LazyCounter(this, name);
}

Registry::Registry(Registry& parent) : parent_(&parent) {
  std::lock_guard<std::mutex> lock(parent.mutex_);
  parent.children_.push_back(this);
}

Registry::~Registry() {
  if (parent_ != nullptr) parent_->retire(*this, /*detach=*/true);
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g->value(), g->agg()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h->snapshot());
  }
  if (children_.empty() && retired_.empty()) return s;
  std::vector<RegistrySnapshot> live;
  live.reserve(children_.size());
  for (const Registry* child : children_) live.push_back(child->snapshot());
  std::vector<const RegistrySnapshot*> parts = {&s, &retired_};
  for (const RegistrySnapshot& c : live) parts.push_back(&c);
  return merge_snapshots(parts);
}

void Registry::reset() {
  if (parent_ != nullptr) {
    parent_->retire(*this, /*detach=*/false);
  } else {
    zero();
  }
}

void Registry::zero() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  retired_ = RegistrySnapshot{};
}

void Registry::retire(Registry& child, bool detach) {
  std::lock_guard<std::mutex> lock(mutex_);
  const RegistrySnapshot values = child.snapshot();
  const RegistrySnapshot* parts[] = {&retired_, &values};
  retired_ = merge_snapshots(parts);
  if (detach) {
    children_.erase(std::find(children_.begin(), children_.end(), &child));
  } else {
    child.zero();
  }
}

Registry& Registry::global() {
  // Leaked on purpose: instrumentation sites cache references and may fire
  // from static destructors; the registry must outlive everything.
  static Registry* instance = new Registry();
  return *instance;
}

}  // namespace bcc::obs
