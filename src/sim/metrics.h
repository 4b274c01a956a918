// Message accounting for the simulated protocols: how many messages and
// bytes the decentralized mechanisms exchange (used by the n_cut ablation —
// the paper's §III.B.2 claims the n_cut limit "controls a messaging workload
// in a distributed system", which the ablation quantifies).
//
// Categories are taken as std::string_view and looked up through a
// transparent comparator, so the per-message hot path (record() runs for
// every simulated message of every gossip cycle) allocates a std::string
// only the first time a category is seen, never per message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace bcc {

/// Per-category message/byte counts, plus fault-event counters filled in
/// by the fault-injection layer (sim/fault.h) and the resilient gossip path
/// (core/async_overlay): messages dropped by the lossy channel or a crashed
/// receiver, duplicated deliveries, sender retries after ack timeouts, and
/// peers marked suspected after consecutive missed acks.
///
/// Totals and faults are counted once, in this instance's own obs::Registry
/// (`bcc.sim.messages`, `bcc.sim.bytes`, `bcc.sim.faults_*`), which is
/// attached to obs::Registry::global(): exporters see every simulation's
/// traffic summed, including simulations already destroyed. Movable (the
/// registry is held by pointer, so its attachment survives the move).
class MessageMetrics {
 public:
  MessageMetrics();

  /// Records one message of `bytes` payload under `category`.
  void record(std::string_view category, std::size_t bytes);

  std::size_t messages(std::string_view category) const;
  std::size_t bytes(std::string_view category) const;

  std::size_t total_messages() const { return value(*messages_); }
  std::size_t total_bytes() const { return value(*bytes_); }

  // -- Fault events (see class comment).
  void count_dropped() { dropped_->add(1); }
  void count_duplicated() { duplicated_->add(1); }
  void count_retried() { retried_->add(1); }
  void count_suspected() { suspected_->add(1); }

  std::size_t dropped() const { return value(*dropped_); }
  std::size_t duplicated() const { return value(*duplicated_); }
  std::size_t retried() const { return value(*retried_); }
  std::size_t suspected() const { return value(*suspected_); }

  /// Resets this instance's counts (the global registry keeps them: they
  /// are folded into it first).
  void reset();

 private:
  static std::size_t value(const obs::Counter& c) {
    return static_cast<std::size_t>(c.value());
  }

  struct Tally {
    std::size_t messages = 0;
    std::size_t bytes = 0;
  };
  // std::less<> enables heterogeneous find with string_view keys.
  std::map<std::string, Tally, std::less<>> categories_;
  std::unique_ptr<obs::Registry> registry_;
  obs::Counter* messages_;  // instruments owned by *registry_
  obs::Counter* bytes_;
  obs::Counter* dropped_;
  obs::Counter* duplicated_;
  obs::Counter* retried_;
  obs::Counter* suspected_;
};

}  // namespace bcc
