#include "sim/metrics.h"

namespace bcc {

MessageMetrics::MessageMetrics()
    : registry_(std::make_unique<obs::Registry>(obs::Registry::global())),
      // Registered up front, so exports list the traffic/fault counters (at
      // 0) as soon as any simulation exists, not only after the first fault.
      messages_(&registry_->counter("bcc.sim.messages")),
      bytes_(&registry_->counter("bcc.sim.bytes")),
      dropped_(&registry_->counter("bcc.sim.faults_dropped")),
      duplicated_(&registry_->counter("bcc.sim.faults_duplicated")),
      retried_(&registry_->counter("bcc.sim.faults_retried")),
      suspected_(&registry_->counter("bcc.sim.faults_suspected")) {}

void MessageMetrics::record(std::string_view category, std::size_t bytes) {
  auto it = categories_.find(category);
  if (it == categories_.end()) {
    it = categories_.emplace(std::string(category), Tally{}).first;
  }
  ++it->second.messages;
  it->second.bytes += bytes;
  messages_->add(1);
  bytes_->add(bytes);
}

std::size_t MessageMetrics::messages(std::string_view category) const {
  auto it = categories_.find(category);
  return it == categories_.end() ? 0 : it->second.messages;
}

std::size_t MessageMetrics::bytes(std::string_view category) const {
  auto it = categories_.find(category);
  return it == categories_.end() ? 0 : it->second.bytes;
}

void MessageMetrics::reset() {
  categories_.clear();
  registry_->reset();
}

}  // namespace bcc
