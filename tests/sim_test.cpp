#include "sim/engine.h"

#include <gtest/gtest.h>

#include "common/assert.h"
#include "obs/metrics.h"

namespace bcc {
namespace {

/// Counts its own executions; converges after `limit` cycles.
class CountingProtocol : public Protocol {
 public:
  explicit CountingProtocol(std::size_t limit) : limit_(limit) {}
  void execute_cycle(std::size_t cycle) override {
    last_cycle_ = cycle;
    ++executions_;
  }
  bool converged() const override { return executions_ >= limit_; }
  std::string name() const override { return "counting"; }

  std::size_t executions() const { return executions_; }
  std::size_t last_cycle() const { return last_cycle_; }

 private:
  std::size_t limit_;
  std::size_t executions_ = 0;
  std::size_t last_cycle_ = 0;
};

TEST(Engine, RunsUntilAllProtocolsConverge) {
  Engine e;
  auto fast = std::make_shared<CountingProtocol>(2);
  auto slow = std::make_shared<CountingProtocol>(5);
  e.add_protocol(fast);
  e.add_protocol(slow);
  EXPECT_EQ(e.run(100), 5u);
  // Converged protocols keep executing until the whole engine stops
  // (synchronous cycles step everything).
  EXPECT_EQ(fast->executions(), 5u);
  EXPECT_EQ(slow->executions(), 5u);
}

TEST(Engine, RespectsCycleBudget) {
  Engine e;
  auto p = std::make_shared<CountingProtocol>(1000);
  e.add_protocol(p);
  EXPECT_EQ(e.run(7), 7u);
  EXPECT_EQ(p->executions(), 7u);
}

TEST(Engine, CycleNumbersAreGloballyMonotonic) {
  Engine e;
  auto p = std::make_shared<CountingProtocol>(3);
  e.add_protocol(p);
  e.run(10);
  EXPECT_EQ(p->last_cycle(), 2u);
  // A second run continues the global cycle counter.
  auto q = std::make_shared<CountingProtocol>(2);
  e.add_protocol(q);
  e.run(10);
  EXPECT_EQ(e.cycles_executed(), 5u);
  EXPECT_EQ(q->last_cycle(), 4u);
}

TEST(Engine, NoProtocolsConvergesInstantly) {
  Engine e;
  EXPECT_EQ(e.run(10), 0u);
}

TEST(Engine, NullProtocolRejected) {
  Engine e;
  EXPECT_THROW(e.add_protocol(nullptr), ContractViolation);
}

TEST(MessageMetrics, RecordsPerCategory) {
  MessageMetrics m;
  m.record("a", 10);
  m.record("a", 5);
  m.record("b", 1);
  EXPECT_EQ(m.messages("a"), 2u);
  EXPECT_EQ(m.bytes("a"), 15u);
  EXPECT_EQ(m.messages("b"), 1u);
  EXPECT_EQ(m.total_messages(), 3u);
  EXPECT_EQ(m.total_bytes(), 16u);
}

TEST(MessageMetrics, UnknownCategoryIsZero) {
  MessageMetrics m;
  EXPECT_EQ(m.messages("nope"), 0u);
  EXPECT_EQ(m.bytes("nope"), 0u);
}

TEST(MessageMetrics, ResetClears) {
  MessageMetrics m;
  m.record("a", 10);
  m.reset();
  EXPECT_EQ(m.total_messages(), 0u);
  EXPECT_EQ(m.total_bytes(), 0u);
}

std::uint64_t global_counter(std::string_view name) {
  return obs::Registry::global().snapshot().counter_value(name);
}

TEST(MessageMetrics, EnginesCountApartAndTheGlobalRegistrySumsThem) {
  const std::uint64_t messages0 = global_counter("bcc.sim.messages");
  const std::uint64_t bytes0 = global_counter("bcc.sim.bytes");
  const std::uint64_t dropped0 = global_counter("bcc.sim.faults_dropped");
  Engine a;
  Engine b;
  a.metrics().record("x", 10);
  b.metrics().record("x", 1);
  b.metrics().record("y", 2);
  b.metrics().count_dropped();
  {
    Engine gone;
    gone.metrics().record("x", 100);
    gone.metrics().count_dropped();
  }
  EXPECT_EQ(a.metrics().total_messages(), 1u);
  EXPECT_EQ(a.metrics().dropped(), 0u);
  EXPECT_EQ(b.metrics().total_messages(), 2u);
  EXPECT_EQ(b.metrics().dropped(), 1u);
  // Live and destroyed engines alike: the global view is the sum.
  EXPECT_EQ(global_counter("bcc.sim.messages") - messages0, 4u);
  EXPECT_EQ(global_counter("bcc.sim.bytes") - bytes0, 113u);
  EXPECT_EQ(global_counter("bcc.sim.faults_dropped") - dropped0, 2u);
  // A reset clears the instance, not the process-lifetime totals.
  b.metrics().reset();
  EXPECT_EQ(b.metrics().total_messages(), 0u);
  EXPECT_EQ(b.metrics().dropped(), 0u);
  EXPECT_EQ(global_counter("bcc.sim.messages") - messages0, 4u);
  EXPECT_EQ(global_counter("bcc.sim.faults_dropped") - dropped0, 2u);
}

TEST(MessageMetrics, MovedInstanceKeepsCountingIntoTheGlobalRegistry) {
  const std::uint64_t messages0 = global_counter("bcc.sim.messages");
  MessageMetrics source;
  source.record("x", 5);
  source.count_retried();
  MessageMetrics moved(std::move(source));
  moved.record("x", 5);
  EXPECT_EQ(moved.messages("x"), 2u);
  EXPECT_EQ(moved.total_bytes(), 10u);
  EXPECT_EQ(moved.retried(), 1u);
  MessageMetrics assigned;
  assigned.record("z", 1);  // folded into the global view when replaced
  assigned = std::move(moved);
  assigned.record("x", 5);
  EXPECT_EQ(assigned.total_messages(), 3u);
  EXPECT_EQ(global_counter("bcc.sim.messages") - messages0, 4u);
}

}  // namespace
}  // namespace bcc
