// Tests for the DHT pre-fetch plane exercised through small sessions:
// backup placement, Algorithm 2 end-to-end, alpha adaptation events and
// the prefetch/traffic counters.

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/session.hpp"
#include "net/message.hpp"
#include "trace/generator.hpp"

namespace continu::core {
namespace {

trace::TraceSnapshot small_trace(std::size_t n, std::uint64_t seed) {
  trace::GeneratorConfig config;
  config.node_count = n;
  config.seed = seed;
  return trace::generate_snapshot(config);
}

SystemConfig small_config(std::uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  return config;
}

TEST(Prefetch, SessionLaunchesPrefetches) {
  const auto snapshot = small_trace(120, 1);
  auto config = small_config(7);
  Session session(config, snapshot);
  session.run(30.0);
  // In a bandwidth-constrained gossip system some segments are always
  // predicted missed — Algorithm 2 must have fired.
  EXPECT_GT(session.stats().prefetch_launched, 0u);
  // And mostly succeeded (k = 4 replicas, failure ~ 2^-4 plus churnless
  // routing).
  EXPECT_GT(session.stats().prefetch_succeeded, 0u);
}

TEST(Prefetch, CoolStreamingNeverPrefetches) {
  const auto snapshot = small_trace(120, 1);
  auto config = small_config(7).as_coolstreaming();
  Session session(config, snapshot);
  session.run(30.0);
  EXPECT_EQ(session.stats().prefetch_launched, 0u);
  EXPECT_EQ(session.traffic().bits(net::TrafficClass::kPrefetch), 0u);
}

TEST(Prefetch, RoutingMessagesCharged) {
  const auto snapshot = small_trace(120, 2);
  auto config = small_config(8);
  Session session(config, snapshot);
  session.run(30.0);
  if (session.stats().prefetch_launched > 0) {
    // Each launch sends k = 4 locate chains; every hop costs 80 bits.
    EXPECT_GT(session.stats().dht_route_messages, 0u);
    EXPECT_GT(session.traffic().bits(net::TrafficClass::kPrefetch), 0u);
  }
}

TEST(Prefetch, BackupStoresPopulate) {
  const auto snapshot = small_trace(120, 3);
  auto config = small_config(9);
  Session session(config, snapshot);
  session.run(20.0);
  std::size_t stored = 0;
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    stored += session.node(i).backup().size();
  }
  // k replicas per live segment spread over the overlay: the aggregate
  // must be substantial.
  EXPECT_GT(stored, 50u);
}

TEST(Prefetch, BackupReplicationBounded) {
  // Responsibility is evaluated at storage time against the node's
  // then-current arc; arcs move as overhearing refines the peer tables,
  // so a retroactive per-segment check is not meaningful. What must
  // hold in aggregate: each emitted segment is backed up a bounded
  // number of times (targets k; arcs can overlap transiently), and no
  // store holds unemitted ids.
  const auto snapshot = small_trace(100, 4);
  auto config = small_config(10);
  Session session(config, snapshot);
  session.run(15.0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    for (const SegmentId id : session.node(i).backup().contents()) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, session.emitted());
      ++total;
    }
  }
  const auto emitted = static_cast<double>(session.emitted());
  EXPECT_GT(static_cast<double>(total), 0.5 * emitted);               // not empty
  EXPECT_LT(static_cast<double>(total),
            3.0 * static_cast<double>(config.backup_replicas) * emitted);
}

TEST(Prefetch, AlphaStaysWithinBounds) {
  const auto snapshot = small_trace(150, 5);
  auto config = small_config(11);
  Session session(config, snapshot);
  session.run(30.0);
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    const auto& line = session.node(i).urgent_line();
    EXPECT_GE(line.alpha(), line.lower_bound() - 1e-12);
    EXPECT_LE(line.alpha(), 1.0 + 1e-12);
  }
}

TEST(Prefetch, AdaptationEventsObserved) {
  const auto snapshot = small_trace(150, 6);
  auto config = small_config(12);
  Session session(config, snapshot);
  session.run(40.0);
  std::uint64_t repeated = 0;
  std::uint64_t overdue = 0;
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    repeated += session.node(i).urgent_line().repeated_events();
    overdue += session.node(i).urgent_line().overdue_events();
  }
  // At least one kind of adaptation signal should appear in a 40 s run
  // with pre-fetch active.
  EXPECT_GT(repeated + overdue, 0u);
}

TEST(Prefetch, SourceHoldsEverythingItEmits) {
  const auto snapshot = small_trace(100, 7);
  auto config = small_config(13);
  Session session(config, snapshot);
  session.run(10.0);
  const auto& source = session.source();
  EXPECT_TRUE(source.is_source());
  // The source inserted every emitted segment still inside its window.
  const SegmentId head = source.buffer().window_head();
  for (SegmentId id = std::max<SegmentId>(head, 0); id < session.emitted(); ++id) {
    EXPECT_TRUE(source.buffer().has(id)) << id;
  }
}

TEST(Prefetch, InflightBookkeepingBounded) {
  // In-flight sets stay bounded by a few rounds' worth of the inbound
  // rate (requests + the mid-round top-up + the 3-round timeout).
  const auto snapshot = small_trace(80, 8);
  auto config = small_config(14);
  config.inbound_min = 11.0;
  config.inbound_max = 12.0;
  Session session(config, snapshot);
  session.run(25.0);
  for (std::size_t i = 1; i < session.node_count(); ++i) {
    const auto& node = session.node(i);
    EXPECT_LE(node.inflight_count(),
              static_cast<std::size_t>(node.inbound_rate() * 4.0) + 4)
        << "node " << i;
    EXPECT_LE(node.prefetch_inflight_count(), 30u) << "node " << i;
  }
}

}  // namespace
}  // namespace continu::core
