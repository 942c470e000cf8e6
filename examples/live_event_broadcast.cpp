// Live event broadcast: the flash-crowd scenario that motivates P2P
// streaming — a broadcast starts with a small audience, then a crowd
// joins mid-stream (joins far exceeding departures). Shows how joiners
// bootstrap through the RP server, follow their neighbors' play points
// and how playback continuity behaves through the surge.

#include <cstdio>

#include "core/config.hpp"
#include "core/session.hpp"
#include "trace/generator.hpp"

int main() {
  using namespace continu;

  trace::GeneratorConfig trace_config;
  trace_config.node_count = 150;  // the early audience
  trace_config.seed = 99;
  const auto snapshot = trace::generate_snapshot(trace_config);

  core::SystemConfig config;
  config.seed = 5;
  config.churn_enabled = true;
  config.churn.leave_fraction = 0.01;   // light departures
  config.churn.join_fraction = 0.035;   // flash crowd: +3.5%/s compounding
  config.churn.graceful_fraction = 0.7;

  core::Session session(config, snapshot);

  std::printf("Live event broadcast: 150 early viewers, +3.5%%/s flash crowd\n\n");
  std::printf("%6s %12s %12s %10s %12s\n", "t (s)", "audience", "continuity",
              "joins", "prefetch ok");

  double last_ok = 0.0;
  for (int checkpoint = 10; checkpoint <= 60; checkpoint += 10) {
    session.run(checkpoint);
    const auto& stats = session.stats();
    const double ok = static_cast<double>(stats.prefetch_succeeded);
    std::printf("%6d %12zu %12.3f %10llu %12.0f\n", checkpoint, session.alive_count(),
                session.continuity().rounds().back().ratio(),
                static_cast<unsigned long long>(stats.joins), ok - last_ok);
    last_ok = ok;
  }

  std::printf("\nThe audience grew to %zu viewers; stable continuity over the "
              "surge: %.3f\n",
              session.alive_count(), session.continuity().stable_mean(20.0));
  std::printf("Joiners start playback by following their neighbors' play points\n"
              "(paper Section 5.2) and the DHT pre-fetch covers their early holes.\n");
  return 0;
}
