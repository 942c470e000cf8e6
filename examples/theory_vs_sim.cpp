// Theory vs simulation: evaluates the paper's closed-form continuity
// model (Section 5.1, eqs. 10-15) across a lambda sweep and checks one
// operating point against a live simulation — the same comparison the
// paper's Section 5.1 table makes.

#include <cstdio>

#include "analysis/continuity_model.hpp"
#include "analysis/coverage.hpp"
#include "core/config.hpp"
#include "core/session.hpp"
#include "trace/generator.hpp"

int main() {
  using namespace continu;

  std::printf("Poisson continuity model (p = 10, tau = 1 s, k = 4):\n\n");
  std::printf("%8s %10s %10s %10s %12s\n", "lambda", "PC_old", "PC_new", "delta",
              "E[N_miss]");
  for (const double lambda : {11.0, 12.0, 13.0, 14.0, 15.0, 17.0, 20.0, 25.0}) {
    analysis::ContinuityInputs in;
    in.lambda = lambda;
    const auto out = analysis::predict_continuity(in);
    std::printf("%8.1f %10.4f %10.4f %10.4f %12.3f\n", lambda, out.pc_old, out.pc_new,
                out.delta, out.expected_miss);
  }

  std::printf("\nGossip coverage checks:\n");
  std::printf("  Kermarrec e^(-e^(-c)) at c = 2: %.4f\n", analysis::kermarrec_coverage(2.0));
  std::printf("  CoolStreaming coverage (M=5, n=1000) reaches 99%% at distance %u\n",
              analysis::coverage_distance(5, 1000.0, 0.99));
  std::printf("  control overhead model M=5: %.5f (~M/495)\n",
              analysis::control_overhead_model(5, 10));
  std::printf("  pre-fetch cost per segment (k=4, n=1000): %.0f bits\n",
              analysis::prefetch_cost_bits(4, 1000.0));

  // One live data point against the model.
  std::printf("\nLive check (400 nodes, 45 s):\n");
  trace::GeneratorConfig trace_config;
  trace_config.node_count = 400;
  trace_config.seed = 21;
  const auto snapshot = trace::generate_snapshot(trace_config);
  core::SystemConfig config;
  config.seed = 11;

  core::Session continu_session(config, snapshot);
  continu_session.run(45.0);
  core::Session cool_session(config.as_coolstreaming(), snapshot);
  cool_session.run(45.0);

  analysis::ContinuityInputs in;
  in.lambda = config.mean_inbound();
  const auto predicted = analysis::predict_continuity(in);

  std::printf("  theory  (lambda = %.1f): PC_old %.3f, PC_new %.3f\n", in.lambda,
              predicted.pc_old, predicted.pc_new);
  std::printf("  measured              : PC_old %.3f, PC_new %.3f\n",
              cool_session.continuity().stable_mean(20.0),
              continu_session.continuity().stable_mean(20.0));
  std::printf("\nThe theory idealizes arrivals as Poisson(I) and ignores mesh\n"
              "position effects, so measured values sit at or below it — the same\n"
              "relationship the paper's table shows.\n");
  return 0;
}
