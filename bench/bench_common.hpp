#pragma once
// Shared plumbing for the figure/table reproduction harnesses: standard
// workload construction, runner-backed execution, and result records.
//
// Every bench builds a batch of ReplicationSpecs and hands them to the
// ExperimentRunner, which shards the independent sessions across a
// thread pool (CONTINU_BENCH_JOBS env var overrides the job count; 0 or
// unset = all hardware threads). Results come back in spec order and
// are identical for any job count, so tables stay reproducible.
//
// Every bench prints the paper-style table to stdout and drops a CSV
// next to the working directory for replotting.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/session.hpp"
#include "net/message.hpp"
#include "runner/cli.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "trace/generator.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace continu::bench {

/// The paper's standard workload (Section 5.2) on a synthetic
/// clip2-style snapshot of `nodes` hosts.
[[nodiscard]] inline trace::GeneratorConfig standard_trace_config(std::size_t nodes,
                                                                  std::uint64_t seed) {
  trace::GeneratorConfig config;
  config.node_count = nodes;
  config.average_degree = 2.5;
  config.seed = seed;
  return config;
}

[[nodiscard]] inline trace::TraceSnapshot standard_trace(std::size_t nodes,
                                                         std::uint64_t seed) {
  return trace::generate_snapshot(standard_trace_config(nodes, seed));
}

/// Default run horizons: the paper tracks 0-30 s and reports stable-phase
/// values; we run a little longer and average the stable window.
struct Horizon {
  double duration = 45.0;
  double stable_from = 20.0;
};

/// Paper-standard system configuration (the urgent line's population
/// and hop-latency estimates come from the trace, not from here).
[[nodiscard]] inline core::SystemConfig standard_config(std::uint64_t seed, bool churn) {
  core::SystemConfig config;
  config.seed = seed;
  config.churn_enabled = churn;
  return config;
}

/// Spec over a generated standard trace (workers build the snapshot).
[[nodiscard]] inline runner::ReplicationSpec standard_spec(
    const core::SystemConfig& config, std::size_t nodes, std::uint64_t trace_seed,
    std::string label = "", Horizon horizon = {}) {
  runner::ReplicationSpec spec;
  spec.label = std::move(label);
  spec.config = config;
  spec.trace = standard_trace_config(nodes, trace_seed);
  spec.duration = horizon.duration;
  spec.stable_from = horizon.stable_from;
  return spec;
}

/// Spec over a pre-built snapshot (corpus sweeps, loaded trace files).
[[nodiscard]] inline runner::ReplicationSpec snapshot_spec(
    const core::SystemConfig& config,
    std::shared_ptr<const trace::TraceSnapshot> snapshot, std::string label = "",
    Horizon horizon = {}) {
  runner::ReplicationSpec spec;
  spec.label = std::move(label);
  spec.config = config;
  spec.snapshot = std::move(snapshot);
  spec.duration = horizon.duration;
  spec.stable_from = horizon.stable_from;
  return spec;
}

/// Bench job count: CONTINU_BENCH_JOBS env var, else 0 (= all cores).
/// A value that is not a plain non-negative integer exits 1 with a
/// diagnostic instead of silently meaning "all cores" or "UINT_MAX".
[[nodiscard]] inline unsigned bench_jobs() {
  const char* env = std::getenv("CONTINU_BENCH_JOBS");
  if (env == nullptr) return 0;
  const auto jobs = runner::cli::parse_uint_u32(env);
  if (!jobs.has_value()) {
    std::fprintf(stderr,
                 "error: CONTINU_BENCH_JOBS must be a non-negative integer "
                 "(0 = all cores), got '%s'\n",
                 env);
    std::exit(1);
  }
  return *jobs;
}

/// Runs a batch of specs through the shared thread pool, spec order out.
[[nodiscard]] inline std::vector<runner::ReplicationResult> run_batch(
    const std::vector<runner::ReplicationSpec>& specs) {
  const runner::ExperimentRunner pool(bench_jobs());
  return pool.run_all(specs);
}

/// Named-scenario lookup that exits with a diagnostic instead of UB
/// when the matrix no longer has the name.
[[nodiscard]] inline runner::Scenario require_scenario(const std::string& name) {
  auto scenario = runner::find_scenario(name);
  if (!scenario.has_value()) {
    util::Log(util::LogLevel::kError) << "scenario matrix is missing '" << name << "'";
    std::exit(1);
  }
  return *std::move(scenario);
}

inline void print_header(const char* figure, const char* caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("================================================================\n");
}

}  // namespace continu::bench
