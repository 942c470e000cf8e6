#pragma once
// Named workload scenarios — the shared matrix of (environment x node
// count x scheduler x DHT setting) configurations the paper's
// evaluation sweeps over. Benches, examples, tools and tests all
// enumerate the same named workloads through this header so "fig5's
// static 1000-node run" means exactly one thing everywhere.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "trace/generator.hpp"

namespace continu::runner {

/// One named workload: everything needed to build a SystemConfig and a
/// trace snapshot except the simulation seed (which the experiment
/// layer varies per replication).
struct Scenario {
  std::string name;
  std::string description;

  /// Overlay size of the generated trace.
  std::size_t node_count = 1000;
  std::uint64_t trace_seed = 1;

  /// Every protocol, churn, network and fault setting of the workload,
  /// paper defaults unless the scenario says otherwise. make_config()
  /// only stamps the replication's seed onto it.
  core::SystemConfig config{};

  // --- horizons ------------------------------------------------------------
  double duration = 45.0;
  double stable_from = 20.0;

  /// `config` at the given simulation seed.
  [[nodiscard]] core::SystemConfig make_config(std::uint64_t seed) const;

  /// Trace generator configuration (deterministic in trace_seed).
  [[nodiscard]] trace::GeneratorConfig make_trace() const;
};

/// The canonical scenario matrix. Stable names; append-only across PRs.
[[nodiscard]] const std::vector<Scenario>& scenario_matrix();

/// Parameterized scenario FAMILIES: the fig7/8/9/11 sweep grids as
/// named scenarios ("fig7_static_2000", "fig9_m5_500", ...), each a
/// copy of a base scenario with the swept fields set. Kept separate from the
/// matrix so full-matrix sweeps (the fingerprint oracle, smoke tests)
/// stay bounded; find_scenario() resolves both.
[[nodiscard]] const std::vector<Scenario>& scenario_families();

/// Lookup by name across the matrix AND the families; std::nullopt
/// when unknown.
[[nodiscard]] std::optional<Scenario> find_scenario(const std::string& name);

/// All scenario names, matrix order (for --list-scenarios style output).
[[nodiscard]] std::vector<std::string> scenario_names();

/// Every resolvable name: matrix order, then family order (for
/// diagnostics and exhaustive sweeps).
[[nodiscard]] std::vector<std::string> all_scenario_names();

/// One family of parameterized scenarios, keyed by the shared name
/// prefix up to the first underscore ("fig7", "q1", "f5", ...).
struct ScenarioFamilyGroup {
  std::string prefix;
  std::string description;  ///< one line, for --list-scenarios
  std::vector<std::string> members;
};

/// The families grouped by name prefix, first-appearance order — the
/// structure `continu_sim --list-scenarios` renders.
[[nodiscard]] const std::vector<ScenarioFamilyGroup>& scenario_family_groups();

/// Resolves one --only style selector: an exact scenario name yields
/// that scenario alone; otherwise the selector is treated as a name
/// PREFIX ("q1_", "fig7", "f5_q1_...") and expands to every matrix and
/// family scenario it prefixes, registry order. Empty result = the
/// selector matched nothing (callers should treat that as an unknown
/// scenario, never as a vacuously-empty sweep).
[[nodiscard]] std::vector<Scenario> expand_scenario_selector(
    const std::string& selector);

}  // namespace continu::runner
