#pragma once
// ExperimentRunner — shards independent Session replications across a
// ParallelExecutor so a 50-replication Monte-Carlo sweep uses every
// core instead of one.
//
// Design constraints (and why):
//   * Replications are embarrassingly parallel: one Session owns its
//     simulator, network, nodes and RNG, so threads share nothing but
//     the spec list and their private result slots.
//   * Each spec is one shard of the same fork/join engine the sessions
//     use inside (sim::parallel::ParallelExecutor). Which worker claims
//     a shard varies, but a shard writes only its own result slot, so
//     results land in spec order and are bit-identical for any jobs
//     count, which the determinism tests enforce. Every spec runs even
//     when one fails, and the lowest failing index's error is the one
//     rethrown, so errors are jobs-invariant too.
//   * Per-replication RNG seeding is derived, not sequential:
//     replication_seed() splitmix-es (base, index) so neighboring
//     replications get decorrelated streams and a replication's seed
//     never depends on how many jobs ran it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/session.hpp"
#include "metrics/collector.hpp"
#include "metrics/continuity.hpp"
#include "runner/scenario.hpp"
#include "trace/generator.hpp"
#include "util/stats.hpp"

namespace continu::runner {

/// One independent replication: seed x SystemConfig x trace scenario.
struct ReplicationSpec {
  std::string label;              ///< carried into the result for grouping
  core::SystemConfig config;      ///< includes the simulation seed
  trace::GeneratorConfig trace;   ///< deterministic snapshot recipe
  /// Pre-built snapshot (corpus benches, trace files). When set it is
  /// used instead of the recipe; workers only read it, so sharing one
  /// snapshot across specs is safe.
  std::shared_ptr<const trace::TraceSnapshot> snapshot;
  double duration = 45.0;
  double stable_from = 20.0;
};

/// Everything a bench or test wants back from one replication. The
/// session itself is destroyed inside the worker; tracks are copied out
/// so figure benches can still plot per-round series.
struct ReplicationResult {
  std::string label;
  std::uint64_t seed = 0;

  double stable_continuity = 0.0;
  double stabilization_time = -1.0;
  double continuity_index = 0.0;
  double control_overhead = 0.0;
  double prefetch_overhead = 0.0;
  std::size_t alive_at_end = 0;

  core::SessionStats stats;
  metrics::ContinuityTracker continuity;  ///< per-round ratio track
  metrics::SeriesCollector collector;     ///< all named series
  /// Observability snapshot (profiler totals, drained trace, settled
  /// counters); null unless the spec's config.obs enabled a pillar.
  /// shared_ptr: results are copied during aggregation and a report can
  /// be megabytes of trace events.
  std::shared_ptr<const obs::ObsReport> obs;
};

/// Merged view over many replications: mean/stddev of the headline
/// metrics plus element-wise SessionStats sums.
struct ExperimentResult {
  std::size_t replications = 0;
  util::RunningStats continuity;          ///< stable-phase playback continuity
  util::RunningStats continuity_index;
  util::RunningStats stabilization_time;  ///< only runs that stabilized
  util::RunningStats control_overhead;
  util::RunningStats prefetch_overhead;
  core::SessionStats total;               ///< summed across replications
  std::vector<ReplicationResult> runs;    ///< spec order, jobs-invariant
};

/// Derived seed for replication `index` of a base seed. Pure function of
/// (base, index): stable across jobs counts, platforms and reruns.
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t base, std::size_t index);

/// Knobs for replicate(). Defaults reproduce the classic behaviour
/// bit-for-bit: only the simulation seed varies per replication.
struct ReplicateOptions {
  /// Also derive a fresh trace seed per replication, so each one runs
  /// on its own topology (topology-robustness sweeps). Incompatible
  /// with a pre-built base.snapshot, which would silently pin the
  /// topology — replicate() throws on that combination.
  bool vary_trace_seed = false;
};

/// `count` copies of `base` with config.seed = replication_seed(base.config.seed, i)
/// and labels suffixed "#i". With options.vary_trace_seed, trace.seed is
/// likewise replication_seed(base.trace.seed, i).
[[nodiscard]] std::vector<ReplicationSpec> replicate(const ReplicationSpec& base,
                                                     std::size_t count,
                                                     ReplicateOptions options = {});

/// Spec for one named scenario at one seed (trace comes from the scenario).
[[nodiscard]] ReplicationSpec spec_for(const Scenario& scenario, std::uint64_t seed);

class ExperimentRunner {
 public:
  /// jobs = 0 picks std::thread::hardware_concurrency() (min 1).
  ///
  /// `session_threads` is the intra-session fork/join width (see
  /// SystemConfig::threads): 0 leaves each spec's own config.threads
  /// untouched; > 0 overrides every spec. With session_threads > 1 the
  /// runner ARBITRATES the core budget between the two parallelism
  /// layers: jobs is clamped so jobs x session_threads stays within
  /// hardware_concurrency (the intra-session width wins — the caller
  /// dialed it explicitly), and jobs = 0 resolves to the largest count
  /// that fits. Results never depend on either knob.
  explicit ExperimentRunner(unsigned jobs = 0, unsigned session_threads = 0);

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }
  [[nodiscard]] unsigned session_threads() const noexcept { return session_threads_; }

  /// Runs every spec, one executor shard each; results in spec order.
  /// Identical output for any jobs value. Every spec runs; the error
  /// of the lowest failing spec is rethrown after the join.
  [[nodiscard]] std::vector<ReplicationResult> run_all(
      const std::vector<ReplicationSpec>& specs) const;

  /// run_all + aggregate in one call.
  [[nodiscard]] ExperimentResult run_experiment(
      const std::vector<ReplicationSpec>& specs) const;

  /// Executes one spec on the calling thread (the worker body).
  [[nodiscard]] static ReplicationResult run_one(const ReplicationSpec& spec);

  /// Folds replication results into the merged experiment view.
  [[nodiscard]] static ExperimentResult aggregate(std::vector<ReplicationResult> runs);

 private:
  unsigned jobs_ = 1;
  unsigned session_threads_ = 0;
};

/// FNV-1a fingerprint over a replication's full observable output:
/// every SessionStats counter, the continuity track and every collector
/// series, by raw bit pattern. Two runs are engine-bit-identical iff
/// their fingerprints (and stats) match — the oracle behind the
/// threads/jobs-invariance checks in tools, benches and tests.
[[nodiscard]] std::uint64_t result_fingerprint(const ReplicationResult& run);

}  // namespace continu::runner
