#pragma once
// System configuration: the settings a run may change. The paper's
// fixed parameters (p, B, tau, H, N, the rate ranges, ...) are not
// settings; they are constants in core/params.hpp.

#include <cstdint>

#include "fault/fault_plan.hpp"
#include "obs/obs_config.hpp"
#include "overlay/churn.hpp"
#include "util/types.hpp"

namespace continu::core {

/// Which data scheduler a session runs.
enum class SchedulerKind {
  /// ContinuStreaming: priority = max(urgency, rarity) with
  /// rarity = prod(p_ij / B)  (paper eqs. 1-3) + DHT pre-fetch.
  kContinuStreaming,
  /// CoolStreaming baseline: rarest-first (rarity = 1/n_i), no DHT.
  kCoolStreaming,
  /// GridMedia-style push-pull (paper Section 2): fresh segments are
  /// RELAYED to partners as soon as they are received ("pushing
  /// packets"), pulls fill the holes; no DHT. Reduces latency at the
  /// cost of redundant transmissions.
  kGridMediaPushPull,
};

struct SystemConfig {
  // --- overlay ------------------------------------------------------------
  /// Connected neighbors M.
  std::size_t connected_neighbors = 5;

  // --- bandwidth ------------------------------------------------------------
  /// Whether inbound/outbound rates vary per node ("heterogeneous") or
  /// every node gets the mean ("homogeneous", used by the 5.1 table).
  bool heterogeneous_bandwidth = true;

  // --- DHT / pre-fetch ---------------------------------------------------
  /// Replicas per segment k.
  unsigned backup_replicas = 4;
  /// Max segments fetched per on-demand invocation l.
  unsigned prefetch_limit = 5;
  // The urgent line's t_hop and population estimate n are not settings:
  // Session derives both from the trace (mean one-hop latency, node
  // count) — the paper calls t_hop "an approximate estimation" and says
  // n "does not need to be accurate".

  // --- scheduler / churn ---------------------------------------------------
  SchedulerKind scheduler = SchedulerKind::kContinuStreaming;
  /// Enable churn ("dynamic environment").
  bool churn_enabled = false;
  overlay::ChurnConfig churn{};

  // --- faults / hardening --------------------------------------------------
  /// Deterministic fault schedule (link loss, crash-stop events,
  /// partitions, latency spikes). The default plan is inert: no
  /// injector is installed and the simulation is bit-identical to a
  /// fault-free build.
  fault::FaultPlan fault{};
  /// Retry/backoff + supplier-blacklist hardening for the pull and
  /// prefetch planes, tuned by the kRetry*/kBlacklist* constants in
  /// core/params.hpp. Off by default (zero-fault hot path untouched);
  /// the f*_ scenario families switch it on.
  bool hardening = false;

  // --- observability -------------------------------------------------------
  /// Deterministic observability layer (src/obs/): phase profiler,
  /// structured trace export, counter snapshot. All off by default;
  /// enabling any pillar never moves a result fingerprint (obs writes
  /// only to obs-owned state — CI diffs fingerprints obs-on vs
  /// obs-off to enforce it).
  obs::ObsConfig obs{};

  // --- run control ---------------------------------------------------------
  std::uint64_t seed = 42;
  /// Intra-session worker threads for the fork/join round executor.
  /// 1 = serial (inline shards), 0 = all hardware threads. Results are
  /// bit-identical for EVERY value — the parallel engine derives
  /// per-tick RNG streams and merges stats/emissions in fixed shard
  /// order, so threads only changes wall-clock time.
  unsigned threads = 1;
  /// Latency quantization grid in milliseconds. 0 = the paper's
  /// continuous pairwise model (every delivery is its own serial
  /// event). Positive (1-5 ms in practice) snaps delivery instants UP
  /// to the grid so co-instant deliveries batch and fork by receiver —
  /// the quantized network mode. Results are bit-identical at every
  /// thread count WITHIN a mode; the two modes are distinct universes
  /// (see the committed divergence study for the metric deltas).
  double latency_grid_ms = 0.0;

  /// Throws std::invalid_argument naming the field when a setting is
  /// out of range or would be silently ignored. Churn fractions and the
  /// latency grid are checked where they are used (ChurnPlanner,
  /// LatencyModel).
  void validate() const;

  /// Preset: the paper's CoolStreaming baseline on identical substrate.
  [[nodiscard]] SystemConfig as_coolstreaming() const noexcept {
    SystemConfig c = *this;
    c.scheduler = SchedulerKind::kCoolStreaming;
    return c;
  }
};

}  // namespace continu::core
