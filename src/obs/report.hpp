#pragma once
// Observability output: a materialized ObsReport snapshot (what a
// Session hands back after a run) plus the three writers — a human
// phase-breakdown table, Chrome trace-event JSON for
// chrome://tracing / Perfetto, and a counters/profile JSON snapshot.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase_profiler.hpp"
#include "obs/trace_sink.hpp"

namespace continu::obs {

struct ObsReport {
  bool profile = false;
  bool trace = false;
  bool counters = false;
  ProfileReport prof{};
  std::vector<TraceEvent> events;  ///< drained, time-sorted
  std::vector<PhaseSpan> spans;    ///< drained, oldest-first
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_overwritten = 0;
  /// Snapshot of the session/engine/network totals (session.*,
  /// engine.*, net.*), taken after the run in a fixed order.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values;
};

/// Human-readable phase breakdown: per-phase serial/fork wall, shard
/// imbalance, batch histograms and the Amdahl serial fraction.
void print_profile(const ObsReport& report, std::FILE* out);

/// Chrome trace-event JSON. Track layout: pid 0 carries wall-clock
/// phase spans ("X" events, tid = shard, serial spans on tid 0); pid 1
/// carries sim-time protocol events ("i" events, tid = node, sim
/// seconds mapped to microseconds). Returns false on I/O failure.
bool write_chrome_trace(const ObsReport& report, const std::string& path);

/// Counters + profile snapshot as JSON. `headline` carries the runner's
/// derived metrics (continuity indices, overheads).
bool write_stats_json(const ObsReport& report, const std::string& path,
                      const std::string& label, std::uint64_t seed,
                      const std::vector<std::pair<std::string, double>>& headline);

}  // namespace continu::obs
