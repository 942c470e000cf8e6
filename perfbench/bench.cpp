// perfbench — runs one benchmark workload on the simulator and
// prints one JSON record on stdout: raw timing samples, one record per
// session for the output checks, the per-layer table of a traced run,
// and the benchmark-side spans around every call into a public layer.
// perfbench/run.py builds this binary, checks the sessions and reduces
// the samples to the BENCHMARK.json metrics; see perfbench/NOTES.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--horizon SIM_SECONDS]
//
// Every run takes setup samples (snapshot generation + Session
// constructor) at its start, middle and end. Before measuring it runs the
// workload's sessions at threads 1 with the profiler and counters on:
// the reference, whose fingerprints every later session must reproduce.
// --trace 0 then repeats the untraced workload at its measured width
// until --seconds have passed; --trace 1 instead runs it once traced and
// once untraced at that width and adds the micro-measurements the
// per-layer table needs.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "obs/report.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace continu;
using sim::parallel::monotonic_ns;

/// One benchmark workload. `threads` is the intra-session width and
/// `jobs` the ExperimentRunner pool; the measured width is whichever
/// of the two is above 1.
struct Workload {
  const char* name;
  const char* scenario;
  unsigned threads;
  unsigned jobs;
  std::size_t replications;
  double horizon;  ///< simulated seconds per session
};

// The 8k horizons stop at 25 s (the scenario runs 45 s) so that one
// reference session plus one measured session fit a run; the stable
// window still starts at the scenario's 20 s. The fault sweep keeps
// the full 45 s: its spike (15 s) and crash (25 s) must both happen.
constexpr Workload kWorkloads[] = {
    {"gossip_8k", "static_8k", 4, 1, 1, 25.0},
    {"quantized_8k", "q1_static_8k", 4, 1, 1, 25.0},
    {"fault_sweep_1k", "f5_dynamic_1k", 1, 4, 8, 45.0},
};

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(monotonic_ns() - t0_ns) * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host speed probe: wall nanoseconds per step of a fixed xorshift +
/// 4 MiB table walk, median of five. The record carries one probe from
/// before and one from after the workload, so a host that ran slow while
/// still granting the process its CPU (cpu/wall near the expected ratio)
/// shows up too.
double host_probe_ns() {
  std::vector<std::uint32_t> table(std::size_t{1} << 20);
  std::vector<double> samples;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;
  constexpr int kSteps = 2000000;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = monotonic_ns();
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += ++table[x & (table.size() - 1)];
    }
    samples.push_back(static_cast<double>(monotonic_ns() - t0) / kSteps);
  }
  // Every step adds at least 1, so this never throws; it keeps the
  // loop's result live so the compiler cannot drop the work.
  if (sum == 0) throw std::logic_error("host probe did no work");
  return median(std::move(samples));
}

/// Benchmark-side spans: name, start, end and the enclosing span, kept
/// in memory and written out with the record when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    explicit Scope(SpanLog& log) : log_(log) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { log_.close(); }

   private:
    SpanLog& log_;
  };

  [[nodiscard]] Scope open(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), monotonic_ns(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(*this);
  }

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename F>
  decltype(auto) timed(const char* name, F&& fn) {
    const Scope scope = open(name);
    return fn();
  }

  /// Duration of the most recently closed span.
  [[nodiscard]] double last_s() const {
    const Span& s = spans_[last_closed_];
    return static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void close() {
    last_closed_ = static_cast<std::size_t>(open_.back());
    spans_[last_closed_].t1_ns = monotonic_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t last_closed_ = 0;
};

/// Mirrors ExperimentRunner::run_one's result assembly, so a fingerprint
/// taken here equals the one run_all produces for the same spec.
runner::ReplicationResult collect(core::Session& session,
                                  const runner::ReplicationSpec& spec) {
  runner::ReplicationResult out;
  out.label = spec.label;
  out.seed = spec.config.seed;
  out.stable_continuity = session.continuity().stable_mean(spec.stable_from);
  out.stabilization_time =
      session.continuity().stabilization_time(0.9 * out.stable_continuity);
  out.continuity_index =
      session.collector().has("continuity_index")
          ? session.collector().mean_from("continuity_index", spec.stable_from)
          : 0.0;
  out.control_overhead = session.traffic().control_overhead();
  out.prefetch_overhead = session.traffic().prefetch_overhead();
  out.alive_at_end = session.alive_count();
  out.stats = session.stats();
  out.continuity = session.continuity();
  out.collector = session.collector();
  out.obs = session.obs_report();
  return out;
}

/// One session run through the benchmark's own instrumented path.
struct SessionRun {
  runner::ReplicationResult result;
  std::uint64_t fingerprint = 0;
  double wall_s = 0.0;  ///< Session::run through the collected result
  double cpu_s = 0.0;   ///< process CPU over the same window
  double bytes_per_node = 0.0;
  std::uint64_t events = 0;
};

SessionRun run_session(const runner::ReplicationSpec& spec, SpanLog& log) {
  const trace::TraceSnapshot snapshot = log.timed(
      "trace.generate_snapshot", [&] { return trace::generate_snapshot(spec.trace); });
  const auto session = log.timed("core.Session", [&] {
    return std::make_unique<core::Session>(spec.config, snapshot);
  });
  SessionRun out;
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = monotonic_ns();
  log.timed("core.Session::run", [&] { session->run(spec.duration); });
  out.result = collect(*session, spec);
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.events = session->simulator().executed();
  out.bytes_per_node =
      log.timed("core.memory_footprint", [&] { return session->memory_footprint(); })
          .per_node_bytes();
  out.fingerprint = log.timed("runner.result_fingerprint",
                              [&] { return runner::result_fingerprint(out.result); });
  return out;
}

/// What the output checks need from one session.
struct SessionRecord {
  std::string role;
  std::size_t index = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t reference = 0;
  double stable_continuity = 0.0;
  double continuity_index = 0.0;
  double control_overhead = 0.0;
  double prefetch_overhead = 0.0;
  std::uint64_t nodes = 0;  ///< initial nodes + joins: every node that existed
  std::uint64_t emitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t events = 0;  ///< 0 when the path does not expose the simulator
};

struct Layer {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Profiler and counter totals of one traced pass, summed over its
/// sessions (the peak queue depth is the largest of any session).
struct Totals {
  std::size_t sessions = 0;
  std::array<obs::PhaseTotals, obs::kPhaseCount> phases{};
  std::uint64_t run_wall_ns = 0;
  std::uint64_t fork_wall_ns = 0;
  std::uint64_t forked_work_ns = 0;
  std::uint64_t max_rep_wall_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_depth = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched = 0;
  double control = 0.0;
  double prefetch = 0.0;
  core::SessionStats stats;

  [[nodiscard]] std::uint64_t forks() const {
    std::uint64_t sum = 0;
    for (const auto& p : phases) sum += p.forks;
    return sum;
  }
  [[nodiscard]] std::uint64_t max_shard_ns() const {
    std::uint64_t sum = 0;
    for (const auto& p : phases) sum += p.max_shard_ns;
    return sum;
  }
  /// Run wall outside every fork (the profiler's Amdahl serial time).
  [[nodiscard]] double serial_ns() const {
    return std::max(0.0, static_cast<double>(run_wall_ns) - static_cast<double>(fork_wall_ns));
  }
  /// Serial time outside the named serial spans too.
  [[nodiscard]] double unattributed_ns() const {
    double spans = 0.0;
    for (const auto& p : phases) spans += static_cast<double>(p.serial_ns);
    return std::max(0.0, serial_ns() - spans);
  }
  [[nodiscard]] double serial_fraction() const {
    return ratio(serial_ns(), serial_ns() + static_cast<double>(forked_work_ns));
  }
};

Totals fold(const std::vector<runner::ReplicationResult>& results) {
  Totals t;
  for (const auto& r : results) {
    if (!r.obs || !r.obs->profile || !r.obs->counters) {
      throw std::runtime_error("traced session returned no profile/counters");
    }
    const obs::ProfileReport& prof = r.obs->prof;
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      obs::PhaseTotals& sum = t.phases[p];
      const obs::PhaseTotals& one = prof.phases[p];
      sum.serial_ns += one.serial_ns;
      sum.fork_wall_ns += one.fork_wall_ns;
      sum.forked_work_ns += one.forked_work_ns;
      sum.forks += one.forks;
      sum.max_shard_ns += one.max_shard_ns;
      sum.mean_shard_ns += one.mean_shard_ns;
    }
    t.run_wall_ns += prof.amdahl.run_wall_ns;
    t.fork_wall_ns += prof.amdahl.fork_wall_ns;
    t.forked_work_ns += prof.amdahl.forked_work_ns;
    t.max_rep_wall_ns = std::max(t.max_rep_wall_ns, prof.amdahl.run_wall_ns);
    for (const auto& [name, value] : r.obs->counter_values) {
      if (name == "engine.events_executed") t.events += value;
      if (name == "engine.peak_queue_depth") t.peak_depth = std::max(t.peak_depth, value);
      if (name == "net.delivery_batches") t.batches += value;
      if (name == "net.batched_deliveries") t.batched += value;
    }
    t.control += r.control_overhead;
    t.prefetch += r.prefetch_overhead;
    t.stats += r.stats;
    ++t.sessions;
  }
  return t;
}

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, double horizon) : w_(w) {
    const auto scenario = runner::find_scenario(w.scenario);
    if (!scenario) throw std::runtime_error(std::string("unknown scenario ") + w.scenario);
    nodes_ = scenario->node_count;
    runner::ReplicationSpec base = runner::spec_for(*scenario, seed);
    base.duration = horizon;
    base.config.threads = w.threads;
    // The sweep derives its replication seeds from --seed; a single
    // session runs at --seed itself, so --seed 42 is the scenario's
    // canonical run.
    specs_ = w.replications > 1 ? runner::replicate(base, w.replications)
                                : std::vector<runner::ReplicationSpec>{base};
  }

  /// Takes `reps` setup samples. The run calls this at its start, after
  /// the reference and at its end: setup lasts well under a second, and
  /// spreading the samples over the run keeps one slow moment of the
  /// host from setting the median.
  void setup_samples(int reps) {
    const auto phase = log_.open("phase.setup");
    for (int rep = 0; rep < reps; ++rep) {
      double gen = 0.0;
      double ctor = 0.0;
      for (const auto& spec : specs_) {
        const trace::TraceSnapshot snapshot =
            log_.timed("trace.generate_snapshot",
                       [&] { return trace::generate_snapshot(spec.trace); });
        gen += log_.last_s();
        const auto session = log_.timed("core.Session", [&] {
          return std::make_unique<core::Session>(spec.config, snapshot);
        });
        ctor += log_.last_s();
      }
      generate_s_.push_back(gen);
      ctor_s_.push_back(ctor);
      setup_s_.push_back(gen + ctor);
    }
  }

  /// The workload at threads 1 with profiler + counters on. Its
  /// fingerprints are the reference every later session must match
  /// (observability never moves a fingerprint, DETERMINISM contract 4).
  /// A sweep's sessions run at threads 1 anyway, so the untraced mode
  /// takes its reference through the workload's own pool; `serial` runs
  /// it one session at a time instead, which gives the width-1 wall of
  /// exec.speedup_t4 and the per-session footprints.
  void reference(bool serial) {
    const auto phase = log_.open("phase.reference");
    std::vector<runner::ReplicationSpec> specs;
    for (const auto& spec : specs_) {
      specs.push_back(traced(spec));
      specs.back().config.threads = 1;
    }
    const Pass pass = run_width(specs, serial ? 1 : w_.jobs, "reference");
    references_ = pass.fingerprints;
    width1_wall_s_ = pass.wall_s;
    profiles_.emplace_back("reference", fold(pass.results));
  }

  /// --trace 0: untraced passes at the measured width until `seconds`
  /// have gone by (at least one).
  void measure(double seconds) {
    const auto phase = log_.open("phase.measure");
    const std::uint64_t start = monotonic_ns();
    do {
      add_samples(run_width(specs_, w_.jobs, "measured"));
    } while (seconds_since(start) < seconds);
  }

  /// --trace 1: one traced and one untraced pass at the measured width,
  /// then the micro-measurements, folded into the per-layer table.
  void trace_layers(std::uint64_t seed) {
    std::vector<runner::ReplicationSpec> traced_specs;
    for (const auto& spec : specs_) traced_specs.push_back(traced(spec));
    Pass traced_pass;
    {
      const auto phase = log_.open("phase.traced");
      traced_pass = run_width(traced_specs, w_.jobs, "traced");
    }
    {
      const auto phase = log_.open("phase.untraced");
      add_samples(run_width(specs_, w_.jobs, "measured"));
    }
    const auto micro = log_.open("phase.micro");
    fold_layers(traced_pass, wall_s_.back(), seed);
  }

  void print(std::uint64_t seed, unsigned trace, double probe_start_ns,
             double probe_end_ns) const {
    std::printf("{\"workload\": \"%s\", \"scenario\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %u, \"horizon\": %.3f, \"threads\": %u, \"jobs\": %u, "
                "\"replications\": %zu, \"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"hardware_concurrency\": %u",
                w_.name, w_.scenario, seed, trace, specs_.front().duration, w_.threads,
                w_.jobs, specs_.size(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                std::thread::hardware_concurrency());
    print_samples("host_probe_ns", {probe_start_ns, probe_end_ns});
    print_samples("setup_s", setup_s_);
    print_samples("generate_s", generate_s_);
    print_samples("ctor_s", ctor_s_);
    print_samples("wall_s", wall_s_);
    print_samples("cpu_s", cpu_s_);
    print_samples("continuity", continuity_);
    std::printf(", \"peak_rss_mb\": ");
    print_number(peak_rss_mib());
    std::printf(", \"sessions\": [");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const SessionRecord& r = records_[i];
      std::printf("%s{\"role\": \"%s\", \"index\": %zu, \"fingerprint\": \"%016" PRIx64
                  "\", \"reference\": \"%016" PRIx64 "\", \"stable_continuity\": ",
                  i == 0 ? "" : ", ", r.role.c_str(), r.index, r.fingerprint, r.reference);
      print_number(r.stable_continuity);
      std::printf(", \"continuity_index\": ");
      print_number(r.continuity_index);
      std::printf(", \"control_overhead\": ");
      print_number(r.control_overhead);
      std::printf(", \"prefetch_overhead\": ");
      print_number(r.prefetch_overhead);
      std::printf(", \"nodes\": %" PRIu64 ", \"segments_emitted\": %" PRIu64
                  ", \"segments_delivered\": %" PRIu64
                  ", \"duplicate_deliveries\": %" PRIu64 ", \"events\": %" PRIu64 "}",
                  r.nodes, r.emitted, r.delivered, r.duplicates, r.events);
    }
    std::printf("], \"layers\": [");
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"value\": ", i == 0 ? "" : ", ",
                  layers_[i].name.c_str(), layers_[i].unit.c_str());
      print_number(layers_[i].value);
      std::printf("}");
    }
    std::printf("], \"profiles\": {");
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      const Totals& t = profiles_[i].second;
      std::printf("%s\"%s\": {\"sessions\": %zu, \"run_wall_s\": ", i == 0 ? "" : ", ",
                  profiles_[i].first, t.sessions);
      print_number(static_cast<double>(t.run_wall_ns) * 1e-9);
      std::printf(", \"fork_wall_s\": ");
      print_number(static_cast<double>(t.fork_wall_ns) * 1e-9);
      std::printf(", \"serial_s\": ");
      print_number(t.serial_ns() * 1e-9);
      std::printf(", \"unattributed_s\": ");
      print_number(t.unattributed_ns() * 1e-9);
      std::printf(", \"unattributed_share\": ");
      print_number(ratio(t.unattributed_ns(), static_cast<double>(t.run_wall_ns)));
      std::printf(", \"serial_fraction\": ");
      print_number(t.serial_fraction());
      std::printf(", \"events\": %" PRIu64 ", \"forks\": %" PRIu64
                  ", \"delivery_bucket_forks\": %" PRIu64 "}",
                  t.events, t.forks(),
                  t.phases[static_cast<std::size_t>(obs::Phase::kDeliveryBucket)].forks);
    }
    std::printf("}, \"spans\": [");
    const auto& spans = log_.spans();
    const std::uint64_t origin = spans.empty() ? 0 : spans.front().t0_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64
                  ", \"parent\": %d}",
                  i == 0 ? "" : ", ", spans[i].name.c_str(), spans[i].t0_ns - origin,
                  spans[i].t1_ns - origin, spans[i].parent);
    }
    std::printf("]}\n");
  }

 private:
  static runner::ReplicationSpec traced(runner::ReplicationSpec spec) {
    spec.config.obs.profile = true;
    spec.config.obs.counters = true;
    return spec;
  }

  /// One pass over the workload's sessions.
  struct Pass {
    std::vector<runner::ReplicationResult> results;
    std::vector<std::uint64_t> fingerprints;
    double wall_s = 0.0;  ///< first Session::run to the last result
    double cpu_s = 0.0;   ///< process CPU over the same window
  };

  /// Runs `specs` once: a single session at its own intra-session
  /// width, or a sweep through an ExperimentRunner of `jobs` workers
  /// (jobs 1: one session at a time through the benchmark's own path).
  /// Every session is fingerprinted and recorded for the checks.
  Pass run_width(const std::vector<runner::ReplicationSpec>& specs, unsigned jobs,
                 const char* role) {
    Pass pass;
    std::vector<std::uint64_t> events(specs.size(), 0);
    if (jobs <= 1) {
      double bytes_per_node = 0.0;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SessionRun run = run_session(specs[i], log_);
        pass.wall_s += run.wall_s;
        pass.cpu_s += run.cpu_s;
        events[i] = run.events;
        bytes_per_node += run.bytes_per_node;
        pass.results.push_back(std::move(run.result));
      }
      bytes_per_node_ = bytes_per_node / static_cast<double>(specs.size());
    } else {
      const runner::ExperimentRunner pool(jobs, w_.threads);
      const double cpu0 = process_cpu_s();
      const std::uint64_t t0 = monotonic_ns();
      pass.results = log_.timed("runner.run_all", [&] { return pool.run_all(specs); });
      pass.wall_s = seconds_since(t0);
      pass.cpu_s = process_cpu_s() - cpu0;
    }
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
      pass.fingerprints.push_back(log_.timed("runner.result_fingerprint", [&] {
        return runner::result_fingerprint(pass.results[i]);
      }));
      add_record(role, i, pass.results[i], pass.fingerprints.back(), events[i]);
    }
    return pass;
  }

  void add_samples(const Pass& pass) {
    wall_s_.push_back(pass.wall_s);
    cpu_s_.push_back(pass.cpu_s);
    double continuity = 0.0;
    for (const auto& r : pass.results) continuity += r.stable_continuity;
    continuity_.push_back(continuity / static_cast<double>(pass.results.size()));
  }

  void add_record(const char* role, std::size_t index, const runner::ReplicationResult& r,
                  std::uint64_t fingerprint, std::uint64_t events) {
    SessionRecord rec;
    rec.role = role;
    rec.index = index;
    rec.fingerprint = fingerprint;
    rec.reference = index < references_.size() ? references_[index] : fingerprint;
    rec.stable_continuity = r.stable_continuity;
    rec.continuity_index = r.continuity_index;
    rec.control_overhead = r.control_overhead;
    rec.prefetch_overhead = r.prefetch_overhead;
    rec.nodes = nodes_ + r.stats.joins;
    rec.emitted = r.stats.segments_emitted;
    rec.delivered = r.stats.segments_delivered;
    rec.duplicates = r.stats.duplicate_deliveries;
    rec.events = events;
    records_.push_back(std::move(rec));
  }

  void layer(std::string name, std::string unit, double value) {
    layers_.push_back({std::move(name), std::move(unit), value});
  }

  /// Width-w cost of an empty 25-shard fork (the median delivery_bucket
  /// shard count), median over many forks, in microseconds.
  double empty_fork_us(unsigned width) {
    const auto span = log_.open("exec.ParallelExecutor::for_shards");
    sim::parallel::ParallelExecutor exec(width);
    const sim::parallel::ParallelExecutor::ShardFn noop = [](std::size_t, std::size_t,
                                                             std::size_t) {};
    for (int i = 0; i < 500; ++i) exec.for_shards(25, 1, noop);
    std::vector<double> samples(10000);
    for (double& s : samples) {
      const std::uint64_t t0 = monotonic_ns();
      exec.for_shards(25, 1, noop);
      s = static_cast<double>(monotonic_ns() - t0) * 1e-3;
    }
    return median(std::move(samples));
  }

  /// Event-queue cost at the workload's peak depth: the queue is filled
  /// to `depth`, then every executed event schedules one successor
  /// (a 48-byte capture, the protocol's largest) until a fixed budget
  /// runs out. Returns wall nanoseconds per executed event (one pop plus
  /// one push), median of three runs.
  double push_pop_ns(std::size_t depth, std::uint64_t seed) {
    struct Ctx {
      sim::Simulator* sim = nullptr;
      util::Rng rng;
      std::uint64_t budget = 0;
      std::uint64_t sink = 0;
    };
    struct Hop {
      Ctx* ctx;
      std::uint64_t payload[5];
      void operator()() const {
        ctx->sink += payload[0];
        if (ctx->budget == 0) return;
        --ctx->budget;
        ctx->sim->schedule_in(ctx->rng.next_double(), Hop{*this});
      }
    };
    static_assert(sizeof(Hop) == 48, "representative capture size");
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
      const auto span = log_.open("sim.Simulator::run_all");
      sim::Simulator sim;
      Ctx ctx{&sim, util::Rng(seed + static_cast<std::uint64_t>(rep)), 0, 0};
      for (std::size_t i = 0; i < depth; ++i) {
        sim.schedule_in(ctx.rng.next_double(), Hop{&ctx, {i, 0, 0, 0, 0}});
      }
      ctx.budget = std::max<std::uint64_t>(1000000, 4 * depth);
      const std::uint64_t t0 = monotonic_ns();
      const std::size_t executed = sim.run_all();
      samples.push_back(static_cast<double>(monotonic_ns() - t0) /
                        static_cast<double>(executed));
    }
    return median(std::move(samples));
  }

  void fold_layers(const Pass& traced, double untraced_wall, std::uint64_t seed) {
    const Totals t = fold(traced.results);
    profiles_.emplace_back("traced", t);
    const double traced_wall = traced.wall_s;
    const double n = static_cast<double>(t.sessions);
    const auto s_of = [](double ns) { return ns * 1e-9; };
    const auto phase = [&t](obs::Phase p) -> const obs::PhaseTotals& {
      return t.phases[static_cast<std::size_t>(p)];
    };
    const core::SessionStats& stats = t.stats;
    const double unattributed_ns = t.unattributed_ns();

    layer("trace.generate_s", "s", median(generate_s_));
    layer("core.session_ctor_s", "s", median(ctor_s_));
    layer("core.bytes_per_node", "B", bytes_per_node_);
    for (const auto& [p, name] : {std::pair{obs::Phase::kPrepareLocal, "prepare_local"},
                                  std::pair{obs::Phase::kPlan, "plan"}}) {
      const std::string prefix = std::string("core.") + name;
      layer(prefix + ".fork_wall_s", "s", s_of(static_cast<double>(phase(p).fork_wall_ns)));
      layer(prefix + ".work_s", "s", s_of(static_cast<double>(phase(p).forked_work_ns)));
      layer(prefix + ".imbalance", "ratio", phase(p).imbalance());
    }
    layer("core.prepare_link.serial_s", "s",
          s_of(static_cast<double>(phase(obs::Phase::kPrepareLink).serial_ns)));
    layer("core.commit.serial_s", "s",
          s_of(static_cast<double>(phase(obs::Phase::kCommit).serial_ns)));
    layer("core.duplicate_ratio", "ratio",
          ratio(static_cast<double>(stats.duplicate_deliveries),
                static_cast<double>(stats.segments_delivered)));
    layer("core.refused_ratio", "ratio",
          ratio(static_cast<double>(stats.segments_refused),
                static_cast<double>(stats.segments_booked + stats.segments_refused)));
    layer("core.transfer_timeouts", "count", static_cast<double>(stats.transfer_timeouts));

    layer("sim.events", "count", static_cast<double>(t.events));
    layer("sim.peak_queue_depth", "count", static_cast<double>(t.peak_depth));
    layer("sim.unattributed_s", "s", s_of(unattributed_ns));
    layer("sim.ns_per_event", "ns", ratio(unattributed_ns, static_cast<double>(t.events)));
    layer("sim.push_pop_ns", "ns", push_pop_ns(static_cast<std::size_t>(t.peak_depth), seed));

    layer("exec.forks", "count", static_cast<double>(t.forks()));
    layer("exec.fork_wall_s", "s", s_of(static_cast<double>(t.fork_wall_ns)));
    layer("exec.forked_work_s", "s", s_of(static_cast<double>(t.forked_work_ns)));
    layer("exec.serial_fraction", "fraction", t.serial_fraction());
    layer("exec.fork_overhead_s", "s",
          s_of(static_cast<double>(t.fork_wall_ns) - static_cast<double>(t.max_shard_ns())));
    layer("exec.speedup_t4", "x", ratio(width1_wall_s_, traced_wall));
    layer("exec.empty_fork_us.w1", "us", empty_fork_us(1));
    layer("exec.empty_fork_us.w2", "us", empty_fork_us(2));
    layer("exec.empty_fork_us.w4", "us", empty_fork_us(4));

    const obs::PhaseTotals& bucket = phase(obs::Phase::kDeliveryBucket);
    layer("net.delivery_bucket.forks", "count", static_cast<double>(bucket.forks));
    layer("net.delivery_bucket.fork_wall_s", "s",
          s_of(static_cast<double>(bucket.fork_wall_ns)));
    layer("net.delivery_bucket.work_s", "s", s_of(static_cast<double>(bucket.forked_work_ns)));
    layer("net.delivery_bucket.imbalance", "ratio", bucket.imbalance());
    layer("net.deliveries_per_batch", "1/batch",
          ratio(static_cast<double>(t.batched), static_cast<double>(t.batches)));
    layer("net.control_overhead", "fraction", t.control / n);
    layer("net.prefetch_overhead", "fraction", t.prefetch / n);

    layer("dht.route_messages", "count", static_cast<double>(stats.dht_route_messages));
    layer("dht.route_failures", "count", static_cast<double>(stats.dht_route_failures));
    layer("dht.prefetch_success_ratio", "ratio",
          ratio(static_cast<double>(stats.prefetch_succeeded),
                static_cast<double>(stats.prefetch_launched)));

    layer("fault.lost", "count", static_cast<double>(stats.deliveries_lost));
    layer("fault.partitioned", "count", static_cast<double>(stats.deliveries_partitioned));
    layer("fault.crashes", "count", static_cast<double>(stats.fault_crashes));
    layer("fault.retry_backoffs", "count", static_cast<double>(stats.retry_backoffs));
    layer("fault.blacklisted", "count", static_cast<double>(stats.suppliers_blacklisted));

    layer("overlay.joins", "count", static_cast<double>(stats.joins));
    layer("overlay.leaves", "count",
          static_cast<double>(stats.graceful_leaves + stats.abrupt_leaves));
    layer("overlay.neighbor_replacements", "count",
          static_cast<double>(stats.neighbor_replacements));

    layer("runner.worker_busy_frac", "fraction",
          ratio(s_of(static_cast<double>(t.run_wall_ns)),
                static_cast<double>(std::max(1u, w_.jobs)) * traced_wall));
    layer("runner.rep_wall_max_over_mean", "ratio",
          ratio(static_cast<double>(t.max_rep_wall_ns), static_cast<double>(t.run_wall_ns) / n));
    layer("obs.overhead_pct", "%", 100.0 * (ratio(traced_wall, untraced_wall) - 1.0));
  }

  static void print_number(double v) {
    if (std::isnan(v)) {
      std::printf("NaN");
    } else if (std::isinf(v)) {
      std::printf(v > 0 ? "Infinity" : "-Infinity");
    } else {
      std::printf("%.17g", v);
    }
  }

  static void print_samples(const char* key, const std::vector<double>& values) {
    std::printf(", \"%s\": [", key);
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_number(values[i]);
    }
    std::printf("]");
  }

  const Workload& w_;
  std::size_t nodes_ = 0;
  std::vector<runner::ReplicationSpec> specs_;
  SpanLog log_;
  std::vector<std::uint64_t> references_;
  std::vector<SessionRecord> records_;
  std::vector<Layer> layers_;
  std::vector<double> setup_s_, generate_s_, ctor_s_, wall_s_, cpu_s_, continuity_;
  double width1_wall_s_ = 0.0;
  double bytes_per_node_ = 0.0;  ///< mean footprint of the last serial pass
  std::vector<std::pair<const char*, Totals>> profiles_;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--horizon SIM_SECONDS]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build (Release only)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time a build with assertions on\n");
  return 3;
#endif
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  unsigned trace = 0;
  double horizon = 0.0;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&] {
      if (i + 1 >= argc) usage(argv[0]);
      return std::string(argv[++i]);
    };
    const std::string arg = argv[i];
    try {
      if (arg == "--workload") {
        const std::string name = value();
        for (const Workload& w : kWorkloads) {
          if (name == w.name) workload = &w;
        }
        if (workload == nullptr) usage(argv[0]);
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = static_cast<unsigned>(std::stoul(value()));
      } else if (arg == "--horizon") {
        horizon = std::stod(value());
      } else {
        usage(argv[0]);
      }
    } catch (const std::logic_error&) {
      usage(argv[0]);
    }
  }
  if (workload == nullptr || trace > 1 || !(seconds >= 0.0) ||
      horizon < 0.0) {
    usage(argv[0]);
  }
  try {
    const double probe_start = host_probe_ns();
    Bench bench(*workload, seed, horizon > 0.0 ? horizon : workload->horizon);
    constexpr int kSetupReps = 3;  // per sampling point; 9 in all
    bench.setup_samples(kSetupReps);
    bench.reference(/*serial=*/trace == 1);
    bench.setup_samples(kSetupReps);
    if (trace == 0) {
      bench.measure(seconds);
    } else {
      bench.trace_layers(seed);
    }
    bench.setup_samples(kSetupReps);
    bench.print(seed, trace, probe_start, host_probe_ns());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
