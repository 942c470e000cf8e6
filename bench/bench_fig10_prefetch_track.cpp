// Figure 10 reproduction: per-round pre-fetch overhead track for a
// 1000-node overlay, static and dynamic. The paper reports near-zero
// overhead at startup (most nodes have not discovered the source, and
// N_miss > l suppresses pre-fetching), a bump as the system fills, and
// stable-phase overhead of roughly 0.023 (static) / 0.03 (dynamic).

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace continu;

  bench::print_header("Figure 10", "pre-fetch overhead track, 1000 nodes");

  const auto snapshot = std::make_shared<const trace::TraceSnapshot>(
      bench::standard_trace(1000, 57));
  const auto results = bench::run_batch(
      {bench::snapshot_spec(bench::standard_config(19, false), snapshot, "static"),
       bench::snapshot_spec(bench::standard_config(19, true), snapshot, "dynamic")});
  const auto& static_run = results[0];
  const auto& dynamic_run = results[1];

  util::Table table({"time (s)", "static", "dynamic"});
  util::CsvWriter csv("fig10_prefetch_track.csv", {"time", "static", "dynamic"});
  const auto& s = static_run.collector.series("prefetch_overhead_round");
  const auto& d = dynamic_run.collector.series("prefetch_overhead_round");
  for (std::size_t i = 0; i < s.size() && i < d.size(); ++i) {
    table.add_row({util::Table::num(s[i].time, 0), util::Table::num(s[i].value, 4),
                   util::Table::num(d[i].value, 4)});
    csv.add_row({util::Table::num(s[i].time, 1), util::Table::num(s[i].value, 5),
                 util::Table::num(d[i].value, 5)});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nStable phase (t >= 20 s): static %.4f, dynamic %.4f (cumulative: "
              "%.4f / %.4f)\n",
              static_run.collector.mean_from("prefetch_overhead_round", 20.0),
              dynamic_run.collector.mean_from("prefetch_overhead_round", 20.0),
              static_run.prefetch_overhead, dynamic_run.prefetch_overhead);
  std::printf("Paper expectation: tiny at startup, stable-phase ~0.023 static /\n"
              "~0.03 dynamic. CSV: fig10_prefetch_track.csv\n");
  return 0;
}
