#!/usr/bin/env python3
"""Memory-footprint and throughput regression gate.

Compares a bench_large_session JSON record against a checked-in budget
file and fails (exit 1) when bytes-per-node exceeds the budget OR
events-per-second falls below the floor — so neither a container
regression nor a wall-clock regression can land silently.

    check_budget.py <bench_json> <budget_json>

The bench JSON is one bench_large_session stdout line; the budget file
holds {"scenario": ..., "max_per_node_bytes": ..., and optionally
"min_events_per_sec": ...} (the throughput floor is skipped when the
budget file does not set one).

Exit codes: 0 within budget, 1 budget regression, 2 usage / malformed
or unreadable input.
"""

import sys

from gate_common import EXIT_MALFORMED, load_object, run_gate


def check(bench_path: str, budget_path: str) -> int:
    bench = load_object(bench_path)
    budget = load_object(budget_path)

    if bench.get("scenario") != budget.get("scenario"):
        print(
            f"budget gate: scenario mismatch — bench ran "
            f"'{bench.get('scenario')}' but budget covers "
            f"'{budget.get('scenario')}'",
            file=sys.stderr,
        )
        return EXIT_MALFORMED

    measured = float(bench["memory"]["per_node_bytes"])
    limit = float(budget["max_per_node_bytes"])
    sections = {
        key: bench["memory"].get(key, 0)
        for key in ("buffer_bytes", "neighbor_bytes", "dht_bytes", "inflight_bytes")
    }
    print(
        f"budget gate [{bench['scenario']}]: measured {measured:.1f} B/node, "
        f"budget {limit:.1f} B/node"
    )
    for key, value in sections.items():
        nodes = max(int(bench["memory"].get("measured_nodes", 1)), 1)
        print(f"  {key:>15}: {value / nodes:8.1f} B/node")

    failed = False
    if measured > limit:
        print(
            f"budget gate: FAIL — {measured:.1f} exceeds the checked-in "
            f"budget of {limit:.1f} B/node. If the growth is intentional, "
            f"raise {budget_path} in the same PR with a justification.",
            file=sys.stderr,
        )
        failed = True

    floor = budget.get("min_events_per_sec")
    if floor is not None:
        throughput = float(bench["events_per_sec"])
        print(
            f"budget gate [{bench['scenario']}]: measured "
            f"{throughput:,.0f} events/s, floor {float(floor):,.0f} events/s"
        )
        if throughput < float(floor):
            print(
                f"budget gate: FAIL — {throughput:,.0f} events/s is below "
                f"the checked-in floor of {float(floor):,.0f}. If the "
                f"slowdown is intentional, lower {budget_path} in the same "
                f"PR with a justification.",
                file=sys.stderr,
            )
            failed = True

    if failed:
        return 1
    print("budget gate: OK")
    return 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return EXIT_MALFORMED
    bench_path, budget_path = sys.argv[1], sys.argv[2]
    return run_gate(
        f"budget gate [{bench_path} against {budget_path}]",
        lambda: check(bench_path, budget_path),
    )


if __name__ == "__main__":
    sys.exit(main())
