#!/usr/bin/env python3
"""Observability overhead gate.

Fails when enabling the observability layer at runtime costs more than
the allowed throughput fraction on the same binary and host.

    check_overhead.py --off A.json [B.json ...] --on C.json [D.json ...]
                      [--max-overhead-pct 3.0] [--budget budget.json]

The off/on files are bench_large_session JSON records from the SAME
build: --off runs without --obs, --on runs with --obs (profiler +
trace + counters all enabled). The gate compares the best
events-per-second of each group — best-of-N filters scheduler noise the
way interleaved A/B medians would, with fewer runs.

Why enabled-vs-disabled rather than obs-compiled-out vs obs-compiled-in:
CI builds one binary, and observability is a runtime config whose
disabled hot path is a handful of null-pointer checks. The measurable
(and maintainable) contract is therefore "turning obs ON costs <= N%";
the absolute cost of the disabled checks is covered by the committed
min_events_per_sec floor, re-checkable here via --budget.

Exit codes: 0 within the allowance, 1 overhead regression, 2 usage /
malformed or unreadable input (matching check_budget.py).
"""

import argparse
import sys

from gate_common import EXIT_MALFORMED, load_object, run_gate


def load_group(paths: list[str], want_obs: bool) -> tuple[float, str]:
    """Best events/s of the group, with a scenario-consistency check."""
    best = 0.0
    scenario = None
    for path in paths:
        record = load_object(path)
        if scenario is None:
            scenario = record["scenario"]
        elif record["scenario"] != scenario:
            raise ValueError(
                f"{path} ran scenario '{record['scenario']}' but the group "
                f"started with '{scenario}'"
            )
        obs_enabled = bool(record.get("obs_enabled", False))
        if obs_enabled != want_obs:
            raise ValueError(
                f"{path} has obs_enabled={obs_enabled}, expected {want_obs} "
                f"(check which group the file was passed to)"
            )
        best = max(best, float(record["events_per_sec"]))
    if scenario is None:
        raise ValueError("empty group")
    return best, scenario


def check(args: argparse.Namespace) -> int:
    off_best, off_scenario = load_group(args.off, want_obs=False)
    on_best, on_scenario = load_group(args.on, want_obs=True)
    if off_scenario != on_scenario:
        print(
            f"overhead gate: scenario mismatch — off group ran "
            f"'{off_scenario}', on group ran '{on_scenario}'",
            file=sys.stderr,
        )
        return EXIT_MALFORMED

    overhead_pct = (1.0 - on_best / off_best) * 100.0 if off_best > 0 else 0.0
    print(
        f"overhead gate [{off_scenario}]: obs-off {off_best:,.0f} events/s, "
        f"obs-on {on_best:,.0f} events/s -> overhead {overhead_pct:+.2f}% "
        f"(allowance {args.max_overhead_pct:.2f}%)"
    )

    failed = False
    if overhead_pct > args.max_overhead_pct:
        print(
            f"overhead gate: FAIL — enabling observability costs "
            f"{overhead_pct:.2f}% throughput, above the {args.max_overhead_pct:.2f}% "
            f"allowance. Hot-path recording grew too expensive; move work to "
            f"drain/settle time or batch the records.",
            file=sys.stderr,
        )
        failed = True

    if args.budget:
        budget = load_object(args.budget)
        floor = budget.get("min_events_per_sec")
        if budget.get("scenario") != off_scenario:
            print(
                f"overhead gate: budget file covers "
                f"'{budget.get('scenario')}', not '{off_scenario}'",
                file=sys.stderr,
            )
            return EXIT_MALFORMED
        if floor is not None and off_best < float(floor):
            print(
                f"overhead gate: FAIL — obs-off throughput {off_best:,.0f} "
                f"events/s is below the committed floor of {float(floor):,.0f} "
                f"(the disabled-obs hot path itself regressed).",
                file=sys.stderr,
            )
            failed = True

    if failed:
        return 1
    print("overhead gate: OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--off", nargs="+", required=True,
                        help="bench JSON records run WITHOUT --obs")
    parser.add_argument("--on", nargs="+", required=True,
                        help="bench JSON records run WITH --obs")
    parser.add_argument("--max-overhead-pct", type=float, default=3.0)
    parser.add_argument("--budget", default=None,
                        help="optional budget JSON re-enforcing its "
                             "min_events_per_sec floor on the obs-off runs")
    args = parser.parse_args()  # a usage error exits 2 on its own
    return run_gate("overhead gate", lambda: check(args))


if __name__ == "__main__":
    sys.exit(main())
