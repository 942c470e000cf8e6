#!/usr/bin/env python3
"""Multicore scaling-regression gate.

Reads one or more scaling-bench JSON records (bench_session_scaling's
``session_scaling`` format with ``threads`` points, and/or
bench_runner_scaling's ``runner_scaling`` format with ``jobs`` points)
and FAILS (exit 1) when the host actually has multiple cores but the
measured speedup at the target width falls short of the floor:

    check_scaling.py [--min-speedup 1.5] [--width 4] <bench_json>...

The gate only arms itself when the record's own ``hardware_concurrency``
is >= --width: dev containers exposing a single core report ~1.0x curves
by construction, and failing those would just teach people to delete the
gate. CI runners (ubuntu-latest: 4 vCPUs) are the hardware this gate is
written for — a push that accidentally serializes the prepare or plan
phase flattens the curve and fails the job.

Exit codes: 0 gate passed (or not armed), 1 scaling regression,
2 usage / malformed input.
"""

import argparse
import sys

from gate_common import load_object, run_gate


def check_record(path: str, width: int, floor: float) -> bool:
    """Returns True when the record passes (or the gate is not armed)."""
    record = load_object(path)

    bench = record.get("bench", "?")
    hardware = int(record.get("hardware_concurrency", 0))
    points = record.get("points", [])
    # Shape-check before any lookup: a truncated bench run (killed mid
    # JSON, emitted "points": null, or a point without its speedup)
    # must produce the documented exit 2 diagnosis, not a traceback.
    if not isinstance(points, list) or not all(
        isinstance(p, dict) for p in points
    ):
        raise ValueError(f"'points' is not a list of objects in {path}")
    if not points:
        raise ValueError(
            f"'points' is empty in {path} — the bench produced no "
            f"measurements (truncated run?)"
        )
    # A record carries either a threads curve or a jobs curve.
    axis = "threads" if any("threads" in p for p in points) else "jobs"
    label = f"{bench} ({axis}={width}, hardware_concurrency={hardware})"

    # Arming comes BEFORE the point lookup: a single-core host is never
    # failed, whatever its curve looks like.
    if hardware < width:
        print(
            f"scaling gate [{label}]: NOT ARMED — host exposes {hardware} "
            f"core(s) < {width}"
        )
        return True

    target = next((p for p in points if int(p.get(axis, 0)) == width), None)
    if target is None:
        # Malformed/trimmed input on a multicore host is a usage error
        # (exit 2 via the caller), not a scaling regression.
        raise ValueError(f"no {axis}={width} point in {path}")

    if not isinstance(target.get("speedup"), (int, float)):
        raise ValueError(
            f"{axis}={width} point in {path} has no numeric 'speedup' "
            f"(got {target.get('speedup')!r})"
        )
    speedup = float(target["speedup"])

    print(f"scaling gate [{label}]: measured {speedup:.2f}x, floor {floor:.2f}x")
    if speedup < floor:
        print(
            f"scaling gate [{label}]: FAIL — {speedup:.2f}x is below the "
            f"{floor:.2f}x floor on a {hardware}-core host. The parallel "
            f"fraction regressed (a phase fell back to serial, a shared "
            f"lock appeared, or batches stopped forming).",
            file=sys.stderr,
        )
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("benches", nargs="+", help="scaling-bench JSON files")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--width", type=int, default=4)
    args = parser.parse_args()

    # Every record is checked, so one run reports every failing curve;
    # the worst code wins (a malformed record's 2 over a regression's 1).
    return max(
        run_gate(
            f"scaling gate [{path}]",
            lambda path=path: (
                0 if check_record(path, args.width, args.min_speedup) else 1
            ),
        )
        for path in args.benches
    )


if __name__ == "__main__":
    sys.exit(main())
