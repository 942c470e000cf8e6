#!/usr/bin/env python3
"""The repository benchmark: builds the simulator from source, runs one
workload, checks every session's output and prints the metrics.

    python3 perfbench/run.py --workload gossip_8k --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, by name and unit

Run it from the repository root. --trace 0 prints the end-to-end metrics
(tracing off); --trace 1 makes the separate traced run and prints the
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The full record (provenance,
contention, every sample, every session check, the per-layer table and
the benchmark-side spans) is written under the build directory, which is
$CARGO_TARGET_DIR when set and .bench_build otherwise. The exit code is 0
only when every session passed its checks. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Process CPU seconds per wall second each workload gets on a quiet 4-core
# host: the 8k sessions keep one event-loop thread busy plus the forked
# phases (more of them on the quantized grid); the sweep keeps its four
# runner workers busy, less the tail of its last replications. A run
# below CONTENTION_FLOOR of that was starved by the host and is flagged.
EXPECTED_CPU_RATIO = {"gossip_8k": 1.15, "quantized_8k": 1.3, "fault_sweep_1k": 3.6}
CONTENTION_FLOOR = 0.85

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "continuity": "fraction",
}
HEADLINE = ("stable_continuity", "continuity_index", "control_overhead", "prefetch_overhead")
BENCH_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds bench.cpp (incremental after the first run)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        raise RuntimeError("no simulator sources under %s/src" % ROOT)
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError("build failed: %s" % " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the
    program even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except (OSError, ValueError):
        return None


def check_session(s):
    """Output checks for one session; returns the list of failures."""
    problems = []
    if s["fingerprint"] != s["reference"]:
        problems.append("fingerprint %s != threads-1 reference %s" % (s["fingerprint"], s["reference"]))
    for key in HEADLINE:
        if not isinstance(s[key], (int, float)) or not math.isfinite(s[key]):
            problems.append("%s is not finite (%r)" % (key, s[key]))
    c = s["stable_continuity"]
    if isinstance(c, (int, float)) and not 0.0 <= c <= 1.0:
        problems.append("continuity %r outside [0, 1]" % c)
    if s["segments_delivered"] > s["segments_emitted"] * s["nodes"]:
        problems.append("delivered %d > emitted %d x nodes %d" % (
            s["segments_delivered"], s["segments_emitted"], s["nodes"]))
    if s["duplicate_deliveries"] > s["segments_delivered"]:
        problems.append("duplicates %d > delivered %d" % (
            s["duplicate_deliveries"], s["segments_delivered"]))
    return problems


def evaluate(raw):
    """Checks every session of a raw bench.cpp record and reduces its
    samples to the BENCHMARK.json metrics. Returns (result, failures)."""
    sessions = raw.get("sessions") or []
    failures = []
    failed = 0
    for s in sessions:
        problems = check_session(s)
        failed += bool(problems)
        failures += ["%s session %d: %s" % (s["role"], s["index"], p) for p in problems]
    references = sum(1 for s in sessions if s["role"] == "reference")
    if references != raw["replications"]:
        failures.append("expected %d reference sessions, found %d" % (raw["replications"], references))

    if raw["trace"] == 0:
        metrics = {
            "wall_s": statistics.median(raw["wall_s"]),
            "setup_s": statistics.median(raw["setup_s"]),
            "cpu_s": statistics.median(raw["cpu_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "continuity": statistics.median(raw["continuity"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]} for m in raw["layers"]}
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            failures.append("metric %s is not finite (%r)" % (name, m["value"]))
    if raw["trace"] == 0 and any(m["value"] <= 0 for m in metrics.values()):
        failures.append("an end-to-end metric is not positive")
    if failures and failed == 0:
        failed = 1  # a record-level failure still fails the run
    result = {
        "correct": not failures,
        "attempted": max(1, len(sessions)),
        "failed": failed,
        "metrics": metrics,
    }
    return result, failures


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def contention(workload, raw):
    walls, cpus = raw["wall_s"], raw["cpu_s"]
    ratio = statistics.median(c / w for c, w in zip(cpus, walls) if w > 0)
    expected = EXPECTED_CPU_RATIO[workload]
    return {
        "cpu_per_wall": ratio,
        "expected_cpu_per_wall": expected,
        "starved": ratio < CONTENTION_FLOOR * expected,
    }


def run_one(binary, workload, seed, seconds, trace, horizon, out_dir):
    load = loadavg()
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if horizon:
        cmd += ["--horizon", str(horizon)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=BENCH_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (binary, proc.returncode))
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    result, failures = evaluate(raw)
    declared = declared_metrics(trace)
    if declared is not None and declared != set(result["metrics"]):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s" % sorted(
            declared ^ set(result["metrics"])))
    record = {
        "provenance": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "hardware_concurrency": raw["hardware_concurrency"],
            "compiler": raw["compiler"],
            "build_type": raw["build_type"],
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "horizon": raw["horizon"],
            "loadavg_at_start": load,
            "host_probe_ns": raw["host_probe_ns"],
        },
        "contention": contention(workload, raw),
        "result": result,
        "check_failures": failures,
        "raw": raw,
    }
    os.makedirs(os.path.join(out_dir, "records"), exist_ok=True)
    stem = os.path.join(out_dir, "records", "%s-seed%d-trace%d" % (workload, seed, trace))
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    if trace:
        with open(stem + "-layers.json", "w") as f:
            json.dump(raw["layers"], f, indent=1)
    return record, stem + ".json"


def report(record, path):
    p, c, r = record["provenance"], record["contention"], record["result"]
    print("perfbench %s seed=%d trace=%d horizon=%gs: nproc %d, hardware_concurrency %d, "
          "%s, %s, loadavg %s" % (p["workload"], p["seed"], p["trace"], p["horizon"], p["nproc"],
                                 p["hardware_concurrency"], p["build_type"], p["compiler"],
                                 p["loadavg_at_start"]))
    for name, m in r["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  host probe %.2f ns/step before, %.2f after" % tuple(p["host_probe_ns"]))
    print("  cpu/wall %.2f vs expected %.2f: %s" % (
        c["cpu_per_wall"], c["expected_cpu_per_wall"],
        "HOST STARVED - timings not trustworthy" if c["starved"] else "ok"))
    print("  checks: %d of %d sessions failed" % (r["failed"], r["attempted"]))
    for failure in record["check_failures"]:
        print("    FAILED: %s" % failure)
    print("  record: %s" % os.path.relpath(path))
    if c["starved"]:
        log("perfbench: warning: %s cpu/wall %.2f is below %.0f%% of the expected %.2f" % (
            p["workload"], c["cpu_per_wall"], 100 * CONTENTION_FLOOR, c["expected_cpu_per_wall"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(EXPECTED_CPU_RATIO) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=float, default=0,
                        help="simulated seconds per session (default: the workload's own)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 2
    workloads = sorted(EXPECTED_CPU_RATIO) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        try:
            record, path = run_one(binary, workload, args.seed, args.seconds, args.trace,
                                   args.horizon, out_dir)
        except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
            log("perfbench: %s: %s" % (workload, e))
            return 2
        report(record, path)
        results.append(record["result"])
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({w: r for w, r in zip(workloads, results)}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
