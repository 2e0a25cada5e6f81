#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the AppLeS scheduling stack.

Run from the repository root:

    python3 appbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds the `appbench` worker (a Cargo package of its own in
this directory) with `cargo build --release --offline`, into
`$CARGO_TARGET_DIR` or `.bench_build`. Then:

* `--trace 0` runs the workload's untraced regime runs in fresh worker
  processes, one pass after another until `--seconds` have passed (at
  least two passes), and one set-up worker. It reports the end-to-end
  metrics: medians over passes for host time and memory, the outcome
  metrics of the (deterministic) records.
* `--trace 1` runs one traced worker and reports the per-layer metrics.

Every pass must reproduce the same outcome digest over all job records;
a failed run, a digest that differs between passes, or a metric set that
differs from BENCHMARK.json makes the result incorrect, and the script
exits with code 1 after printing it. The last line of standard output is
always the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2-selfish-2h", "tree16-crash-race", "fattree128-central")
# A run must end within 180 s of its start, build excluded.
DEADLINE_S = 170.0
SETUP_REPS = 9
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "sim_turnaround_p50_s",
              "sim_turnaround_mean_s", "jobs_completed_frac")
INPUT_PROPS = ("hosts", "jobs", "submit_window_s", "crashes_before_last_submit")


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "appbench")


def worker(binary, deadline, *args):
    """Run one worker to completion and parse its JSON line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before `%s`" % " ".join(args))
    try:
        proc = subprocess.run([binary, *args], capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("`%s` ran past the deadline" % " ".join(args))
    if proc.returncode != 0:
        raise BenchError("`%s` failed: %s" % (" ".join(args), proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("`%s` printed no result" % " ".join(args))
    return json.loads(lines[-1])


def untraced(binary, workload, seed, seconds, deadline):
    start = time.monotonic()
    passes, errors = [], []
    while len(passes) + len(errors) < 2 or time.monotonic() - start < seconds:
        try:
            passes.append(worker(binary, deadline, "pass", workload, str(seed)))
        except BenchError as e:
            errors.append(str(e))
            break
    setup = worker(binary, deadline, "setup", workload, str(seed), str(SETUP_REPS))

    per_pass = passes[0]["jobs_submitted"] if passes else 1
    attempted = per_pass * (len(passes) + len(errors))
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        errors.append("outcome digests differ between passes: %s" % sorted(digests))
        # No pass can be trusted when they disagree.
        completed = 0
    else:
        completed = sum(p["jobs_completed"] for p in passes)
    first = passes[0] if passes else {}

    def median_of(key):
        return statistics.median(p[key] for p in passes) if passes else None

    metrics = dict(zip(END_TO_END, (
        median_of("wall_s"),
        setup["setup_s"],
        median_of("peak_rss_mb"),
        first.get("sim_turnaround_p50_s"),
        first.get("sim_turnaround_mean_s"),
        completed / attempted,
    )))
    inputs = {k: first.get(k) for k in INPUT_PROPS}
    inputs["passes"] = len(passes)
    inputs["regime_wall_s"] = {k[:-2]: v for k, v in first.items()
                               if k in ("selfish_s", "batch_s", "fractional_s")}
    return metrics, attempted, attempted - completed, errors, inputs


def traced(binary, workload, seed, deadline):
    out = worker(binary, deadline, "trace", workload, str(seed))
    inputs = {k: out[k] for k in INPUT_PROPS}
    attempted = out["jobs_submitted"]
    return out["metrics"], attempted, attempted - out["jobs_completed"], [], inputs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bench = spec()
        binary = build()
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            metrics, attempted, failed, errors, inputs = traced(
                binary, args.workload, args.seed, deadline)
            declared = bench["per_layer"]
        else:
            metrics, attempted, failed, errors, inputs = untraced(
                binary, args.workload, args.seed, args.seconds, deadline)
            declared = bench["end_to_end"]
    except BenchError as e:
        print("appbench: %s" % e, file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        errors.append("metric names differ from BENCHMARK.json: printed-only %s, declared-only %s"
                      % (sorted(set(metrics) - set(units)), sorted(set(units) - set(metrics))))
    if any(v is None for v in metrics.values()):
        errors.append("metrics without a value: %s"
                      % sorted(k for k, v in metrics.items() if v is None))
    for e in errors:
        print("appbench: %s" % e, file=sys.stderr)

    print("workload %s seed %d inputs %s" % (args.workload, args.seed, json.dumps(inputs)))
    for name in units:
        if name in metrics:
            print("  %-32s %16.6f %s" % (name, metrics[name] or 0.0, units[name]))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units.get(k, "")} for k in metrics},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
