"""The torgrad benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gradient-ladder --seed 1 \\
        --seconds 40 --trace 0

A closed loop with one caller and no threads.  Each workload runs in a fresh
interpreter (perfbench/worker.py), which calls ``torgrad.pipeline.main``
in-process: one untimed warm-up pass over the workload's invocation list,
then timed passes until ``--seconds`` have gone by.  The oracle in
perfbench/workloads.py checks every pass.

Timed seconds are scaled to a nominal host speed (perfbench/calibrate.py):
the shared host this was built on runs up to twice as slow for minutes at a
time, which no statistic over one run removes.  ``wall_s`` and
``ops_per_s`` are medians over the timed passes of the scaled pass time;
``setup_s`` is the median of scaled cold starts.  The seconds as measured
are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
``--workload all`` runs every workload of BENCHMARK.json in turn and prints
the end-to-end table.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

``gradient-cyclic`` is defined and checked like the other workloads but is
not in BENCHMARK.json: with three workloads, runs long enough to be steady on
a shared 2-core host do not fit the time budget of a full set of benchmark
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# cold starts per run, half before and half after the workload, so that
# they sample the machine at two moments
SETUP_SAMPLES = 12
SETUP_ARGV = ("-m", "torgrad.pipeline", "verify", "gabber", "--trials", "0")
WORKER_TIMEOUT_S = 160


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(samples: int) -> tuple:
    """Cold starts of a fresh interpreter on a no-op argv: (seconds scaled
    to nominal host speed, errors).  The host's speed is probed right before
    and after each start (calibrate.py).  One untimed start first, so
    compiled bytecode exists as it would for a user."""
    times, errors = [], []
    for k in range(samples + 1):
        before = calibrate.speed_probe()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        after = calibrate.speed_probe()
        if proc.returncode != 0 or "failures=0 PASS" not in proc.stdout:
            errors.append(f"setup: exit code {proc.returncode}, "
                          f"{proc.stderr.strip()[-300:]}")
        if k:
            times.append(elapsed * calibrate.NOMINAL_S * 2 / (before + after))
    return times, errors


def run_worker(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         str(seconds), "1" if trace else "0"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"tail n/a (n={n}, needs 20 for a percentile above p50)"
    pct = (n - 10) * 100 // n
    q = statistics.quantiles(values, n=100)[pct - 1]
    return f"p{pct}={q:.6g}"


def end_to_end(workload: str, seed: int, seconds: int, spec: dict) -> tuple:
    setup, errors = measure_setup(SETUP_SAMPLES // 2)
    res = run_worker(workload, seed, seconds, trace=False)
    after, more_errors = measure_setup(SETUP_SAMPLES // 2)
    setup, errors = setup + after, errors + more_errors
    walls = [sum(times) for times in res["scaled"]]
    raw = [sum(times) for times in res["parts"]]
    samples = {"wall_s": walls, "ops_per_s": [res["ops"] / w for w in walls],
               "setup_s": setup}
    values = {"wall_s": statistics.median(walls),
              "ops_per_s": statistics.median(samples["ops_per_s"]),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": res["peak_rss_mb"],
              "pass_ratio": 1 - res["failed"] / res["attempted"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{workload} seed={seed}: {res['ops']} ops per pass, "
          f"{len(walls)} timed passes after one warm-up pass")
    for name, unit in units.items():
        line = f"  {name} = {values[name]:.6g} {unit}"
        if name in samples:
            line += (f" (median, {tail(samples[name])}, "
                     f"n={len(samples[name])})")
        print(line)
    print(f"  fail_ratio = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    print("  pass seconds at nominal speed:             "
          + " ".join(f"{w:.4g}" for w in walls))
    print("  pass seconds as measured, probes left out: "
          + " ".join(f"{w:.4g}" for w in raw))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    messages = errors + res["messages"]
    return metrics, res["attempted"], res["failed"] + len(errors), messages


def per_layer(workload: str, seed: int, seconds: int, spec: dict) -> tuple:
    res = run_worker(workload, seed, seconds, trace=True)
    trace = res["trace"]
    metrics, absent = {}, []
    for m in spec["per_layer"]:
        if m["name"] not in trace:
            absent.append(m["name"])
        metrics[m["name"]] = {"value": trace.get(m["name"], 0),
                              "unit": m["unit"]}
    wall = trace["trace.wall_s"]
    print(f"{workload} seed={seed}: traced pass {wall:.4g} s, "
          f"overhead ratio {trace['trace.overhead_ratio']:.4g}")
    layers = sorted(((v, k[6:-7]) for k, v in trace.items()
                     if k.startswith("layer.") and k.endswith(".self_s")),
                    reverse=True)
    print("  layer self time: "
          + ", ".join(f"{name} {v / wall:.1%}" for v, name in layers)
          + f", pipeline {trace['pipeline.share']:.1%}")
    top = sorted((v, k[:-2]) for k, v in trace.items()
                 if k.endswith(".s") and not k.startswith("trace."))[::-1]
    print("  busiest: " + ", ".join(f"{k} {v / wall:.1%}"
                                    for v, k in top[:6]))
    print(f"  per level (cells, nnz, max coeff bits): "
          f"{trace['discretize.per_level']}")
    if absent:
        print(f"  absent (no such function to wrap): {', '.join(absent)}")
    return metrics, res["attempted"], res["failed"], res["messages"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torgrad" / "pipeline.py").is_file():
        print(f"no torgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(workloads.WORKLOADS):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, messages = {}, 0, 0, []
    for workload in chosen:
        m, a, f, msgs = measure(workload, args.seed, args.seconds, spec)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted, failed = attempted + a, failed + f
        messages += msgs
    for text in messages[:10]:
        print(f"check failed: {text}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not messages,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
