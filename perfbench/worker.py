"""One run of one workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Runs an untimed warm-up pass, then timed passes of the workload's invocation
list until SECONDS have gone by.  With TRACE 1 the timed passes alternate
between untraced and traced ones.  Untraced passes run under the speed meter
of calibrate.py; traced ones do not, so that no probe falls inside a span.
Every pass is checked by the oracle.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import torgrad.pipeline  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = ROOT / ".bench_work"
MIN_PASSES = 3
MAX_MESSAGES = 10
# counts that must repeat exactly from one traced pass to the next
COUNT_SUFFIXES = (".calls", "trace.spans", "groups.order_max",
                  "discretize.boundary_cells", "discretize.boundary_nnz",
                  "discretize.max_coeff_bits", "discretize.per_level")


def run_pass(calls: list, meter=None) -> tuple:
    """Seconds per invocation, and (exit code, stdout) per invocation.
    With a meter (see calibrate.py), also the seconds per invocation scaled
    to nominal host speed; then both leave out the meter's probes."""
    times, scaled, outputs = [], [], []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        timer = meter if meter is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with timer, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = torgrad.pipeline.main(argv)
        except Exception:  # counted as failed operations, the run goes on
            rc = "exception: " + traceback.format_exc(limit=3)
        if meter is None:
            times.append(time.perf_counter() - start)
        else:
            times.append(meter.work_s)
            scaled.append(meter.nominal_s)
        outputs.append((rc, out.getvalue()))
    return times, scaled, outputs


class Ledger:
    """Attempted and failed operations over every pass of the run."""

    def __init__(self, invs: list):
        self.invs = invs
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, outputs: list) -> None:
        for inv, (rc, out) in zip(self.invs, outputs):
            failed, messages = inv.check(rc, out)
            self.attempted += inv.ops
            self.failed += failed
            self.messages.extend(messages)
            del self.messages[MAX_MESSAGES:]

    def problem(self, text: str) -> None:
        """A failed check of the benchmark itself; counts as a failure."""
        self.failed += 1
        self.messages.append(text)
        del self.messages[MAX_MESSAGES:]


def main(argv: list) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), \
        argv[3] == "1"
    invs = workloads.invocations(workload, seed)
    WORK.mkdir(exist_ok=True)
    calls = []
    for k, inv in enumerate(invs):
        path = None
        if inv.config is not None:
            path = WORK / f"{workload}-seed{seed}-{k}.json"
            path.write_text(json.dumps(inv.config, indent=1))
        calls.append(inv.argv(str(path)))
    ledger = Ledger(invs)

    meter = calibrate.Meter()
    _, _, outputs = run_pass(calls, meter)  # warm-up
    ledger.check(outputs)
    reference = [out for _, out in outputs]

    tracer = Tracer() if trace else None
    parts, scaled, traced = [], [], []
    start = time.perf_counter()
    while True:
        times, nominal, outputs = run_pass(calls, meter)
        parts.append(times)
        scaled.append(nominal)
        ledger.check(outputs)
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install(run_id=len(traced))
            try:
                times, _, outputs = run_pass(calls)
            finally:
                tracer.uninstall()
            ledger.check(outputs)
            if [out for _, out in outputs] != reference:
                ledger.problem("output with tracing differs from output "
                               "without it")
            traced.append(tracer.summarize(first, sum(times)))
        enough = len(traced) >= 2 if trace else len(parts) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            break

    result = {"attempted": ledger.attempted, "failed": ledger.failed,
              "messages": ledger.messages, "parts": parts,
              "scaled": scaled,
              "ops": sum(inv.ops for inv in invs),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        result["trace"] = trace_metrics(traced, parts, workload, ledger)
        tracer.write(WORK / f"spans-{workload}.jsonl")
    print(json.dumps(result))
    return 0


def trace_metrics(traced: list, parts: list, workload: str,
                  ledger: Ledger) -> dict:
    """The fastest traced pass; counts must be the same in each."""
    for other in traced[1:]:
        for key, value in other.items():
            if key.endswith(COUNT_SUFFIXES) and value != traced[0][key]:
                ledger.problem(f"count {key} differs between traced passes: "
                               f"{traced[0][key]} vs {value}")
    for summary in traced:
        missing = set(workloads.EXPECTED_LAYERS[workload]) - set(
            summary["layers_reached"])
        if missing:
            ledger.problem(f"traced pass reached no span in {sorted(missing)}")
    out = dict(min(traced, key=lambda t: t["trace.wall_s"]))
    # Traced passes run without the meter, so that its probes fall in no
    # span; the untraced passes they alternate with leave the probes out.
    out["trace.overhead_ratio"] = (
        statistics.median(t["trace.wall_s"] for t in traced)
        / statistics.median(map(sum, parts)))
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
