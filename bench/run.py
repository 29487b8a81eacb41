"""invcat benchmark runner.

    python3 bench/run.py --workload construct|query|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S     # all three, one after another

One process, one thread, closed loop: the next op starts when the previous
one returns.  Run from the root of a source checkout; the package is
imported from ``src/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured over
whole rounds of the workload until ``--seconds`` of op time have passed
(and at least MIN_OPS ops, so that ten samples lie beyond the 90th
percentile).  See ``workloads.Workload`` for what a round is.  With ``--trace 1`` the run makes two identical set-ups, each
importing its own copy of the package, traces the second copy, and runs one
round of ops alternating between the copies; it reports the per-module
metrics of the traced round, so that counts are exact and comparable
between commits, and the traced/untraced time ratio.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("construct", "query", "cli")
# set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so that cheap set-ups get a steadier median
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
MIN_OPS = 100


def fresh_invcat():
    """Import the package from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "invcat" or n.startswith("invcat.")]:
        del sys.modules[name]
    invcat = importlib.import_module("invcat")
    importlib.import_module("invcat.cli")
    if not os.path.abspath(invcat.__file__).startswith(SRC + os.sep):
        raise ImportError(f"invcat was imported from {invcat.__file__}, not from {SRC}")
    return invcat


def setup(name: str, seed: int, tmp: str, expected: dict):
    invcat = fresh_invcat()
    rng = random.Random(seed)
    if name == "construct":
        return invcat, workloads.build_construct(invcat, rng)
    if name == "query":
        return invcat, workloads.build_query(invcat, rng, expected)
    return invcat, workloads.build_cli(invcat, rng, tmp, ROOT)


def run_op(op, state: dict):
    start = time.perf_counter()
    try:
        result = op.call(state)
    except Exception as exc:  # counted as a failed op by the gate
        result = exc
    elapsed = time.perf_counter() - start
    if op.keep is not None:
        state[op.keep] = result
    return result, elapsed


class Tally:
    """Latencies of the timed ops and the names of those that failed the gate."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.latencies = array("d")  # compact, so memory does not grow with speed
        self.busy = 0.0
        self.failures: dict[str, int] = {}

    def record(self, op, result, elapsed: float) -> None:
        self.latencies.append(elapsed)
        self.busy += elapsed
        if not workloads.passes(op, result, self.expected):
            self.failures[op.name] = self.failures.get(op.name, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No op failed except the listed known defects."""
        return set(self.failures) <= set(workloads.KNOWN_DEFECTS)


def timed_run(work, tally: Tally, seconds: float) -> None:
    for batch in work.rounds():
        for op in batch:
            result, elapsed = run_op(op, work.state)
            tally.record(op, result, elapsed)
        if tally.busy >= seconds and len(tally.latencies) >= MIN_OPS:
            return


# bandwidth of the smoothed quantiles, as a share of the ranks
QUANTILE_BANDWIDTH = 0.05


def quantile(values, p: float) -> float:
    """Smoothed p-quantile, a kernel quantile estimator (Sheather and Marron,
    1990): a Gaussian-weighted mean of the order statistics around rank p*n,
    with a fixed bandwidth of QUANTILE_BANDWIDTH of the ranks.  Op latencies
    mix dozens of op kinds with wide gaps between them, so the plain sample
    quantile jumps from one kind to the next between runs; the weighted mean
    moves smoothly.  The bandwidth does not shrink with n, so runs holding
    two or three rounds of the same ops estimate the same quantity."""
    ordered = sorted(values)
    n = len(ordered)
    h = QUANTILE_BANDWIDTH
    lo, hi = max(0, int((p - 6 * h) * n)), min(n, int((p + 6 * h) * n) + 1)
    weights = [math.exp(-0.5 * (((i + 0.5) / n - p) / h) ** 2) for i in range(lo, hi)]
    return sum(w * x for w, x in zip(weights, ordered[lo:hi])) / sum(weights)


def end_to_end(name: str, seed: int, seconds: float, tmp: str, expected: dict) -> tuple[Tally, dict]:
    setups = []
    start = STARTED
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        if setups:
            # release the previous set-up and collect its garbage outside the timing
            work = None
            gc.collect()
            start = time.perf_counter()
        _, work = setup(name, seed, tmp, expected)
        setups.append(time.perf_counter() - start)
    tally = Tally(expected)
    timed_run(work, tally, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before sorting the latencies
    lat = tally.latencies
    metrics = {
        "ops_per_s": (len(lat) / tally.busy, "ops/s"),
        "op_ms.p50": (quantile(lat, 0.5) * 1e3, "ms"),
        "op_ms.p90": (quantile(lat, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return tally, metrics


def traced(name: str, seed: int, tmp: str, expected: dict) -> tuple[Tally, dict]:
    """One round on two identical set-ups, op by op: the second set-up's
    package copy is traced, the first is the untraced reference."""
    tally = Tally(expected)
    _, plain = setup(name, seed, tmp, expected)
    invcat, work = setup(name, seed, tmp, expected)
    tracer = spans.Tracer()
    spans.install(tracer, invcat)
    work.state["tracer"] = tracer
    untraced = traced_time = 0.0
    for reference, op in zip(next(plain.rounds()), next(work.rounds())):
        result, elapsed = run_op(reference, plain.state)
        tally.record(reference, result, elapsed)
        untraced += elapsed
        result, elapsed = run_op(op, work.state)
        tally.record(op, result, elapsed)
        traced_time += elapsed
        tracer.end_op()
    units = spans.per_layer_units()
    layer = spans.layer_metrics(tracer, traced_time / untraced)
    return tally, {k: (v, units[k]) for k, v in layer.items()}


def run_all(args) -> int:
    """Every workload in its own process, one after another, as a table."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        ratio = out["failed"] / out["attempted"]
        print(f"{name:10s} correct={out['correct']} attempted={out['attempted']} failed={out['failed']}")
        print(f"{name:10s} {'fail_ratio':42s} {ratio:14.6g} ratio")
        for metric, cell in out["metrics"].items():
            print(f"{name:10s} {metric:42s} {cell['value']:14.6g} {cell['unit']}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "invcat")):
        print(f"no invcat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("INVCAT_MAX_ELEMENTS", None)  # the cli default cap must be the built-in one
    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        expected = workloads.load_expected()
        if args.trace:
            tally, metrics = traced(args.workload, args.seed, tmp, expected)
        else:
            tally, metrics = end_to_end(args.workload, args.seed, args.seconds, tmp, expected)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when no other run is using it
            os.rmdir(os.path.dirname(tmp))
    attempted = len(tally.latencies)
    print(f"workload {args.workload}: {attempted} ops, {tally.failed} failed (fail_ratio {tally.failed / attempted:.6g})")
    for case, count in sorted(tally.failures.items()):
        known = "known defect" if case in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  failed {case} x{count} ({known})")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
