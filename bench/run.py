"""chainorder benchmark: one seeded workload per run.

    python3 bench/run.py --workload compare-warm --seed 1 --seconds 25 --trace 0

The program is imported from the `src` directory next to this one; a
checkout without it is refused with exit code 2.  A run is a sequence
of windows until --seconds have passed.  Each window imports the
package afresh and runs the workload's warm-up, three times (the
set-ups, reported as the median `setup_s`), then whole rounds for at
least WINDOW_S seconds, or exactly one round on workloads that need
cold state.  Set-up times and operation latencies are scaled to a
reference speed by a calibration loop timed around the set-ups and
every round, because the CPU speed of a shared machine drifts.  The
last line of standard output is one JSON object; a
readable summary goes to standard error.  With --trace 1 the layer
entry points are wrapped in spans and the per-layer metrics (plain
wall-clock span times) are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

WINDOW_S = 4.0
SETUPS_PER_WINDOW = 3
# What `calibrate` takes at reference speed: reported times are the times
# a machine running `calibrate` in exactly this long would show.
CALIBRATION_REFERENCE_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "cli.main.calls", "cli.main.self_s",
    "chains.index_of.calls", "chains.index_of.s",
    "chains.compare.calls", "chains.compare.s", "chains.spot_check_s",
    "chains.trace.calls", "chains.trace.s",
    "chains.pullback_level.calls", "chains.pullback_level.s",
    "catalog.certificate.calls", "catalog.certificate.s",
    "catalog.level_build.calls", "catalog.links_built",
    "catalog.level_build_s.arc", "catalog.level_build_s.s1", "catalog.level_build_s.s2",
    "catalog.level_build_s.s3", "catalog.level_build_s.t",
    "catalog.validate.calls", "catalog.validate.self_s",
    "inverse_limit.order.calls", "inverse_limit.order.self_s",
    "inverse_limit.sign_certificate.calls", "inverse_limit.sign_certificate.self_s",
    "inverse_limit.coordinate.calls", "inverse_limit.coordinate.self_s",
    "plmaps.preimages.calls", "plmaps.preimages.s",
    "foundations.epset.calls", "foundations.epset.self_s",
    "ultrafilter.decide.calls", "ultrafilter.decide.self_s", "ultrafilter.extended.calls",
    "knaster_witness.build.calls", "knaster_witness.build.self_s",
    "orientation.reach.calls", "orientation.reach.self_s",
    "orientation.decompose.calls", "orientation.decompose.self_s",
] + [f"acceptance.criterion_{n:02d}_s" for n in range(1, 12)]

MODULES = (
    "acceptance", "catalog", "chains", "cli", "foundations", "inverse_limit",
    "knaster_witness", "orientation", "plmaps", "ultrafilter",
)


def layer_unit(name: str) -> str:
    return "count" if name.endswith((".calls", "links_built")) else "s"


class Program:
    """The chainorder package, importable afresh from one source tree."""

    def __init__(self, src: Path) -> None:
        self.src = src

    def unload(self) -> None:
        for name in [n for n in sys.modules if n == "chainorder" or n.startswith("chainorder.")]:
            del sys.modules[name]
        for name in MODULES:
            self.__dict__.pop(name, None)
        gc.collect()

    def load(self) -> None:
        package = importlib.import_module("chainorder")
        if Path(package.__file__).resolve().parent != (self.src / "chainorder").resolve():
            raise ImportError(f"chainorder imported from {package.__file__}, not {self.src}")
        self.package = package
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"chainorder.{name}"))

    def modules(self) -> list:
        return [self.package] + [getattr(self, name) for name in MODULES]


class OpTimeout(Exception):
    """An operation ran past its time budget."""


def _raise_timeout(signum, frame):
    raise OpTimeout("time budget exceeded")


class Ops:
    """The closed-loop client: times each operation, then checks it."""

    def __init__(self, tracer: spans.Tracer | None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []

    def run(self, call, check, budget: float | None = None) -> None:
        self.attempted += 1
        if budget is not None:
            previous = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, budget)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            kind = f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
            self.failures[kind] = self.failures.get(kind, 0) + 1
            return
        finally:
            elapsed = time.perf_counter() - start
            if budget is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.latencies.append(elapsed)
        problem = check(result)
        if problem:
            self.problems.append(problem)

    def record(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(name, value)


def accumulate(total: dict, before: dict, after: dict) -> None:
    for name, value in after.items():
        total[name] = total.get(name, 0.0) + value - before.get(name, 0.0)


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed piece of standard-library
    work like the program's: exact rationals and a tuple-keyed dict of
    20000 entries, so it feels memory contention as well as CPU speed."""
    begin = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(k, 3 * k + 1) * Fraction(2, k + 7)
    table = {}
    for k in range(20000):
        table[(k, k % 7)] = total
    return time.perf_counter() - begin


def rescale(previous: float) -> tuple[float, float]:
    """A fresh calibration, and the factor that brings the times measured
    since the `previous` one to reference speed."""
    current = calibrate()
    return current, CALIBRATION_REFERENCE_S / ((previous + current) / 2)


def timing_metrics(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": 1000 * statistics.median(ordered),
        "op_p99_ms": 1000 * percentile(ordered, 99),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "chainorder" / "__init__.py").is_file():
        print(f"error: no chainorder sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("CHAINORDER_REPORT_DIR", None)  # reports go to stdout only

    workload = workloads.WORKLOADS[args.workload]()
    program = Program(src)
    tracer = spans.Tracer() if args.trace else None

    ops = Ops(tracer)
    rng = random.Random(args.seed)
    raw_setups: list[float] = []
    setup_times: list[float] = []  # at reference speed
    scaled: list[float] = []  # latencies at reference speed
    windows = 0
    setup_work: dict[str, float] = {}
    round_work: dict[str, float] = {}
    rounds = 0
    started = time.perf_counter()
    calibrate()  # the first call also warms the allocator
    speed = calibrate()
    while not windows or time.perf_counter() - started < args.seconds:
        # Set-up: what a fresh process does before its first operation,
        # repeated because a single import is short enough to be noisy.
        window_setups = []
        for _ in range(SETUPS_PER_WINDOW):
            program.unload()
            before = tracer.snapshot() if tracer else {}
            begin = time.perf_counter()
            program.load()
            if tracer is not None:
                spans.warn_missing(spans.install(tracer, program))
            workload.setup(program, random.Random(args.seed))
            window_setups.append(time.perf_counter() - begin)
            after = tracer.snapshot() if tracer else {}
            accumulate(setup_work, before, after)
        calibrate()  # pays for re-growing the heap the fresh import left
        speed, scale = rescale(speed)
        raw_setups += window_setups
        setup_times += [t * scale for t in window_setups]

        windows += 1
        begin = time.perf_counter()
        while True:
            first = len(ops.latencies)
            workload.round(program, ops, rng)
            rounds += 1
            speed, scale = rescale(speed)
            scaled += [t * scale for t in ops.latencies[first:]]
            if workload.cold_rounds or time.perf_counter() - begin >= WINDOW_S:
                break
        accumulate(round_work, after, tracer.snapshot() if tracer else {})
    wall = time.perf_counter() - started

    if not ops.latencies:
        print("error: every operation failed", file=sys.stderr)
        return 1
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        **timing_metrics(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = {"setup_s": statistics.median(raw_setups), **timing_metrics(ops.latencies)}

    summary = [
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{rounds} rounds in {wall:.2f} s, {ops.attempted} attempted, {ops.failed} failed, "
        f"{len(ops.latencies)} timed",
    ]
    summary += [f"  {name} = {value:.6g} {END_TO_END[name]}" for name, value in end_to_end.items()]
    summary += ["  unscaled, whole run: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items())]
    summary += [f"  {windows} windows; set-ups at reference speed: " + " ".join(f"{t:.4f}" for t in setup_times)]
    summary += [f"  failed x{count}: {kind}" for kind, count in sorted(ops.failures.items())]
    summary += [f"  WRONG: {problem}" for problem in ops.problems[:10]]
    print("\n".join(summary), file=sys.stderr)

    if tracer is None:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in end_to_end.items()}
    else:
        # One average set-up plus one average round.
        metrics = {
            name: {
                "value": setup_work.get(name, 0.0) / len(setup_times)
                + round_work.get(name, 0.0) / rounds,
                "unit": layer_unit(name),
            }
            for name in PER_LAYER
        }
    result = {
        "correct": not ops.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
