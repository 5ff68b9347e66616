"""Pipeline benchmark for hgtensor: one workload per run, one process.

    python3 pipebench/run.py --workload stats --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates its inputs from the seed, warms up on a
small instance, then runs whole rounds of the workload's operations as
one client in a closed loop until the timed operations add up to
``--seconds``.  Every output is checked against the benchmark's own
reference.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before NumPy is loaded, here and in
# the interpreters started to time set-up.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Stay on one CPU, so that the speed calibrations (speed.py) measure the
# CPU the operations run on.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 11
# Seconds of speed calibration (speed.py) before the first operation and
# after each one.
CALIBRATION_S = 0.5
IMPORT_PROBE = ("import time, speed; b = speed.block_seconds(0.05); "
                "t = time.perf_counter(); import hgtensor.cli; "
                "dt = time.perf_counter() - t; "
                "b = (b + speed.block_seconds(0.05)) / 2; "
                "print(repr(speed.at_reference(dt, b)))")


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import hgtensor.cli, at
    reference speed.

    One discarded probe first, so a checkout's first run does not time
    writing bytecode caches.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(HERE), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=60, check=True)
        samples.append(float(probe.stdout))
    return statistics.median(samples[1:])


class Tally:
    """Timed operations of a run and their outcomes.

    ``seconds`` is the wall time of the operations.  ``blocks`` holds the
    speed calibrations, made outside the timed region before the first
    operation and right after each one; ``scaled`` is the operations'
    time at reference speed, each scaled by the calibrations either side
    of it.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.scaled = 0.0
        self.blocks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passed_edges = 0
        self.unexpected: list[str] = []
        # Failures that show the fault the benchmark keeps (Op.known_fault).
        self.known: set[str] = set()

    def run_round(self, ops, on_op=None) -> None:
        """Run every operation once."""
        if not self.blocks:
            self.blocks.append(speed.block_seconds(CALIBRATION_S))
        for op in ops:
            if on_op is not None:
                on_op(self.attempted)
            start = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a crash is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            self.blocks.append(speed.block_seconds(CALIBRATION_S))
            self.seconds += elapsed
            self.scaled += speed.at_reference(elapsed, statistics.fmean(self.blocks[-2:]))
            self.attempted += 1
            if error is None:
                try:
                    op.check(result)
                except CheckFailed as exc:
                    error = str(exc)
                except (KeyError, ValueError) as exc:  # output not in the expected form
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error is None:
                self.passed_edges += op.edges
            else:
                self.failed += 1
                if op.known_fault is not None and op.known_fault(result):
                    self.known.add(f"{op.name}: {error}")
                else:
                    self.unexpected.append(f"{op.name}: {error}")
            del result


def warm_up(ops) -> list[str]:
    """One untimed round on the small instance; returns unexpected failures."""
    tally = Tally()
    tally.run_round(ops)
    return tally.unexpected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stats", "archive", "spectral", "homogenise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hgtensor" / "__init__.py").is_file():
        print(f"error: no hgtensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hgtensor

    if Path(hgtensor.__file__).resolve().parent != SRC / "hgtensor":
        print(f"error: imported hgtensor from {hgtensor.__file__}", file=sys.stderr)
        return 2
    from tracing import UNITS, Tracer, layer_metrics, wrapper_costs
    from workloads import WORKLOADS

    setup = None if args.trace else setup_seconds()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        make_round = WORKLOADS[args.workload]
        unexpected = warm_up(make_round(workdir, args.seed, True))
        ops = make_round(workdir, args.seed, False)
        tally = Tally()
        if args.trace:
            # Untraced and traced rounds alternate until the traced rounds
            # add up to --seconds.  The overhead is the wrappers' own cost,
            # measured in-process, over the untraced rounds' wall time: a
            # ratio of two round times would measure the machine's
            # round-to-round noise instead.
            tracer, traced, rounds = Tracer(), Tally(), 0
            while not rounds or traced.seconds < args.seconds:
                tally.run_round(ops)
                tracer.install()
                try:
                    traced.run_round(ops, on_op=tracer.start_op)
                finally:
                    tracer.uninstall()
                rounds += 1
            span_cost, pass_cost = wrapper_costs()
            values = layer_metrics(tracer.spans, rounds)
            values["trace.overhead_pct"] = 100.0 * (
                len(tracer.spans) * span_cost + tracer.passes * pass_cost
            ) / tally.seconds
            values["run.wall_edges_per_s"] = tally.passed_edges / tally.seconds
            values["run.wall_per_reference"] = tally.seconds / tally.scaled
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed,
                          "rounds": rounds, "span_cost_s": span_cost,
                          "pass_cost_s": pass_cost, "passes": tracer.passes,
                          "metrics": values})
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in UNITS.items()}
            unexpected += traced.unexpected
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.known |= traced.known
        else:
            while tally.seconds < args.seconds:
                tally.run_round(ops)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            scaled = tally.scaled
            print(f"wall-clock edges/s {tally.passed_edges / tally.seconds:.6g}; "
                  f"wall time / time at reference speed "
                  f"{tally.seconds / scaled:.4f}", file=sys.stderr)
            metrics = {
                "edges_per_s": {"value": tally.passed_edges / scaled,
                                "unit": "edges/s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                "setup_s": {"value": setup, "unit": "s"},
            }
        unexpected += tally.unexpected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in sorted(tally.known):
        print(f"failed as known: {line}", file=sys.stderr)
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
