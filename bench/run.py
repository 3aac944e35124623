"""Benchmark of qbench's three analysis runs through its public library API.

Run from the root of a source checkout:

    python3 bench/run.py --workload depolarizing-exact --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload runs rounds until ``--seconds`` of timed
calls have passed, checks every output record outside the timed calls,
and reports records_per_s, setup_s and peak_rss_mib.  With ``--trace 1``
it runs the workload's fixed number of rounds untraced and then traced,
and reports per-layer call counts and self times.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 7  # fresh processes timed for setup_s; their median is reported
WALL_LIMIT_S = 140.0  # no round starts after this much wall time, so a run ends well inside 180 s


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_package():
    """Import qbench from this checkout's src/, never from anywhere else."""
    if not (SRC / "qbench" / "__init__.py").is_file():
        sys.exit(f"error: no qbench sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread, as the workloads are defined
    sys.path.insert(0, str(SRC))
    import qbench

    if Path(qbench.__file__).resolve().parent != SRC / "qbench":
        sys.exit(f"error: imported qbench from {qbench.__file__}, not from {SRC}")
    import workloads

    return workloads


def make_workload(args):
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)


def measure_setup(args) -> float:
    """Median wall time of fresh processes from spawn, through importing qbench
    and building the workload's first inputs, to being ready for the first call."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit(f"error: setup probe exited with {probe.returncode}")
    return statistics.median(samples)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rates: list[float] = []
        self.timed_s = 0.0
        self.errors: list[str] = []

    def round(self, workload, i: int, tracer=None) -> None:
        """One timed round, then its check outside the timed call."""
        inputs = workload.inputs(i)
        n = workload.records_per_round
        start = time.perf_counter()
        try:
            if tracer is None:
                outputs = workload.run(inputs)
            else:
                with tracer.installed():
                    outputs = workload.run(inputs)
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            outputs = None
        elapsed = time.perf_counter() - start
        self.timed_s += elapsed
        self.attempted += n
        if outputs is None:
            self.failed += n
            return
        self.rates.append(n / elapsed)
        try:
            passes = workload.check(inputs, outputs)
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            passes = [False] * n
        self.failed += n - sum(passes)


def timed_run(args, workload, started: float) -> dict:
    tally = Tally()
    i = 0
    while tally.timed_s < args.seconds and time.monotonic() - started < WALL_LIMIT_S:
        tally.round(workload, i)
        i += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "records_per_s": (statistics.median(tally.rates) if tally.rates else 0.0, "records/s"),
        "setup_s": (measure_setup(args), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return finish(workload, tally, metrics, rounds=i, timed_s=round(tally.timed_s, 3))


def traced_run(workload) -> dict:
    import tracing

    plain, traced, tracer = Tally(), Tally(), tracing.Tracer()
    for i in range(workload.trace_rounds):  # interleaved, so drift in machine speed cancels
        plain.round(workload, i)
        traced.round(workload, i, tracer)
    records = traced.attempted
    metrics = tracer.metrics(records, traced.timed_s - plain.timed_s)
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.errors += traced.errors
    return finish(workload, plain, metrics, rounds=2 * workload.trace_rounds, absent=tracer.absent)


def finish(workload, tally: Tally, metrics: dict, **notes) -> dict:
    import reference

    problems = reference.self_check(workload.seed)
    for text in tally.errors[:3] + problems:
        print(text, file=sys.stderr)
    extra = workload.notes() if hasattr(workload, "notes") else {}
    summary = {"workload": workload.name, **notes, **extra, "reference_problems": len(problems)}
    print(json.dumps(summary), file=sys.stderr)
    return {
        "correct": not problems and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    workload = make_workload(args)
    if args.setup_probe:
        workload.inputs(0)
        print("ready", flush=True)
        return 0
    result = traced_run(workload) if args.trace else timed_run(args, workload, started)
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"{args.workload}{suffix}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
