"""Benchmark of cstar_angles: time to one cross-checked angle, and its memory.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload m2 --seed 1 --seconds 20 --trace 0

One invocation runs one workload in this (fresh) process as a closed loop
with one client: passes of jobs run back to back until ``--seconds`` have
elapsed, stopping at a pass boundary.  The package is imported from the
checkout's ``src`` directory; nothing is installed.

``--trace 0`` reports the end-to-end metrics.  Set-up time is the median of
several fresh processes, spread over the run, each timing
``import cstar_angles`` plus building the workload's fixtures.  Job times
are scaled to the reference machine's speed by a probe timed between jobs
(see ``probe.py``); the ``# report`` line also gives them unscaled.

``--trace 1`` runs passes untraced for half of ``--seconds``, then replays
the same passes with a span recorder wrapped around the package's layers
(see ``spans.py``) and reports per-layer counts and self times, the tracing
overhead, and a check that the spans of each job account for its wall time.
``--spans FILE`` also writes the spans out as JSON lines.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a ``# report`` line with the machine facts, the worst deviation of any
cross-check and the metrics that are not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("group-numeric", "lattice", "m2", "exterior")
# fresh processes timed for setup_s
SETUP_CHILDREN = 7
# summed span self time of the traced jobs must match their wall time this closely
SELF_TIME_TOLERANCE = 0.03
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def import_workloads():
    """Import the benchmark's workloads, and with them cstar_angles from ``src``."""
    if not (SRC / "cstar_angles" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import cstar_angles
    import workloads

    where = Path(cstar_angles.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: cstar_angles was imported from {where}, not {SRC}")
    return workloads


def timed_setup(name: str, seed: int):
    """Fresh-process set-up: import the package and build the fixtures."""
    start = time.perf_counter()
    workloads = import_workloads()
    wl = workloads.WORKLOADS[name]
    fixture = wl.setup(workloads.setup_rng(seed))
    return time.perf_counter() - start, workloads, wl, fixture


class SetupSampler:
    """Times set-up in fresh processes, spread evenly over the run.

    Spreading the samples lets their median average over the machine's
    speed changes, as the job metrics do.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", name, "--seed", str(seed)]
        self.interval = seconds / SETUP_CHILDREN
        self.start = time.perf_counter()
        self.samples: list[float] = []

    def due(self) -> bool:
        return (len(self.samples) < SETUP_CHILDREN
                and time.perf_counter() - self.start >= len(self.samples) * self.interval)

    def __call__(self):
        out = subprocess.run(
            self.argv, check=True, capture_output=True, text=True, cwd=ROOT, timeout=120
        )
        self.samples.append(float(out.stdout.strip().splitlines()[-1]))

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_CHILDREN:
            self()
        return self.samples


# ---------------------------------------------------------------------------
# the closed loop


class Run:
    """Per-job latencies, angles and failures of one loop."""

    def __init__(self):
        self.latency_ns: list[int] = []
        # per job, the index of the last probe sample before it
        self.probe_at: list[int] = []
        self.first_pass_rss_mb = 0.0
        self.angles = 0
        self.failed = 0
        self.first_error: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted


def run_loop(workloads, wl, fixture, seed, check, *, seconds=None, passes=None,
             recorder=None, run=None, job_wall=None, probe=None, setup=None):
    """Run passes until ``seconds`` elapse (at a pass boundary) or ``passes`` are done.

    A ``probe`` is timed before the first job, between jobs whenever it is
    due, and after the last job; never inside a job.  So is a ``setup``
    sampler, between jobs.
    """
    run = run or Run()
    if probe is not None:
        probe()
    started = time.perf_counter()
    index = 0
    while (passes is None or index < passes) and (
        seconds is None or index == 0 or time.perf_counter() - started < seconds
    ):
        for job in wl.make_pass(fixture, workloads.pass_rng(seed, index)):
            job_id = run.attempted + 1
            if probe is not None:
                run.probe_at.append(probe.latest)
            t0 = time.perf_counter_ns()
            try:
                if recorder is None:
                    angles = job(check)
                else:
                    with recorder.job(job_id):
                        angles = job(check)
            except Exception:  # a raising job is a failed job; the run goes on
                angles = None
                if run.first_error is None:
                    run.first_error = traceback.format_exc()
            dt = time.perf_counter_ns() - t0
            run.latency_ns.append(dt)
            if job_wall is not None:
                job_wall[job_id] = dt
            if angles is None:
                run.failed += 1
            else:
                run.angles += angles
            if probe is not None and probe.due():
                probe()
            if setup is not None and setup.due():
                setup()
        if index == 0:
            run.first_pass_rss_mb = peak_rss_mb()
        index += 1
    if probe is not None:
        probe()
    return run, index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_latency(latency_ns: list[float]) -> dict:
    """Highest of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND jobs beyond it.

    The value is None when the run has too few jobs for any of them.
    """
    n = len(latency_ns)
    ordered = sorted(latency_ns)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= TAIL_MIN_BEYOND:
            rank = math.ceil(p / 100 * n)  # nearest rank
            return {"value": ordered[rank - 1] / 1e6, "unit": "ms", "percentile": p, "samples": n}
    return {"value": None, "unit": "ms", "percentile": None, "samples": n}


def end_to_end(run: Run, setup: list[float], probe):
    """The gated metrics, the six reported ones, and the job times unscaled.

    Every job time is taken to the reference machine's speed by the probe
    samples around it (see ``probe.py``).  Set-up time is not scaled: the
    probe does not track the speed of an interpreter starting up.
    """
    scaled_ns = [ns * probe.factor(i) for ns, i in zip(run.latency_ns, run.probe_at)]
    gated = {
        "angles_per_s": {"value": run.angles / (sum(scaled_ns) / 1e9), "unit": "1/s"},
        "job_ms_p50": {"value": statistics.median(scaled_ns) / 1e6, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": run.first_pass_rss_mb, "unit": "MiB"},
    }
    reported = dict(gated)
    reported["job_ms_tail"] = tail_latency(scaled_ns)
    reported["failed_ratio"] = {"value": run.failed_ratio, "unit": "1"}
    unscaled = {
        "angles_per_s": run.angles / (sum(run.latency_ns) / 1e9),
        "job_ms_p50": statistics.median(run.latency_ns) / 1e6,
        "job_ms_tail": tail_latency(run.latency_ns),
        "setup_samples_s": setup,
        "peak_rss_mb_at_end": peak_rss_mb(),
        "probe_ms_p50": statistics.median(probe.samples) * 1e3,
        "probe_samples": len(probe.samples),
    }
    return gated, reported, unscaled


# ---------------------------------------------------------------------------
# machine facts


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded, if it is there."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cstar_angles").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, or None where the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# traced run


def traced(workloads, wl, fixture, seed, seconds, check, spans_path):
    """Untraced passes, then the same passes traced; returns run and per-layer metrics."""
    import spans

    run, passes = run_loop(workloads, wl, fixture, seed, check, seconds=seconds / 2)
    untraced_s = sum(run.latency_ns) / 1e9
    first_traced = run.attempted
    recorder = spans.SpanRecorder()
    job_wall: dict[int, int] = {}
    recorder.install()
    try:
        run_loop(workloads, wl, fixture, seed, check, passes=passes,
                 recorder=recorder, run=run, job_wall=job_wall)
    finally:
        unrestored = recorder.uninstall()
    traced_s = sum(run.latency_ns[first_traced:]) / 1e9

    # the spans of a job cover it exactly unless a span was lost or counted
    # twice; a GC pause outside the job's root span can still skew one
    # short job, so the gate is on the sum and the per-job worst is reported
    self_ns = recorder.job_self_ns()
    worst_gap = max(abs(self_ns[j] - wall) / wall for j, wall in job_wall.items())
    total_wall = sum(job_wall.values())
    total_gap = abs(sum(self_ns[j] for j in job_wall) - total_wall) / total_wall
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in recorder.layer_metrics().items()
    }
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["failed_ratio"] = {"value": run.failed_ratio, "unit": "1"}
    shares = {k: round(v, 4) for k, v in list(recorder.self_shares().items())[:12]}
    checks = {
        "traced_jobs": len(job_wall),
        "self_time_vs_wall": total_gap,
        "self_time_vs_wall_worst_job": worst_gap,
        "unrestored": unrestored,
        "self_time_shares": shares,
    }
    if spans_path:
        recorder.write(spans_path)
    ok = total_gap <= SELF_TIME_TOLERANCE and not unrestored
    return run, metrics, checks, ok


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        seconds, *_ = timed_setup(args.workload, args.seed)
        print(repr(seconds))
        return 0

    # imported only here: a --setup-only child must import numpy inside its
    # timed set-up
    from probe import Probe

    _, workloads, wl, fixture = timed_setup(args.workload, args.seed)

    check = workloads.Checker()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        run, metrics, trace_checks, trace_ok = traced(
            workloads, wl, fixture, args.seed, args.seconds, check, args.spans
        )
        report["trace"] = trace_checks
    else:
        probe = Probe()
        setup = SetupSampler(args.workload, args.seed, args.seconds)
        run, _ = run_loop(
            workloads, wl, fixture, args.seed, check, seconds=args.seconds,
            probe=probe, setup=setup,
        )
        metrics, report["metrics"], report["unscaled"] = end_to_end(
            run, setup.finish(), probe
        )
        trace_ok = True
    report["worst_deviation"] = check.worst
    report["machine"] = machine_facts()
    if run.first_error:
        print(run.first_error, file=sys.stderr)
    print("# report " + json.dumps(report))
    print(json.dumps({
        "correct": run.failed == 0 and trace_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
