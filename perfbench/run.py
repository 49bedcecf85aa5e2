"""Benchmark of the pcrank command-line pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ahp_batch --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next call starts when the
previous one returns.  Calls go through ``pcrank.cli.main(argv)`` in this
process with stdout and stderr captured, so each one runs the whole pipeline
from reading the file to formatting the result.  Every call's exit code and
output are checked.  ``--seconds`` bounds the time spent inside the calls.
Times are reported at a nominal machine speed (see REF_NOMINAL_S below).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it interleaves untraced and traced calls and reports per-layer metrics from
the traced ones (see README.md).  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it describes the machine and the run.

pcrank is imported from ``src/`` of the checkout and nowhere else; without it
the run exits with status 1.  BLAS and OpenMP are pinned to one thread.
"""

from __future__ import annotations

import os

# Set before numpy or scipy is first imported, which is when BLAS reads them.
THREADS = 1
THREAD_ENV = {k: str(THREADS) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7

# On a shared host the CPU's speed drifts by tens of percent over seconds to
# minutes, which swamps the differences the benchmark is meant to show.  So
# after every timed call a fixed pure-Python loop runs for REF_MAX_S, or for
# REF_SHARE of the call's time if that is shorter, and each call's time is
# rescaled by the loop's mean speed just before and just after it.  Reported
# times are at a nominal speed of REF_NOMINAL_S per loop iteration, a round
# figure near the loop's speed on an idle x86-64 core.  Raw figures go on the
# description line.
REF_CHUNK = 1000
REF_NOMINAL_S = 1.25e-7
REF_MAX_S = 0.01
REF_SHARE = 0.25

UNITS = {
    **spans.UNITS,
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_pcrank():
    """Import ``pcrank.cli`` from the checkout's ``src/``."""
    if not (SRC / "pcrank" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no pcrank source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pcrank.cli

    if Path(pcrank.cli.__file__).resolve().parent != SRC / "pcrank":
        raise SystemExit(f"perfbench: imported pcrank from {pcrank.cli.__file__}, not {SRC}")
    return pcrank.cli


def invoke(cli, argv) -> tuple[int | None, str, str, float]:
    """One CLI call: exit code, stdout, stderr and wall seconds.  A call that
    raises yields exit code None and the traceback as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception:  # a crash is a failed call, not a failed benchmark
            code = None
            traceback.print_exc(file=err)
        end = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), end - start


class Tally:
    """Calls attempted and failed, with failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: Counter = Counter()

    def call(self, cli, case) -> float:
        code, out, err, seconds = invoke(cli, case.argv)
        self.attempted += 1
        reason = case.check(code, out, err)
        if reason is not None:
            self.reasons[reason] += 1
        return seconds

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())


def reference_rate(budget: float) -> float:
    """Seconds per iteration of a fixed pure-Python loop, run for at least
    ``budget`` seconds (at least one chunk)."""
    iterations = 0
    start = time.perf_counter()
    while True:
        total = 0.0
        for i in range(REF_CHUNK):
            total += (i * 1.5) % 7.0
        iterations += REF_CHUNK
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / iterations


class Timeline:
    """Call latencies in order, each bracketed by two samples of the
    reference loop's speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.rates = [reference_rate(REF_MAX_S)]
        self.busy = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.busy += seconds
        self.rates.append(reference_rate(min(REF_MAX_S, REF_SHARE * seconds)))

    def nominal(self) -> list[float]:
        """Each latency rescaled to the nominal speed of the reference loop."""
        return [t * 2 * REF_NOMINAL_S / (self.rates[i] + self.rates[i + 1]) for i, t in enumerate(self.raw)]


def setup_seconds(repeats: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing ``pcrank.cli``, at
    the nominal speed and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    timeline = Timeline()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pcrank.cli"], env=env, cwd=ROOT, check=True)
        timeline.add(time.perf_counter() - start)
    return statistics.median(timeline.nominal()), statistics.median(timeline.raw)


def closed_loop(cli, cases, seconds: float, tally: Tally) -> Timeline:
    """Run the cases in order, cycling, until ``seconds`` were spent in calls."""
    timeline = Timeline()
    while timeline.busy < seconds:
        timeline.add(tally.call(cli, cases[len(timeline.raw) % len(cases)]))
    return timeline


def traced_loop(cli, tracer, cases, seconds: float, tally: Tally) -> tuple[Timeline, list[bool]]:
    """Run each case untraced and traced, in alternating order, until
    ``seconds`` were spent in calls.  Also returns which calls were traced."""
    timeline = Timeline()
    traced: list[bool] = []
    k = 0
    while timeline.busy < seconds:
        case = cases[k % len(cases)]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                seconds_in_call = tally.call(cli, case)
            finally:
                if with_trace:
                    tracer.uninstall()
            timeline.add(seconds_in_call)
            traced.append(with_trace)
        k += 1
    return timeline, traced


def tail(latencies: list[float]) -> dict:
    """Sample count, and the highest of the 90th, 99th and 99.9th percentile
    latencies that has at least ten samples beyond it."""
    info = {"samples": len(latencies)}
    for pct in (99.9, 99.0, 90.0):
        if len(latencies) * (1 - pct / 100) >= 10:
            info[f"p{pct:g}_ms"] = 1e3 * float(np.percentile(latencies, pct))
            break
    return info


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Run one workload; return the result object and a description of the run."""
    cli = load_pcrank()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.build(name, seed, workdir, size)
        tally = Tally()
        for case in workload.warmup:
            tally.call(cli, case)
        info = {"workload": name, "seed": seed, "trace": int(trace), "machine": machine_info()}
        gc.collect()
        if trace:
            tracer = spans.Tracer()
            missed = tracer.audit(lambda: [tally.call(cli, case) for case in workload.warmup])
            tracer.clear()
            timeline, traced = traced_loop(cli, tracer, workload.cases, seconds, tally)
            nominal = timeline.nominal()
            scale = [n / t for n, t, on in zip(nominal, timeline.raw, traced) if on]
            metrics = tracer.summary(scale)
            traced_s = sum(n for n, on in zip(nominal, traced) if on)
            plain_s = sum(n for n, on in zip(nominal, traced) if not on)
            metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
            metrics["trace.absent"] = len(tracer.absent)
            metrics["trace.missed_calls"] = missed
            spans_path = WORK / f"spans-{name}.jsonl"
            tracer.write(spans_path)
            info.update(
                absent=tracer.absent,
                calls_per_command=tracer.calls_per_command(),
                spans=str(spans_path.relative_to(ROOT)),
            )
        else:
            timeline = closed_loop(cli, workload.cases, seconds, tally)
            latencies = timeline.nominal()
            metrics = {
                "calls_per_s": len(latencies) / sum(latencies),
                "call_p50_ms": 1e3 * statistics.median(latencies),
                "ok_rate": 1.0 - tally.failed / tally.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics["setup_s"], raw_setup = setup_seconds(SETUP_REPEATS if size == "full" else 1)
            info["latency"] = tail(latencies)
            info["raw"] = {
                "calls_per_s": len(timeline.raw) / timeline.busy,
                "call_p50_ms": 1e3 * statistics.median(timeline.raw),
                "setup_s": raw_setup,
            }
        info["reference_ns_per_iteration"] = 1e9 * statistics.median(timeline.rates)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["failures"] = dict(tally.reasons)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend inside calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    size = "tiny" if args.tiny else "full"
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), size)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
