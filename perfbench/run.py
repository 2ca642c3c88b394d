"""eucdyn benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload curve-d13-n2 --seed 1 --seconds 24 --trace 0

Run from the repository root; the program is imported from ``src/``.
One closed-loop client in one process runs one job at a time, serially
(``EUCDYN_THREADS`` is removed from the environment and BLAS is held to
one thread).

--trace 0  end-to-end metrics.  ``setup_s`` is the median import time of
           ``eucdyn`` and ``eucdyn.cli`` over several fresh interpreters;
           ``wall_s`` the median job time over as many jobs as fit in
           --seconds (at least one); ``peak_rss_mb`` the process's peak
           resident memory after the jobs, before the checks.
--trace 1  per-layer metrics.  One untraced job, then one job under the
           span recorder of ``tracing.py``; prints a per-layer table, writes
           the spans to ``perfbench/out/`` and reports the tracing overhead.

Every job's output is checked (see ``workloads.py``); ``failed`` out of
``attempted`` is the benchmark's fail fraction.  The lines before the
result are a run record (seed, commit, machine, versions) and, when
traced, the table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
REPLAY_PAIRS = 600
REPLAY_REPEATS = 5
SETUP_CODE = (
    "from speedclock import SpeedClock\n"
    "with SpeedClock(0.01) as clk:\n"
    "    import eucdyn, eucdyn.cli\n"
    "print(repr(clk.raw), repr(clk.corrected))\n"
)

# Single-threaded numerics, no worker pool: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
EUCDYN_THREADS_WAS = os.environ.pop("EUCDYN_THREADS", None)

sys.path.insert(0, str(HERE))
from speedclock import SpeedClock  # noqa: E402


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "eucdyn" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'eucdyn'} is missing")
    sys.path.insert(0, str(SRC))
    import eucdyn
    import eucdyn.cli  # noqa: F401

    if Path(eucdyn.__file__).resolve().parent != SRC / "eucdyn":
        fail(f"imported eucdyn from {eucdyn.__file__}, not from {SRC}")
    return eucdyn


def setup_seconds() -> tuple[list[float], list[float]]:
    """(raw, speed-corrected) import times of eucdyn and eucdyn.cli, each
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        r, c = res.stdout.strip().splitlines()[-1].split()
        raw.append(float(r))
        corrected.append(float(c))
    return raw, corrected


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, eucdyn) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "eucdyn_version": eucdyn.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "EUCDYN_THREADS": "unset" if EUCDYN_THREADS_WAS is None else f"unset (was {EUCDYN_THREADS_WAS})",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_job(w):
    """(SpeedClock, collected output) of one job, started after a full
    garbage collection."""
    gc.collect()
    with SpeedClock() as clk:
        raw = w.job()
    return clk, w.collect(raw)


def run_jobs(w, seconds: float):
    """Jobs back to back while the next one is expected to end within
    ``seconds`` of wall time; always at least one."""
    raw, corrected, outs = [], [], []
    while True:
        clk, out = timed_job(w)
        raw.append(clk.raw)
        corrected.append(clk.corrected)
        outs.append(out)
        if sum(raw) + statistics.median(raw) > seconds:
            return raw, corrected, outs


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one run's samples."""
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "all": values}


def end_to_end(args, w, record):
    setup_raw, setup = setup_seconds()
    raw, corrected, outs = run_jobs(w, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["wall_s"] = summary(corrected)
    record["wall_s_raw"] = summary(raw)
    record["setup_s"] = summary(setup)
    record["setup_s_raw"] = summary(setup_raw)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(corrected), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return metrics, outs


def traced(args, w, record):
    import layers
    import tracing

    plain, out = timed_job(w)
    outs = [out]
    rec = tracing.Recorder()
    with tracing.patched(rec):
        spanned, out = timed_job(w)
    outs.append(out)
    op_us = layers.replay_op_us(w, random.Random(args.seed), REPLAY_PAIRS, REPLAY_REPEATS)
    metrics, table = layers.per_layer(rec, spanned.elapsed, spanned.corrected, plain.corrected, op_us)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    rec.write(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["traced_wall_s"] = spanned.corrected
    record["traced_wall_s_raw"] = spanned.raw
    record["untraced_wall_s"] = plain.corrected
    record["untraced_wall_s_raw"] = plain.raw
    print(table)
    return metrics, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    eucdyn = import_program()
    from workloads import WORKLOADS, Check, load_reference

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    try:
        ref = load_reference(w.name)
    except OSError as exc:
        fail(f"missing reference data: {exc}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        w.prepare(args.seed, workdir, ref)
        record = run_record(args, eucdyn)
        if args.trace:
            metrics, outs = traced(args, w, record)
        else:
            metrics, outs = end_to_end(args, w, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    chk = Check()
    for out in outs:
        w.check(out, chk)
    w.run_once_checks(outs, chk)
    record["fail_frac"] = chk.failed / chk.attempted
    record["failures"] = chk.notes
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
