#!/usr/bin/env python3
"""qcloak job benchmark: a closed-loop load generator with one client.

    python3 perfbench/run.py --workload trap-scan --seed 1 --seconds 20 --trace 0

One process, no worker threads: the client sends the next seeded job only
after the previous one has returned, calling qcloak's public API (and
`qcloak.cli.main`) in-process on the sources under ``src/``.  Every job's
output is checked; a job that raises or fails its check counts as failed.

Jobs come in blocks that hold a fixed mix (see ``workloads.py``).  The
client starts a block only while fewer than ``--seconds`` seconds have
passed and always finishes it, so every run measures whole blocks: the mix
of job kinds, and with it the median and tail, does not depend on where
the clock stopped.

``--trace 0`` measures the end-to-end metrics (set-up time, median and tail
job latency, throughput, peak memory), with times put at a reference
machine speed by the probe in ``speed.py``; the raw times are printed and
saved beside them.  ``--trace 1`` runs every job twice, plain and with span
wrappers installed at every layer boundary (see ``spans.py``), and reports
per-layer self times and counts plus the tracing overhead.  End-to-end
metrics come only from untraced runs.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when any job failed.  Results (with the kernel
backend, library versions, core count and seed) are also written to
``.perfbench_out/results/``; ``compare.py`` compares two sets of them.
"""

from __future__ import annotations

import argparse
import json
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
OUT = ROOT / ".perfbench_out"
#: set-ups per run; set_up time is their median
SETUP_SAMPLES = 3

#: workload names, in the order of BENCHMARK.json
WORKLOADS = ("trap-scan", "field-map", "config-sweep", "cli-replay")

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and exit")
    return p.parse_args(argv)


def set_up(name: str):
    """Import qcloak, build the workload's base media and systems and run
    its warm-up job; returns (workload, seconds, speed factor), the factor
    from probes taken right after."""
    from speed import SETUP_PROBES, Speed

    t0 = time.perf_counter()
    import qcloak  # noqa: F401  (the import is part of set-up)
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(OUT) if cls is workloads.CliReplay else cls()
    job = wl.warmup_job()
    problems = wl.check(job, wl.run(job))
    if problems:
        raise RuntimeError(f"warm-up job failed: {problems}")
    seconds = time.perf_counter() - t0
    speed = Speed()
    for _ in range(SETUP_PROBES):
        speed.sample(force=True)
    return wl, seconds, speed.factor()


def setup_in_fresh_process(args) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["factor"]


def run_one(wl, job):
    """Run and check one job: (latency_s, problems, job).  A job that
    raises, in its run or in its check, is counted as failed."""
    t0 = time.perf_counter()
    latency = None
    try:
        out = wl.run(job)
        latency = time.perf_counter() - t0
        problems = wl.check(job, out)
    except Exception:  # a failed job is counted, not fatal
        if latency is None:
            latency = time.perf_counter() - t0
        problems = [traceback.format_exc(limit=3)]
    return latency, problems, job


def run_jobs(wl, jobs, seconds, speed):
    """Closed loop over whole blocks of `jobs` until `seconds` have passed,
    probing the machine's speed between jobs: (records, busy_seconds).
    Probe time counts neither toward `seconds` nor toward busy time."""
    records = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if (i % wl.block == 0
                and time.perf_counter() - start - speed.spent >= seconds):
            break
        speed.sample()
        records.append(run_one(wl, job))
    speed.sample()
    return records, time.perf_counter() - start - speed.spent


def stamp(args) -> dict:
    import numpy
    import scipy
    import qcloak

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "backend": qcloak.KERNEL_BACKEND,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count()}


def end_to_end(records, wall, setups, factor):
    """End-to-end metrics, times at the reference speed.  `setups` holds
    (raw seconds, factor) of each set-up; `factor` is the timed run's."""
    from stats import tail_latency

    latencies = [r[0] for r in records]
    n = len(latencies)
    failed = sum(1 for r in records if r[1])
    tail, pct, beyond = tail_latency(latencies)
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "jobs_per_s": n / wall,
    }
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setups),
        "job_p50_s": raw["job_p50_s"] * factor,
        "job_tail_s": raw["job_tail_s"] * factor,
        "jobs_per_s": raw["jobs_per_s"] / factor,
        "ok_ratio": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, raw "
                   f"{[round(s, 3) for s, _ in setups]} s, factors "
                   f"{[round(f, 3) for _, f in setups]}",
        "job_p50_s": f"{n} jobs, raw {raw['job_p50_s']:.6g} s, "
                     f"speed factor {factor:.4f}",
        "job_tail_s": f"p{pct:.1f} of {n} jobs, {beyond} beyond, raw "
                      f"{raw['job_tail_s']:.6g} s",
        "jobs_per_s": f"{n} jobs in {wall:.2f} s, raw "
                      f"{raw['jobs_per_s']:.6g} 1/s",
        "ok_ratio": f"failed_ratio = {failed / n:g} ({failed}/{n})",
    }
    extra = {"job_tail_percentile": pct, "job_tail_beyond": beyond,
             "jobs": n, "failed_ratio": failed / n, "speed_factor": factor,
             "raw": raw}
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            notes, extra)


def traced_run(args, wl):
    """Run each job twice, plain and traced, in alternating order, so both
    passes see the same machine state; spans come from the traced pass."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    for i, job in enumerate(wl.jobs(args.seed)):
        if i % wl.block == 0 and time.perf_counter() - start >= args.seconds:
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_one(wl, job))
                continue
            tracer.install()
            tracer.start_job(i)
            try:
                traced.append(run_one(wl, job))
            finally:
                tracer.uninstall()
    metrics = tracer.layer_metrics(len(traced))
    overhead = sum(r[0] for r in traced) / sum(r[0] for r in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.npz"
    tracer.write(path)
    notes = {"trace.overhead_ratio":
             f"{len(traced)} jobs traced, {len(tracer.t0)} spans -> "
             f"{path.relative_to(ROOT)}"}
    return plain + traced, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcloak" / "__init__.py").is_file():
        print(f"error: no qcloak sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{list(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        wl, seconds, factor = set_up(args.workload)
        wl.close()
        print(json.dumps({"setup_s": seconds, "factor": factor}))
        return 0

    wl, *setup_first = set_up(args.workload)
    info = stamp(args)
    print("stamp " + json.dumps(info, sort_keys=True))
    extra = {}
    try:
        if args.trace:
            records, metrics, notes = traced_run(args, wl)
        else:
            from speed import Speed

            setups = [tuple(setup_first)] + [
                setup_in_fresh_process(args)
                for _ in range(SETUP_SAMPLES - 1)]
            speed = Speed()
            records, wall = run_jobs(wl, wl.jobs(args.seed), args.seconds,
                                     speed)
            metrics, notes, extra = end_to_end(records, wall, setups,
                                               speed.factor())
    finally:
        wl.close()

    failures = [(r[2], r[1]) for r in records if r[1]]
    for job, problems in failures[:5]:
        print(f"FAILED job {json.dumps(job)}: {problems}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"metric {name} = {value:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    result = {"correct": not failures, "attempted": len(records),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    saved = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    saved.write_text(json.dumps(dict(result, stamp=info, **extra),
                                indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
