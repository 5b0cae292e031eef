#!/usr/bin/env python3
"""ehrkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--jobs N]

Run from the repository root; ehrkit is imported from ``src/``.  One client
runs one job after another (closed loop, no threads) and every output is
checked after the loop.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs jobs until ``--seconds`` of job time have passed and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs a
fixed number of jobs (the workload's own, or ``--jobs``) with the tracer
installed, so the per-module counts repeat exactly, and reports the
per-layer metrics; its spans go to ``.bench_out/``.  ``--jobs N`` with
``--trace 0`` runs exactly N jobs instead of timing; ``--jobs 0`` only sets
up.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import chain, islice

from tracing import Tracer, layer_metrics, write_spans
from workloads import ROOT, SRC, WORKLOADS, CheckFailed

SETUP_SAMPLES = 5
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload, seed):
    """Import ehrkit and generate the first deck of inputs; returns the
    elapsed seconds and the full (lazy, infinite) job stream."""
    start = time.perf_counter()
    importlib.import_module("ehrkit")
    stream = workload.jobs(seed)
    first = list(islice(stream, workload.deck_size))
    return time.perf_counter() - start, chain(first, stream)


def closed_loop(workload, stream, seconds=None, jobs=None, tracer=None):
    """Run jobs back to back until ``jobs`` jobs or ``seconds`` of job time.

    The clock runs only inside jobs: input generation for later decks
    happens between them.  Returns ``[(job, output, error, seconds)]``."""
    done = []
    busy = 0.0
    for job in stream:
        if len(done) == jobs or (jobs is None and busy >= seconds):
            break
        if tracer is not None:
            tracer.begin_job(job.index)
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(job)
            else:
                out = tracer.call("bench.job", workload.run, job, tracer)
            err = None
        except Exception as exc:  # a job that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        done.append((job, out, err, elapsed))
    return done


def verify(workload, done) -> list:
    """Check every output; returns ``[(job, message)]`` for the failures."""
    failures = []
    for job, out, err, _ in done:
        if err is None:
            try:
                workload.check(job, out)
            except CheckFailed as exc:
                err = f"check failed: {exc}"
            except Exception as exc:  # a checker crash is a failed job too
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((job, err))
    for job, err in failures[:5]:
        print(f"perfbench: {workload.name} job {job!r}: {err}", file=sys.stderr)
    return failures


def child(workload, seed, *extra) -> dict:
    """Run this script in a fresh process and return its result line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def result(done, failures, metrics) -> dict:
    return {"correct": not failures, "attempted": len(done), "failed": len(failures), "metrics": metrics}


def timed_run(workload, args, setup_s, stream) -> dict:
    done = closed_loop(workload, stream, seconds=args.seconds, jobs=args.jobs)
    failures = verify(workload, done)
    latencies = [elapsed for _, _, _, elapsed in done]
    busy = sum(latencies)
    values = {
        "jobs_per_s": (len(done) - len(failures)) / busy,
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3 if len(done) > 1 else latencies[0] * 1e3,
        "peak_rss_mib": peak_rss_mib(workload),
    }
    if args.jobs is None:
        samples = [setup_s] + [
            child(workload.name, args.seed, "--jobs", "0")["metrics"]["setup_s"]["value"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values["setup_s"] = statistics.median(samples)
    else:
        values["setup_s"] = setup_s
        values["busy_s"] = busy
    return result(done, failures, values)


def traced_run(workload, args, stream) -> dict:
    jobs = args.jobs or workload.trace_jobs
    untraced = child(workload.name, args.seed, "--jobs", str(jobs))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer()
    tracer.child_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        with tracer:
            done = closed_loop(workload, stream, jobs=jobs, tracer=tracer)
    finally:
        shutil.rmtree(tracer.child_dir, ignore_errors=True)
    failures = verify(workload, done)
    write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl"), tracer.spans)
    values = layer_metrics(tracer.spans, tracer.counters)
    values["inputs.distinct_polytopes"] = len({job.key for job, _, _, _ in done})
    values["trace.overhead_ratio"] = sum(e for _, _, _, e in done) / untraced["metrics"]["busy_s"]["value"]
    return result(done, failures, values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="job time to measure (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, help="run exactly this many jobs; 0 only sets up")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ehrkit", "__init__.py")):
        print(f"perfbench: ehrkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    setup_s, stream = setup(workload, args.seed)
    if args.jobs == 0:
        print(json.dumps({"metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}))
        return 0
    if args.trace:
        out = traced_run(workload, args, stream)
        wanted = spec["per_layer"]
    else:
        out = timed_run(workload, args, setup_s, stream)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": out["metrics"].pop(m["name"]), "unit": m["unit"]} for m in wanted}
    if "busy_s" in out["metrics"]:
        metrics["busy_s"] = {"value": out["metrics"].pop("busy_s"), "unit": "s"}
    if out["metrics"]:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(out['metrics'])}")
    out["metrics"] = metrics
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
