"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import inspect
import json
import os
import shutil
import subprocess
import sys
from itertools import islice

import pytest

from tracing import LAYERS, Tracer, self_times
from workloads import HERE, ROOT, SRC, WORKLOADS

if SRC not in sys.path:
    sys.path.insert(0, SRC)

RUN = os.path.join(HERE, "run.py")


def run_bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs(name, seed, n=6):
    return [(job.cls, job.data) for job in islice(WORKLOADS[name].jobs(seed), n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert inputs(name, 5) == inputs(name, 5)
    assert inputs(name, 5) != inputs(name, 6)


@pytest.mark.parametrize("name", ["ehrhart_random", "zonotope_oracle", "witness_search"])
def test_polytopes_do_not_repeat_within_a_run(name):
    keys = [job.key for job in islice(WORKLOADS[name].jobs(1), 2 * WORKLOADS[name].deck_size)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name):
    for trace in ("0", "1"):
        proc = run_bench("--workload", name, "--seed", "3", "--jobs", "2", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        out = last_json(proc)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2
        spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
        wanted = spec["per_layer" if trace == "1" else "end_to_end"]
        assert {m["name"] for m in wanted} <= set(out["metrics"])


def test_same_seed_repeats_per_module_counts():
    def counts():
        proc = run_bench("--workload", "ehrhart_random", "--seed", "4", "--jobs", "12", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = last_json(proc)["metrics"]
        return {k: v["value"] for k, v in metrics.items() if not k.endswith("self_s") and k != "trace.overhead_ratio"}

    first = counts()
    assert first["counting.count_points_calls"] > 0 and first["linalg.snf_calls"] > 0
    assert first == counts()


def _run_traced_job():
    import ehrkit as ek

    tracer = Tracer()
    with tracer:
        tracer.begin_job(0)
        P = ek.LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
        tracer.call("bench.job", ek.ehrhart_quasi, ek.AlmostIntegralPolytope(P, ("1/3", 0, "2/3")))
        tracer.call("bench.job", ek.classify, P, True, 5)
    return tracer


def test_child_self_times_sum_to_at_most_the_parent_span():
    tracer = _run_traced_job()
    spans = tracer.spans
    own = self_times(spans)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    for parent, kids in children.items():
        if parent < 0:
            continue
        duration = spans[parent][2] - spans[parent][1]
        assert sum(spans[k][2] - spans[k][1] for k in kids) <= duration + 1e-9
        assert own[parent] >= -1e-9
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    assert abs(sum(own) - sum(spans[i][2] - spans[i][1] for i in roots)) < 1e-6
    layers = {s[0].split(".")[0] for s in spans}
    assert {"counting", "geometry", "linalg", "qpoly", "characterize"} <= layers


def _bindings():
    import ehrkit

    mods = [m for name, m in sys.modules.items() if name == "ehrkit" or name.startswith("ehrkit.")]
    out = {(m.__name__, attr): obj for m in mods for attr, obj in vars(m).items() if inspect.isfunction(obj)}
    out["LatticePolytope.__init__"] = ehrkit.LatticePolytope.__dict__["__init__"]
    out["Polynomial.interpolate"] = ehrkit.Polynomial.__dict__["interpolate"]
    return out


def test_wrappers_are_restored_after_a_traced_run():
    import ehrkit  # noqa: F401  (load every module before the snapshot)
    import ehrkit.cli  # noqa: F401

    before = _bindings()
    tracer = _run_traced_job()
    assert _bindings() == before
    assert len({s[0].split(".")[0] for s in tracer.spans} & set(LAYERS)) >= 5


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "ehrhart_random", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
