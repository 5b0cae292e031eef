"""Outside-in tracing of ehrkit: spans around calls into each module.

``Tracer.install`` replaces every public function of the eight ehrkit
modules, in every ``ehrkit`` namespace that binds it, by a wrapper that
records a span (name, start, end, parent, job).  ``uninstall`` puts the
originals back.  Nothing in ``src/`` is edited; the spans are taken from
the benchmark's side of each call.

Self time of a span is its duration minus the durations of its direct
children, so summing self time per module splits the traced wall time
between the modules without double counting nested calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("cli", "corpus", "characterize", "zonotopes", "counting", "qpoly", "geometry", "linalg")

# Constant-time vector helpers, called once per vertex, facet or lattice
# point.  A span costs more than the call it would measure (the hull alone
# makes ~200k ``dot`` calls on a 3-D zonotope), so these stay unwrapped
# and their time counts towards the calling module.
INLINE = frozenset(
    {
        "linalg.dot",
        "linalg.vec_add",
        "linalg.vec_sub",
        "linalg.vec_neg",
        "linalg.vec_scale",
        "linalg.is_integer_vector",
        "linalg.lcm_denominators",
    }
)

# (module, class, method) pairs wrapped on the class itself.
METHODS = (("geometry", "LatticePolytope", "__init__"), ("qpoly", "Polynomial", "interpolate"))

NAME, START, END, PARENT, JOB = range(5)


def _box_cells(P, c, t) -> int:
    """Integer points of the bounding box of c + tP, from its vertices."""
    cells = 1
    for i in range(P.ambient_dim):
        xs = [Fraction(c[i]) + t * v[i] for v in P.vertices]
        cells *= max(0, math.floor(max(xs)) - math.ceil(min(xs)) + 1)
    return cells


class Tracer:
    """Span recorder and function wrapper for one process.

    Use as a context manager, or call ``install``/``uninstall``.  Spans
    are lists ``[name, start, end, parent_index, job]`` kept in memory
    until ``dump``.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.job = None
        self.child_dir = None  # where child processes write their dumps
        self._stack = []
        self._restore = []
        self._seen = set()

    # -- spans -----------------------------------------------------------

    def begin_job(self, job) -> None:
        self.job = job
        self._seen.clear()

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def adopt(self, dump: dict) -> None:
        """Attach the spans and counters of a child process's ``dump``
        under the currently open span."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for name, start, end, parent, job in dump["spans"]:
            self.spans.append([name, start, end, top if parent < 0 else parent + base, self.job])
        self.counters.update(dump["counters"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def _after_count_points(self, idx, args, result):
        P, c, t = args[:3]
        if t >= 1 and P.dim == P.ambient_dim:
            self.counters["counting.box_cells"] += _box_cells(P, c, t)
        parent = self.spans[idx][PARENT]
        if parent < 0 or self.spans[parent][NAME] != "counting.count_points":
            self.counters["counting.points"] += result

    def _after_enumerator(self, idx, args, result):
        P, c = args[:2]
        key = (P, tuple(Fraction(x) % 1 for x in c))
        if key in self._seen:
            self.counters["counting.enumerator_repeats"] += 1
        self._seen.add(key)

    def _after_witness(self, idx, args, report):
        self.counters["characterize.attempts"] += report.attempts
        self.counters["characterize.found"] += int(report.found)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {
            "counting.count_points": self._after_count_points,
            "counting.translated_enumerator": self._after_enumerator,
            "characterize.asymmetry_witness": self._after_witness,
            "characterize.gcd_violation_witness": self._after_witness,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ehrkit.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in INLINE
                ):
                    continue
                wrapped[obj] = self._wrap(name, obj, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ehrkit" or modname.startswith("ehrkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"ehrkit.{layer}"), cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            if meth == "__init__":
                setattr(cls, meth, self._wrap_init(f"{layer}.{cls_name}", original))
            else:
                fn = self._wrap(f"{layer}.{cls_name}.{meth}", original.__func__)
                setattr(cls, meth, classmethod(fn))

    def _wrap_init(self, name, init):
        tracer = self

        @functools.wraps(init)
        def traced_init(obj, points):
            points = points if isinstance(points, (list, tuple)) else list(points)
            idx = tracer._open(name)
            try:
                init(obj, points)
            finally:
                tracer._close(idx)
            tracer.counters["geometry.points_in"] += len(points)
            tracer.counters["geometry.vertices_out"] += len(obj.vertices)

        return traced_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list:
    """Per-span duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, counters) -> dict:
    """Every per-module metric the benchmark reports, from one traced run."""
    calls = Counter()
    selfs = Counter()
    by_name = Counter()
    for s, own in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        by_name[s[NAME]] += 1
        if layer in LAYERS:
            calls[layer] += 1
            selfs[layer] += own
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = selfs[layer]
    enum_calls = by_name["counting.translated_enumerator"]
    searches = by_name["characterize.asymmetry_witness"] + by_name["characterize.gcd_violation_witness"]
    out.update(
        {
            "counting.count_points_calls": by_name["counting.count_points"],
            "counting.box_cells": counters.get("counting.box_cells", 0),
            "counting.points": counters.get("counting.points", 0),
            "counting.enumerator_calls": enum_calls,
            "counting.enumerator_repeat_ratio": (
                counters.get("counting.enumerator_repeats", 0) / enum_calls if enum_calls else 0.0
            ),
            "geometry.points_in": counters.get("geometry.points_in", 0),
            "geometry.vertices_out": counters.get("geometry.vertices_out", 0),
            "linalg.snf_calls": by_name["linalg.snf"],
            "characterize.searches": searches,
            "characterize.attempts": counters.get("characterize.attempts", 0),
            "characterize.found_ratio": (
                counters.get("characterize.found", 0) / searches if searches else 0.0
            ),
            "qpoly.interpolations": by_name["qpoly.Polynomial.interpolate"],
            "cli.stdout_bytes": counters.get("cli.stdout_bytes", 0),
        }
    )
    return out


def write_spans(path, spans) -> None:
    """One JSON array per line: name, start, end, parent index, job."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")))
            fh.write("\n")
