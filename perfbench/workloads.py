"""The benchmark's four workloads: seeded inputs, the job each input
drives, and the independent checks on each job's output.

Every workload deals its jobs from a deck, a fixed list of job classes
(dimension, generator count, denominator, search kind, CLI command, ...).
The seed shuffles each deck before it is dealt and draws the coordinates
inside each class.  Dealing whole decks keeps the mix of cheap and
expensive jobs the same for every seed, so the spread between seeds stays
small while the inputs still differ.

Polytopes never repeat within a run: ``counting._hrep`` is a process-wide
unbounded cache, so a repeated polytope would be served warm.

Checks run after the timed loop and raise ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class CheckFailed(AssertionError):
    """A job's output disagrees with an invariant or a hand-written value."""


def expect(cond, message) -> None:
    if not cond:
        raise CheckFailed(message)


class Job:
    """One unit of work: ``index`` in the seeded stream, the class it was
    dealt from, its inputs, and ``key``, the identity of its polytope."""

    __slots__ = ("index", "cls", "data", "key")

    def __init__(self, index, cls, data, key):
        self.index, self.cls, self.data, self.key = index, cls, data, key

    def __repr__(self):
        return f"Job({self.index}, {self.cls!r}, {self.data!r})"


def _deal(rng, deck):
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield from order


def _translate(rng, d, q) -> tuple:
    """A rational vector in [0,1)^d whose denominator is exactly q."""
    while True:
        nums = [rng.randrange(q) for _ in range(d)]
        if math.gcd(q, *nums) == 1:
            return tuple(Fraction(a, q) for a in nums)


def _box_points(rng, d, n, box) -> list:
    """n integer points in [0, box]^d whose bounding box is all of it."""
    while True:
        pts = [tuple(rng.randint(0, box) for _ in range(d)) for _ in range(n)]
        if all(min(p[i] for p in pts) == 0 and max(p[i] for p in pts) == box for i in range(d)):
            return pts


def _generators(rng, d, g, lo=-2, hi=2) -> list:
    """g integer vectors in [lo,hi]^d, any d of them linearly independent.

    Such generators are in general position, so all zonotopes of one
    (d, g) have the same numbers of vertices and facets.  No two are
    parallel, so the generator list determines the zonotope and distinct
    lists give distinct polytopes."""
    from ehrkit.linalg import rational_rank

    while True:
        gens = [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(g)]
        if all(rational_rank(sub) == d for sub in combinations(gens, d)):
            return gens


def _subset_sums(gens) -> set:
    sums = {(0,) * len(gens[0])}
    for g in gens:
        sums |= {tuple(a + b for a, b in zip(s, g)) for s in sums}
    return sums


class Workload:
    """Base: ``jobs(seed)`` yields the seeded stream, ``run(job, tracer)``
    is the timed call (``tracer`` is set in a traced run), and
    ``check(job, out)`` raises ``CheckFailed`` on a wrong result.
    ``deck_size`` jobs are generated during set-up; ``trace_jobs`` is the
    fixed job count of a traced run."""

    name = ""
    deck_size = 0
    trace_jobs = 0
    runs_in_children = False  # True: each job is a child process

    def jobs(self, seed):
        raise NotImplementedError

    def run(self, job, tracer=None):
        raise NotImplementedError

    def check(self, job, out) -> None:
        raise NotImplementedError


class EhrhartRandom(Workload):
    """Ehrhart quasi-polynomial plus its period and property checks on
    random almost integral polytopes.  One deck holds every combination
    of slot x denominator (2..7) x extra points (1..4); a fifth of the
    slots are lower dimensional, so the SNF reduction in ``count_points``
    runs."""

    name = "ehrhart_random"
    SLOTS = ((2, False),) * 3 + ((3, False),) * 3 + ((3, True), (4, False), (4, False), (4, True))
    BOX = {2: 4, 3: 3, 4: 2}
    deck_size = len(SLOTS) * 6 * 4
    trace_jobs = 160

    def jobs(self, seed):
        from ehrkit import LatticePolytope

        rng = random.Random(f"{self.name}/{seed}")
        deck = [(slot, q, extra) for slot in self.SLOTS for q in range(2, 8) for extra in range(1, 5)]
        seen = set()
        for index, ((d, low), q, extra) in zip(count(), _deal(rng, deck)):
            n = d + extra
            while True:
                pts = self._lowdim(rng, d, n) if low else _box_points(rng, d, n, self.BOX[d])
                P = LatticePolytope(pts)
                if P.dim == (d - 1 if low else d) and P.vertices not in seen:
                    break
            seen.add(P.vertices)
            yield Job(index, (d, low, q, n), (pts, _translate(rng, d, q)), P.vertices)

    def _lowdim(self, rng, d, n) -> list:
        """n points of a (d-1)-dimensional lattice slice through a random
        integer point."""
        basis = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(d - 1)]
        origin = [rng.randint(0, 2) for _ in range(d)]
        box = self.BOX[d - 1]
        pts = []
        for _ in range(n):
            w = [rng.randint(0, box) for _ in range(d - 1)]
            pts.append(tuple(origin[i] + sum(w[j] * basis[j][i] for j in range(d - 1)) for i in range(d)))
        return pts

    def run(self, job, tracer=None):
        import ehrkit as ek

        pts, c = job.data
        P = ek.LatticePolytope(pts)
        q = ek.ehrhart_quasi(ek.AlmostIntegralPolytope(P, c))
        return P, q, ek.minimal_period(q), ek.is_symmetric(q), ek.has_gcd_property(q)

    def check(self, job, out) -> None:
        import ehrkit as ek

        P, q, qmin, _, _ = out
        c = job.data[1]
        rho = q.period
        f_rho = q.constituent(rho)
        expect(f_rho(0) == 1, f"f_rho(0) = {f_rho(0)}")
        lead = f_rho.coefficients[P.dim] if f_rho.degree >= P.dim else 0
        expect(lead == ek.relative_volume(P), f"leading coefficient {lead} != relative volume")
        t = P.dim + 3
        direct = ek.count_points(P, tuple(t * x for x in c), t)
        expect(ek.evaluate(q, t) == direct, f"q({t}) = {ek.evaluate(q, t)}, direct count {direct}")
        expect(rho % qmin.period == 0 and all(qmin.constituent(k) == q.constituent(k) for k in range(1, rho + 1)),
               "minimal period representation disagrees")


class ZonotopeOracle(Workload):
    """Closed-form (ABM) quasi-polynomial against the vertex form of the
    same zonotope: vertices from subset sums, the classifier, and direct
    counts at t = 1..3.  3-D zonotopes stop at 5 generators; 6 or more
    is the known hull cliff."""

    name = "zonotope_oracle"
    # (d, generators), cheapest first.  The two slots of (2, 5) hold the
    # median job and the two of (3, 5) the p90 job, away from the edge of
    # a class, so neither percentile jumps between classes from seed to seed.
    SHAPES = ((2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 5), (2, 6), (3, 4), (3, 5), (3, 5))
    deck_size = len(SHAPES) * 6
    trace_jobs = 30

    def jobs(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        deck = [(shape, q) for shape in self.SHAPES for q in range(1, 7)]
        seen = set()
        for index, ((d, g), q) in zip(count(), _deal(rng, deck)):
            while True:
                gens = tuple(sorted(_generators(rng, d, g)))
                # in 3-D all 2^g subset sums distinct, so the hull, which
                # dominates there, always sees 2^g points
                if gens not in seen and (d == 2 or len(_subset_sums(gens)) == 2**g):
                    break
            seen.add(gens)
            yield Job(index, (d, g, q), (gens, _translate(rng, d, q)), gens)

    def run(self, job, tracer=None):
        import ehrkit as ek

        Z = ek.ZonotopeSpec(*job.data)
        q = ek.abm_quasi(Z)
        A = ek.zonotope_vertices(Z)
        report = ek.classify(A.base)
        counts = [ek.count_points(A.base, tuple(t * x for x in A.translate), t) for t in (1, 2, 3)]
        return q, report, counts

    def check(self, job, out) -> None:
        import ehrkit as ek

        q, report, counts = out
        for t, direct in zip((1, 2, 3), counts):
            expect(ek.evaluate(q, t) == direct, f"ABM gives {ek.evaluate(q, t)} at t={t}, direct count {direct}")
        expect(report["zonotope"] and report["centrally_symmetric"], f"classified as {report}")
        expect(ek.has_gcd_property(q), "zonotope quasi-polynomial lacks the gcd property")
        den = math.lcm(*(x.denominator for x in job.data[1]))
        expect(ek.minimal_period(q).period == den, f"minimal period != den(c) = {den}")


class WitnessSearch(Workload):
    """One witness search per job, budget ``BUDGET``.  A deck of ten holds
    four searches that find a witness early (random 2-D and 3-D bases
    that are not centrally symmetric, or not zonotopes) and six that must
    exhaust the budget: centrally symmetric bases for asymmetry and
    zonotopes for the gcd property, twice each in 2-D and once in 3-D.
    The 3-D exhausting bases are 0/1-polytopes and parallelepipeds of
    0/1 vectors moved by a random integer vector, so they stay about as
    costly as the unit cube."""

    name = "witness_search"
    BUDGET = 100
    DECK = (
        ("asym_found", 2), ("asym_found", 3), ("gcd_found", 2), ("gcd_found", 3),
        ("asym_exhaust", 2), ("asym_exhaust", 2), ("gcd_exhaust", 2), ("gcd_exhaust", 2),
        ("asym_exhaust", 3), ("gcd_exhaust", 3),
    )
    deck_size = len(DECK)
    trace_jobs = 30

    def jobs(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        seen = set()
        for index, (kind, d) in zip(count(), _deal(rng, self.DECK)):
            while True:
                P = self._base(rng, kind, d)
                if P.dim == d and P.vertices not in seen:
                    break
            seen.add(P.vertices)
            yield Job(index, (kind, d), P.vertices, P.vertices)

    def _base(self, rng, kind, d):
        import ehrkit as ek

        if kind.endswith("found"):
            while True:
                P = ek.LatticePolytope(_box_points(rng, d, d + rng.randint(1, 3), 2))
                if P.dim == d and (
                    ek.is_centrally_symmetric(P) is None if kind == "asym_found" else not ek.is_zonotope(P)[0]
                ):
                    return P
        if kind == "gcd_exhaust":
            gens = _generators(rng, d, d + rng.randint(0, 1)) if d == 2 else _generators(rng, d, d, 0, 1)
            pts = ek.zonotope_vertices(ek.ZonotopeSpec(gens)).base.vertices
        elif d == 2:
            half = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(2, 3))]
            pts = half + [tuple(-x for x in p) for p in half]
        else:
            half = [tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(rng.randint(2, 4))]
            pts = half + [tuple(1 - x for x in p) for p in half]
        shift = [rng.randint(-4, 4) for _ in range(d)]
        return ek.LatticePolytope([tuple(x + s for x, s in zip(p, shift)) for p in pts])

    def run(self, job, tracer=None):
        import ehrkit as ek

        P = ek.LatticePolytope(job.data)
        search = ek.asymmetry_witness if job.cls[0].startswith("asym") else ek.gcd_violation_witness
        return P, search(P, self.BUDGET)

    def check(self, job, out) -> None:
        import ehrkit as ek

        P, report = out
        if report.found:
            expect(job.cls[0].endswith("found"), f"{job.cls[0]} base yielded witness {report.translate}")
            expect(ek.verify_witness(P, report), f"witness {report.translate} fails verification")
        else:
            expect(report.attempts == self.BUDGET, f"gave up after {report.attempts} of {self.BUDGET} attempts")


# reproduce --only <section> -> (passed, disputed); the suite totals 67 / 1 / 0
REPRODUCE = {
    "pentagon": (16, 0),
    "shifted_cubes": (26, 1),
    "mod5_octahedron": (7, 0),
    "alcoves": (10, 0),
    "counterexample": (8, 0),
}
OCTAHEDRON_P2 = {  # p2_shifted_octahedron, residue -> constituent
    9: ["1", "8/3", "2", "4/3"],
    1: ["0", "-4/3", "0", "4/3"], 8: ["0", "-4/3", "0", "4/3"],
    2: ["0", "2/3", "0", "4/3"], 7: ["0", "2/3", "0", "4/3"],
    3: ["0", "2/3", "1", "4/3"], 6: ["0", "2/3", "1", "4/3"],
    4: ["0", "-1/3", "0", "4/3"], 5: ["0", "-1/3", "0", "4/3"],
}
ALCOVE_PERIODS = {"G2": 6, "F4": 12, "E6": 6, "E7": 12, "E8": 60}
# corpus entry -> (symmetric, gcd property)
PROPERTIES = {"p1_ninth_cube": (False, False), "p2_shifted_octahedron": (True, False)}
PENTAGON_COUNTS = (0, 5, 17)


def _family_vertices(n) -> set:
    # the origin lies between (0, 0, 1) and (0, 0, 1 - n), so it is no vertex
    return {(n, 0, 0), (0, n, 0), (n, n, 0), (0, 0, 1), (0, n, 1), (0, 0, 1 - n)}


def _family_count(n) -> int:
    return (2 * n**3 + 3 * n**2 + 19 * n + 12) // 6


class CliSession(Workload):
    """One fresh ``python -m ehrkit.cli`` process per job, as a user runs
    it.  A deck holds the five ``reproduce`` sections and fifteen other
    commands on corpus documents; the seed draws the order and the
    parameters (dimension, n, dilation, alcove type, property).  Every
    expected value is written out here."""

    name = "cli_session"
    DECK = tuple(("reproduce", section) for section in REPRODUCE) + (
        ("ehrhart", "p2_shifted_octahedron"), ("ehrhart", "p3_shifted_cube"), ("ehrhart", "alcove"),
        ("check", "p1_ninth_cube"), ("check", "p2_shifted_octahedron"),
        ("count", "pentagon_s3"), ("count", "pentagon_s3"),
        ("count", "counterexample_pn"), ("count", "counterexample_pn"),
        ("classify", "cube"), ("classify", "cross_polytope"), ("classify", "counterexample_pn"),
        ("corpus", "cube"), ("corpus", "cross_polytope"), ("corpus", "counterexample_pn"),
    )
    deck_size = len(DECK)
    trace_jobs = 40
    runs_in_children = True

    def jobs(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        for index, (command, name) in zip(count(), _deal(rng, self.DECK)):
            yield self._job(index, rng, command, name)

    def _job(self, index, rng, command, name):
        if command == "reproduce":
            return Job(index, (command, name), (["reproduce", "--only", name], None, None), ("reproduce", name))
        params = {}
        if name in ("cube", "cross_polytope"):
            params = {"dim": rng.randint(2, 3)}
        elif name == "counterexample_pn":
            params = {"n": rng.randint(8, 12)}
        elif name == "alcove":
            params = {"type": rng.choice(sorted(ALCOVE_PERIODS))}
        doc = {"corpus": name, "params": params}
        if command == "count":
            t = rng.randint(0, 2) if name == "pentagon_s3" else 1
            argv, expected = ["count", "--dilate", str(t)], t
        elif command == "ehrhart":
            argv, expected = ["ehrhart", "--minimal"], None
        elif command == "check":
            prop = rng.choice(("sym", "gcd"))
            argv, expected = ["check", "--property", prop], prop
        elif command == "classify":
            argv, expected = ["classify", "--witness", "--budget", "100"], None
        else:
            argv, doc, expected = ["corpus", "build", name, "--params", json.dumps(params)], None, None
        key = (name, tuple(sorted(params.items())))
        return Job(index, (command, name), (argv, doc, expected), key)

    def run(self, job, tracer=None):
        argv, doc, _ = job.data
        env = dict(os.environ, PYTHONPATH=SRC)
        if tracer is None:
            cmd = [sys.executable, "-m", "ehrkit.cli", *argv]
            spans = None
        else:
            spans = os.path.join(tracer.child_dir, f"job{job.index}.json")
            cmd = [sys.executable, os.path.join(HERE, "shim.py"), spans, "--", *argv]
        proc = subprocess.run(
            cmd,
            input=json.dumps(doc) if doc is not None else "",
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=120,
        )
        if spans is not None:
            with open(spans, encoding="utf-8") as fh:
                tracer.adopt(json.load(fh))
            os.remove(spans)
            tracer.counters["cli.stdout_bytes"] += len(proc.stdout.encode())
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, job, out) -> None:
        code, stdout, stderr = out
        expect(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
        res = json.loads(stdout)
        command, name = job.cls
        argv, doc, expected = job.data
        if command == "reproduce":
            got = (res["passed"], res["disputed"], res["failed"])
            expect(got == (*REPRODUCE[name], 0), f"reproduce {name}: passed/disputed/failed = {got}")
            return
        params = doc["params"] if doc is not None else json.loads(argv[-1])
        if command == "count":
            want = PENTAGON_COUNTS[expected] if name == "pentagon_s3" else _family_count(params["n"])
            expect(res == {"count": want}, f"count {res} != {want}")
        elif command == "ehrhart":
            if name == "alcove":
                expect(res["period"] == ALCOVE_PERIODS[params["type"]], f"alcove period {res['period']}")
            elif name == "p2_shifted_octahedron":
                expect(res["period"] == 9, f"period {res['period']}")
                for k, poly in OCTAHEDRON_P2.items():
                    expect(res["constituents"][k - 1] == poly, f"constituent {k}: {res['constituents'][k - 1]}")
            else:
                expect(res["period"] == 9, f"period {res['period']}")
                cons = res["constituents"]
                expect(cons[0] == ["0", "0", "0", "1"] and cons[8] == ["1", "3", "3", "1"], f"constituents {cons}")
                # direct enumeration gives t^3 + t^2 on residues 3 and 6
                expect(cons[2] == cons[5] == ["0", "0", "1", "1"], f"constituents {cons}")
        elif command == "check":
            sym, gcd = PROPERTIES[name]
            expect(res["holds"] == (sym if expected == "sym" else gcd), f"{expected} on {name}: {res}")
        elif command == "classify":
            want = {"cube": (True, True), "cross_polytope": (True, params.get("dim") == 2)}.get(name, (False, False))
            got = (res["centrally_symmetric"], res["zonotope"])
            expect(got == want, f"classify {name}: {got} != {want}")
            expect(("asymmetry_witness" in res) == (not want[0]), "asymmetry search ran on a symmetric base")
            expect(("gcd_violation_witness" in res) == (not want[1]), "gcd search ran on a zonotope")
            for key in ("asymmetry_witness", "gcd_violation_witness"):
                if key in res:
                    expect(res[key]["found"], f"{key} not found on {name}")
        else:
            if name == "cube":
                d = params["dim"]
                want = {tuple((b >> i) & 1 for i in range(d)) for b in range(1 << d)}
            elif name == "cross_polytope":
                d = params["dim"]
                want = {tuple(s * (i == j) for i in range(d)) for j in range(d) for s in (1, -1)}
            else:
                want = _family_vertices(params["n"])
            got = {tuple(int(x) for x in v) for v in res["vertices"]}
            expect(got == want, f"corpus {name} vertices {sorted(got)}")


WORKLOADS = {w.name: w for w in (EhrhartRandom(), ZonotopeOracle(), WitnessSearch(), CliSession())}
