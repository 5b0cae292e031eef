"""Command-line front end.

Subcommands: count, ehrhart, check, classify, zonotope, scan, corpus,
reproduce.  All I/O is UTF-8 JSON; rationals travel as strings like
"7/2" so nothing is ever rounded.  Exit codes: 0 success, 2 parse
error, 3 dimension mismatch, 4 unsupported input class, 5 witness budget
exhausted under --require-witness.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .characterize import DEFAULT_BUDGET, WitnessReport, classify
from .corpus import (
    ALCOVE_WEIGHTS,
    BadParams,
    CORPUS_NAMES,
    UnknownName,
    build,
    counterexample_alpha,
    counterexample_alpha_closed_form,
    counterexample_base_count,
    counterexample_base_count_closed_form,
)
from .counting import (
    count_points,
    count_rational_dilate,
    count_weighted_simplex,
    ehrhart_quasi,
    lost_new_counts,
    rational_dilation_quasi,
    scan_scaled_translate,
    translated_enumerator,
    weighted_simplex_quasi,
)
from .geometry import AlmostIntegralPolytope, LatticePolytope
from .linalg import DimensionMismatch, is_integer_vector
from .qpoly import (
    Polynomial,
    QuasiPolynomial,
    gcd_violation,
    has_gcd_property,
    is_symmetric,
    minimal_period,
    polynomial_to_strings,
    quasi_to_json_dict,
    symmetry_violation,
)
from .zonotopes import TooManyGenerators, ZonotopeSpec, abm_quasi

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$")


class ParseError(ValueError):
    """Malformed input document."""


class UnsupportedInput(ValueError):
    """Syntactically valid input outside the supported class."""


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ParseError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL_RE.match(x):
        return Fraction(x)
    raise ParseError(f"not a rational: {x!r}")


def parse_vector(v) -> tuple:
    if not isinstance(v, list) or not v:
        raise ParseError(f"not a vector: {v!r}")
    return tuple(parse_rational(x) for x in v)


def load_document(args) -> dict:
    try:
        if getattr(args, "input", None):
            with open(args.input, encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    return doc


def _build_corpus(name, params):
    """The corpus entry ``name``; bad names and parameters are parse errors."""
    if not isinstance(params, dict):
        raise ParseError("params must be an object")
    try:
        return build(name, **params)
    except UnknownName as exc:
        raise ParseError(f"unknown corpus name: {exc}") from exc
    except BadParams as exc:
        raise ParseError(str(exc)) from exc


def interpret(doc: dict):
    """(kind, payload) with kind in vertices | zonotope | corpus."""
    if "corpus" in doc:
        return "corpus", _build_corpus(doc["corpus"], doc.get("params", {}))
    if "generators" in doc:
        gens = doc["generators"]
        if not isinstance(gens, list):
            raise ParseError("generators must be a list of integer vectors")
        parsed = []
        for g in gens:
            vec = parse_vector(g)
            if not is_integer_vector(vec):
                raise ParseError("generators must be integer vectors")
            parsed.append(tuple(int(x) for x in vec))
        translate = parse_vector(doc["translate"]) if "translate" in doc else None
        try:
            return "zonotope", ZonotopeSpec(parsed, translate)
        except (ValueError, DimensionMismatch) as exc:
            raise ParseError(str(exc)) from exc
    if "vertices" in doc:
        verts = doc["vertices"]
        if not isinstance(verts, list) or not verts:
            raise ParseError("vertices must be a non-empty list of vectors")
        parsed = [parse_vector(v) for v in verts]
        translate = parse_vector(doc["translate"]) if "translate" in doc else None
        return "vertices", (parsed, translate)
    raise ParseError("input needs one of: vertices, generators, corpus")


def _lattice_input(kind, payload) -> AlmostIntegralPolytope:
    """Coerce any input to an almost integral polytope or refuse."""
    if kind == "corpus":
        if payload.kind != "almost_integral":
            raise UnsupportedInput(f"corpus entry {payload.name} has no vertex form")
        return payload.polytope
    if kind == "zonotope":
        from .zonotopes import zonotope_vertices

        return zonotope_vertices(payload)
    verts, translate = payload
    if not all(is_integer_vector(v) for v in verts):
        raise UnsupportedInput("vertices must be integral; only the ehrhart command handles fractional vertices")
    P = LatticePolytope(verts)
    c = translate if translate is not None else (0,) * P.ambient_dim
    return AlmostIntegralPolytope(P, c)


def emit(args, obj) -> None:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _face_json(face):
    if face is None:
        return None
    return {"dim": face.dim, "vertex_indices": list(face.vertex_indices)}


def _witness_json(rep: WitnessReport):
    out = {
        "kind": rep.kind,
        "found": rep.found,
        "attempts": rep.attempts,
        "budget_exhausted": rep.budget_exhausted,
    }
    if rep.found:
        out["translate"] = [str(x) for x in rep.translate]
        out["residues"] = list(rep.residues)
        out["constituents"] = [polynomial_to_strings(p) for p in rep.constituents]
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_count(args) -> int:
    kind, payload = interpret(load_document(args))
    t = args.dilate
    if t < 0:
        raise ParseError("--dilate must be non-negative")
    if kind == "corpus" and payload.kind == "weighted_simplex":
        n = count_weighted_simplex(payload.weights, t)
    elif kind == "corpus" and payload.kind == "rational":
        n = count_rational_dilate(payload.rational_vertices, t)
    else:
        A = _lattice_input(kind, payload)
        n = count_points(A.base, A.translate, t)
    emit(args, {"count": n})
    return 0


def _quasi_for(kind, payload) -> QuasiPolynomial:
    if kind == "zonotope":
        return abm_quasi(payload)
    if kind == "corpus":
        if payload.kind == "weighted_simplex":
            return weighted_simplex_quasi(payload.weights)
        if payload.kind == "rational":
            return rational_dilation_quasi(payload.rational_vertices)
        return ehrhart_quasi(payload.polytope)
    verts, translate = payload
    if all(is_integer_vector(v) for v in verts):
        P = LatticePolytope(verts)
        c = translate if translate is not None else (0,) * P.ambient_dim
        return ehrhart_quasi(AlmostIntegralPolytope(P, c))
    if translate is not None and any(x != 0 for x in translate):
        raise UnsupportedInput("fractional vertices cannot be combined with a translate")
    try:
        return rational_dilation_quasi(verts)
    except ValueError as exc:
        raise UnsupportedInput(str(exc)) from exc


def cmd_ehrhart(args) -> int:
    kind, payload = interpret(load_document(args))
    q = _quasi_for(kind, payload)
    if args.minimal:
        q = minimal_period(q)
    emit(args, quasi_to_json_dict(q))
    return 0


def cmd_check(args) -> int:
    kind, payload = interpret(load_document(args))
    q = _quasi_for(kind, payload)
    evidence = symmetry_violation(q) if args.property == "sym" else gcd_violation(q)
    out = {"holds": evidence is None, "property": args.property}
    if evidence is not None:
        k, l = evidence
        out["evidence"] = {
            "residues": [k, l],
            "constituents": [
                polynomial_to_strings(q.constituent(k)),
                polynomial_to_strings(q.constituent(l)),
            ],
        }
    emit(args, out)
    return 0


def cmd_classify(args) -> int:
    kind, payload = interpret(load_document(args))
    if args.budget < 0:
        raise ParseError("--budget must be non-negative")
    A = _lattice_input(kind, payload)
    report = classify(A.base, witness=args.witness, budget=args.budget)
    out = {
        "centrally_symmetric": report["centrally_symmetric"],
        "zonotope": report["zonotope"],
        "minkowski_violations": [_face_json(f) for f in report["minkowski_violations"]],
        "non_symmetric_2face": _face_json(report["non_symmetric_2face"]),
    }
    if report["center"] is not None:
        out["center"] = [str(x) for x in report["center"]]
    exhausted = False
    for key in ("asymmetry_witness", "gcd_violation_witness"):
        if key in report:
            out[key] = _witness_json(report[key])
            exhausted = exhausted or not report[key].found
    emit(args, out)
    if args.require_witness and exhausted:
        return 5
    return 0


def cmd_scan(args) -> int:
    kind, payload = interpret(load_document(args))
    A = _lattice_input(kind, payload)
    xs = [parse_rational(x) for x in args.xs]
    counts = scan_scaled_translate(A.base, A.translate, xs)
    emit(args, {"xs": [str(x) for x in xs], "counts": counts})
    return 0


def cmd_corpus(args) -> int:
    if args.action == "list":
        emit(args, {"names": list(CORPUS_NAMES), "alcoves": sorted(ALCOVE_WEIGHTS)})
        return 0
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"--params: {exc}") from exc
    entry = _build_corpus(args.name, params)
    out = {"name": entry.name, "kind": entry.kind, "parameters": entry.parameters}
    if entry.polytope is not None:
        out["vertices"] = [[str(x) for x in v] for v in entry.polytope.base.vertices]
        out["translate"] = [str(x) for x in entry.polytope.translate]
    if entry.rational_vertices is not None:
        out["vertices"] = [[str(x) for x in v] for v in entry.rational_vertices]
    if entry.weights is not None:
        out["weights"] = list(entry.weights)
    emit(args, out)
    return 0


# ---------------------------------------------------------------------------
# reproduce suite


def _check(results, name, expected, computed, disputed=False):
    if disputed:
        status = "disputed"
    else:
        status = "pass" if expected == computed else "fail"
    results.append(
        {
            "check": name,
            "status": status,
            "expected": expected,
            "computed": computed,
        }
    )


def _reproduce_pentagon(results):
    entry = build("pentagon_s3")
    A = entry.polytope
    P, c = A.base, A.translate
    exp = entry.expected
    for t in (0, 1, 2):
        lost, new = lost_new_counts(P, c, t)
        _check(results, f"pentagon translated count t={t}", exp["translated_counts"][t], count_points(P, c, t))
        _check(results, f"pentagon base count t={t}", exp["base_counts"][t], count_points(P, (0, 0), t))
        _check(results, f"pentagon lost t={t}", exp["lost"][t], lost)
        _check(results, f"pentagon new t={t}", exp["new"][t], new)
    _check(
        results,
        "pentagon translated polynomial",
        list(exp["translated_poly"]),
        polynomial_to_strings(translated_enumerator(P, c)),
    )
    _check(
        results,
        "pentagon base polynomial",
        list(exp["base_poly"]),
        polynomial_to_strings(translated_enumerator(P, (0, 0))),
    )
    lost_samples = [(t, lost_new_counts(P, c, t)[0]) for t in (1, 2)]
    new_samples = [(t, lost_new_counts(P, c, t)[1]) for t in (1, 2)]
    _check(
        results,
        "pentagon lost polynomial",
        list(exp["lost_poly"]),
        polynomial_to_strings(Polynomial.interpolate(lost_samples)),
    )
    _check(
        results,
        "pentagon new polynomial",
        list(exp["new_poly"]),
        polynomial_to_strings(Polynomial.interpolate(new_samples)),
    )


def _reproduce_shifted_cubes(results):
    # nine translates of the one-ninth cube
    q1 = rational_dilation_quasi(build("p1_ninth_cube").rational_vertices)
    for k in range(1, 10):
        # ((t + 9 - k) / 9)^3 expanded; the residue-9 constituent is ((t+9)/9)^3
        a = 9 - k if k < 9 else 9
        expected = [
            str(Fraction(a**3, 729)),
            str(Fraction(3 * a**2, 729)),
            str(Fraction(3 * a, 729)),
            str(Fraction(1, 729)),
        ]
        _check(
            results,
            f"ninth-cube constituent k={k}",
            expected,
            polynomial_to_strings(q1.constituent(k)),
        )
    _check(results, "ninth-cube minimal period", 9, minimal_period(q1).period)

    q2 = ehrhart_quasi(build("p2_shifted_octahedron").polytope)
    expected2 = {
        9: ["1", "8/3", "2", "4/3"],
        1: ["0", "-4/3", "0", "4/3"],
        2: ["0", "2/3", "0", "4/3"],
        3: ["0", "2/3", "1", "4/3"],
        4: ["0", "-1/3", "0", "4/3"],
    }
    for k, coeffs in expected2.items():
        _check(
            results,
            f"shifted-octahedron constituent k={k}",
            coeffs,
            polynomial_to_strings(q2.constituent(k)),
        )
        mirror = (9 - k) % 9
        if mirror and mirror != k:
            _check(
                results,
                f"shifted-octahedron constituent k={mirror}",
                coeffs,
                polynomial_to_strings(q2.constituent(mirror)),
            )
    _check(results, "shifted-octahedron minimal period", 9, minimal_period(q2).period)
    _check(results, "shifted-octahedron symmetric", True, is_symmetric(q2))
    _check(results, "shifted-octahedron gcd property", False, has_gcd_property(q2))

    entry3 = build("p3_shifted_cube")
    q3 = ehrhart_quasi(entry3.polytope)
    _check(results, "shifted-cube constituent k=1", ["0", "0", "0", "1"], polynomial_to_strings(q3.constituent(1)))
    _check(results, "shifted-cube constituent k=9", ["1", "3", "3", "1"], polynomial_to_strings(q3.constituent(9)))
    _check(results, "shifted-cube minimal period", 9, minimal_period(q3).period)
    _check(results, "shifted-cube gcd property", True, has_gcd_property(q3))
    disputed = entry3.expected["disputed_constituent"]
    computed = polynomial_to_strings(q3.constituent(3))
    _check(
        results,
        "shifted-cube constituent k=3 (direct enumeration vs tabulated t^3 + t)",
        list(disputed["tabulated"]),
        computed,
        disputed=True,
    )


def _reproduce_mod5_octahedron(results):
    oct3 = build("cross_polytope").polytope.base
    c = (Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    q = ehrhart_quasi(AlmostIntegralPolytope(oct3, c))
    _check(results, "mod-5 octahedron period", 5, q.period)
    _check(results, "mod-5 octahedron f_5", ["1", "8/3", "2", "4/3"], polynomial_to_strings(q.constituent(5)))
    for k in (1, 4):
        _check(results, f"mod-5 octahedron f_{k}", ["0", "-1/3", "0", "4/3"], polynomial_to_strings(q.constituent(k)))
    for k in (2, 3):
        _check(results, f"mod-5 octahedron f_{k}", ["0", "-4/3", "0", "4/3"], polynomial_to_strings(q.constituent(k)))
    _check(results, "mod-5 octahedron gcd property", False, has_gcd_property(q))


def _reproduce_alcoves(results):
    from .corpus import ALCOVE_PERIODS

    for name in sorted(ALCOVE_WEIGHTS):
        q = weighted_simplex_quasi(ALCOVE_WEIGHTS[name])
        _check(results, f"alcove {name} minimal period", ALCOVE_PERIODS[name], minimal_period(q).period)
        _check(results, f"alcove {name} gcd property", True, has_gcd_property(q))


def _reproduce_counterexample(results):
    for n in range(8, 13):
        _check(
            results,
            f"family base count n={n}",
            counterexample_base_count_closed_form(n),
            counterexample_base_count(n),
        )
    for n, k in ((8, 3), (9, 5), (8, 1)):
        _check(
            results,
            f"family alpha n={n} k={k}",
            counterexample_alpha_closed_form(n, k),
            counterexample_alpha(n, k),
        )


_REPRODUCE_SECTIONS = {
    "pentagon": _reproduce_pentagon,
    "shifted_cubes": _reproduce_shifted_cubes,
    "mod5_octahedron": _reproduce_mod5_octahedron,
    "alcoves": _reproduce_alcoves,
    "counterexample": _reproduce_counterexample,
}


def cmd_reproduce(args) -> int:
    sections = [args.only] if args.only else list(_REPRODUCE_SECTIONS)
    for s in sections:
        if s not in _REPRODUCE_SECTIONS:
            raise ParseError(f"unknown section {s!r}; choose from {sorted(_REPRODUCE_SECTIONS)}")
    results = []
    for s in sections:
        _REPRODUCE_SECTIONS[s](results)
    failed = [r for r in results if r["status"] == "fail"]
    emit(
        args,
        {
            "checks": results,
            "total": len(results),
            "passed": sum(r["status"] == "pass" for r in results),
            "disputed": sum(r["status"] == "disputed" for r in results),
            "failed": len(failed),
        },
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrkit",
        description="Exact Ehrhart quasi-polynomials of translated lattice polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", help="JSON input file (default: stdin)")
        p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("count", help="lattice points of c + tP")
    common(p)
    p.add_argument("--dilate", type=int, required=True)
    p.set_defaults(func=cmd_count)

    for name, help_text in (("ehrhart", "Ehrhart quasi-polynomial"), ("zonotope", "quasi-polynomial from generators")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--minimal", action="store_true", help="reduce to the minimal period")
        p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("check", help="symmetry / gcd property of the quasi-polynomial")
    common(p)
    p.add_argument("--property", choices=("sym", "gcd"), required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="central symmetry and zonotope verdicts")
    common(p)
    p.add_argument("--witness", action="store_true", help="also search for violating translates")
    p.add_argument("--require-witness", action="store_true", help="exit 5 if a search exhausts its budget")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N", help="attempts per search, N >= 0")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="counts of x*c + P over rational samples x")
    common(p)
    p.add_argument("--xs", nargs="+", required=True, help="rational sample points")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("corpus", help="list or build named example polytopes")
    common(p)
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("name", nargs="?")
    p.add_argument("--params", help="JSON object of parameters")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("reproduce", help="run the recorded-value suite")
    common(p)
    p.add_argument("--only", help="run a single section")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "corpus" and args.action == "build" and not args.name:
        print("corpus build needs a name", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatch as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedInput, TooManyGenerators) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
