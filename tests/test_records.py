"""Value semantics of the immutable value types, and what a cold import of
the CLI loads.

Every class here is a ``linalg.Record``.  The expected ``repr`` strings are
those the same objects had as ``@dataclass(frozen=True)`` classes, so
equality, hashing, printing and set order stay what they were.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ehrkit.characterize import WitnessReport
from ehrkit.corpus import CorpusEntry
from ehrkit.geometry import AffineHull, AlmostIntegralPolytope, Face, HRep, LatticePolytope
from ehrkit.linalg import DimensionMismatch, IntMatrix, SnfDecomposition
from ehrkit.qpoly import Polynomial, QuasiPolynomial
from ehrkit.zonotopes import ZonotopeSpec

SRC = Path(__file__).resolve().parent.parent / "src"

TRIANGLE = LatticePolytope([(0, 0), (1, 0), (0, 1)])
SEGMENT = LatticePolytope([(0,), (1,)])
I2 = IntMatrix(2, 2, (1, 0, 0, 1))
P = Polynomial([1, Fraction(1, 2)])

IM = "IntMatrix(rows=2, cols=2, entries=(1, 0, 0, 1))"
PR = "Polynomial(coefficients=(Fraction(1, 1), Fraction(1, 2)))"

# (object, its fields in order, the dataclass repr of the parent version)
CASES = [
    (
        WitnessReport("asymmetry", True, (Fraction(1, 3),), (1, 2), (P, Polynomial([1])), 4, False),
        ("asymmetry", True, (Fraction(1, 3),), (1, 2), (P, Polynomial([1])), 4, False),
        "WitnessReport(kind='asymmetry', found=True, translate=(Fraction(1, 3),), residues=(1, 2), "
        f"constituents=({PR}, Polynomial(coefficients=(Fraction(1, 1),))), attempts=4, budget_exhausted=False)",
    ),
    (
        CorpusEntry(
            "cube",
            "almost_integral",
            {"dim": 1},
            polytope=AlmostIntegralPolytope(SEGMENT, (0,)),
            expected={"zonotope": True},
        ),
        ("cube", "almost_integral", {"dim": 1}, AlmostIntegralPolytope(SEGMENT, (0,)), None, None, {"zonotope": True}),
        "CorpusEntry(name='cube', kind='almost_integral', parameters={'dim': 1}, "
        "polytope=AlmostIntegralPolytope(base=LatticePolytope([(0,), (1,)]), translate=(Fraction(0, 1),)), "
        "rational_vertices=None, weights=None, expected={'zonotope': True})",
    ),
    (
        CorpusEntry("x", "weighted_simplex", weights=(1, 2)),
        ("x", "weighted_simplex", {}, None, None, (1, 2), {}),
        "CorpusEntry(name='x', kind='weighted_simplex', parameters={}, polytope=None, "
        "rational_vertices=None, weights=(1, 2), expected={})",
    ),
    (
        AffineHull(1, (0, 0), ((1, 0),)),
        (1, (0, 0), ((1, 0),)),
        "AffineHull(dim=1, origin=(0, 0), lattice_basis=((1, 0),))",
    ),
    (Face((0, 1), 1), ((0, 1), 1), "Face(vertex_indices=(0, 1), dim=1)"),
    (
        HRep(2, (((1, 0), Fraction(1)),), ()),
        (2, (((1, 0), Fraction(1)),), ()),
        "HRep(ambient_dim=2, inequalities=(((1, 0), Fraction(1, 1)),), equalities=())",
    ),
    (
        AlmostIntegralPolytope(TRIANGLE, (Fraction(1, 2), 0)),
        (TRIANGLE, (Fraction(1, 2), Fraction(0))),
        "AlmostIntegralPolytope(base=LatticePolytope([(0, 0), (0, 1), (1, 0)]), "
        "translate=(Fraction(1, 2), Fraction(0, 1)))",
    ),
    (I2, (2, 2, (1, 0, 0, 1)), IM),
    (
        SnfDecomposition(I2, I2, I2, I2),
        (I2, I2, I2, I2),
        f"SnfDecomposition(U={IM}, D={IM}, V={IM}, U_inverse={IM})",
    ),
    (P, ((Fraction(1), Fraction(1, 2)),), PR),
    (
        QuasiPolynomial(2, (P, Polynomial([2]))),
        (2, (P, Polynomial([2]))),
        f"QuasiPolynomial(period=2, constituents=({PR}, Polynomial(coefficients=(Fraction(2, 1),))))",
    ),
    (
        ZonotopeSpec([(1, 0), (0, 1)], (Fraction(1, 2), 0)),
        (2, ((1, 0), (0, 1)), (Fraction(1, 2), Fraction(0))),
        "ZonotopeSpec(ambient_dim=2, generators=((1, 0), (0, 1)), translate=(Fraction(1, 2), Fraction(0, 1)))",
    ),
]
IDS = [f"{type(obj).__name__}{i}" for i, (obj, _, _) in enumerate(CASES)]
PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("obj, fields, text", CASES, ids=IDS)
class TestRecord:
    def test_repr_is_the_dataclass_repr(self, obj, fields, text):
        assert repr(obj) == text

    def test_eq_and_hash_go_by_the_fields(self, obj, fields, text):
        assert tuple(getattr(obj, f) for f in type(obj).__slots__) == fields
        twin = copy.deepcopy(obj)
        assert twin is not obj and twin == obj and not twin != obj
        assert obj != fields
        if isinstance(obj, CorpusEntry):
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == hash(fields)

    def test_fields_are_frozen(self, obj, fields, text):
        for f in type(obj).__slots__:
            with pytest.raises(AttributeError):
                setattr(obj, f, None)
            with pytest.raises(AttributeError):
                delattr(obj, f)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert tuple(getattr(obj, f) for f in type(obj).__slots__) == fields

    # Protocols 0 and 1 cannot pickle LatticePolytope, a slotted class with
    # a ``__dict__`` and no ``__getstate__``, which two of the cases hold.
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy] + [(lambda o, p=p: pickle.loads(pickle.dumps(o, protocol=p))) for p in PROTOCOLS],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in PROTOCOLS],
    )
    def test_pickle_and_copy_round_trip(self, obj, fields, text, clone):
        back = clone(obj)
        assert type(back) is type(obj) and back == obj and repr(back) == text


def test_equal_fields_in_two_classes_are_not_equal():
    a = AffineHull(1, (0,), ())
    h = HRep(1, (0,), ())
    assert a != h and h != a
    assert hash(a) == hash(h)  # both hash their field tuple
    assert len({a, h}) == 2


def test_keyword_construction():
    assert HRep(ambient_dim=2, inequalities=(), equalities=()) == HRep(2, (), ())
    assert AffineHull(dim=0, origin=(1,), lattice_basis=()) == AffineHull(0, (1,), ())
    assert SnfDecomposition(U=I2, D=I2, V=I2, U_inverse=I2) == SnfDecomposition(I2, I2, I2, I2)
    entry = CorpusEntry(name="x", kind="rational", rational_vertices=((0,), (1,)))
    assert entry == CorpusEntry("x", "rational", {}, None, ((0,), (1,)), None, {})
    assert CorpusEntry("a", "b").parameters is not CorpusEntry("a", "b").parameters


def test_int_matrix_checks_its_entry_count():
    with pytest.raises(DimensionMismatch, match="2x2 matrix needs 4 entries, got 3"):
        IntMatrix(2, 2, (1, 2, 3))


def test_cold_import_of_the_cli_skips_dataclasses_inspect_and_typing():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import ehrkit.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
