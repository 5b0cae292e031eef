"""Fuzz the CLI with generated documents: every input either succeeds or
maps to a documented exit code, and no exception escapes ``main``.

The strategies stay inside the sizes the package handles quickly (d <= 3,
at most 5 points, coordinates in [-3, 3], at most 4 generators, dilation
<= 3, small corpus parameters and witness budgets), so a slow case is a
finding, not noise.
"""

import contextlib
import io
import json
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from ehrkit.cli import main  # noqa: E402
from ehrkit.corpus import ALCOVE_WEIGHTS, CORPUS_NAMES  # noqa: E402

EXIT_CODES = {0, 2, 3, 4, 5}

junk = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, width=16), st.text(max_size=4), st.lists(st.integers(), max_size=2)
)
clean_rational = st.one_of(
    st.integers(-3, 3), st.integers(1, 2).flatmap(lambda d: st.builds(lambda n: f"{n}/{d}", st.integers(-3 * d, 3 * d)))
)
# zero denominators and junk strings among the rationals
noisy_rational = st.one_of(clean_rational, st.builds(lambda n: f"{n}/0", st.integers(-3, 3)), junk)


def corpus_params(noisy):
    def value(clean, out_of_range):
        return st.one_of(clean, out_of_range, junk) if noisy else clean

    params = st.fixed_dictionaries(
        {},
        optional={
            "dim": value(st.integers(1, 3), st.integers(-1, 0)),
            "n": value(st.integers(8, 12), st.integers(6, 7)),
            "type": value(st.sampled_from(sorted(ALCOVE_WEIGHTS)), st.just("H3")),
        },
    )
    return st.one_of(params, junk) if noisy else params


def vectors(entries, d, noisy):
    if noisy:
        # sometimes one entry short or long
        return st.lists(entries, min_size=max(1, d - 1), max_size=d + 1)
    return st.lists(entries, min_size=d, max_size=d)


@st.composite
def documents(draw):
    d = draw(st.integers(1, 3))
    noisy = draw(st.integers(0, 3)) == 0
    rational = noisy_rational if noisy else clean_rational
    integer = st.one_of(st.integers(-3, 3), junk) if noisy else st.integers(-3, 3)
    kind = draw(st.sampled_from(("vertices", "generators", "corpus") + (("junk",) if noisy else ())))
    if kind == "junk":
        return draw(st.one_of(junk, st.dictionaries(st.text(max_size=3), junk, max_size=2)))
    doc = {}
    if kind == "vertices":
        doc["vertices"] = draw(st.lists(vectors(rational, d, noisy), min_size=0 if noisy else 1, max_size=5))
    elif kind == "generators":
        doc["generators"] = draw(st.lists(vectors(integer, d, noisy), min_size=0 if noisy else 1, max_size=4))
    else:
        doc["corpus"] = draw(st.one_of(st.sampled_from(CORPUS_NAMES), junk) if noisy else st.sampled_from(CORPUS_NAMES))
        doc["params"] = draw(corpus_params(noisy))
    if kind != "corpus" and draw(st.booleans()):
        doc["translate"] = draw(vectors(rational, d, noisy))
    return doc


commands = st.one_of(
    st.builds(lambda t: ["count", "--dilate", str(t)], st.integers(-1, 3)),
    st.builds(lambda m: ["ehrhart"] + (["--minimal"] if m else []), st.booleans()),
    st.just(["zonotope"]),
    st.builds(lambda p: ["check", "--property", p], st.sampled_from(("sym", "gcd"))),
    st.builds(
        lambda w, b: ["classify", "--budget", str(b)] + (["--witness", "--require-witness"] if w else []),
        st.booleans(),
        st.integers(0, 3),
    ),
    st.builds(
        lambda name, params: ["corpus", "build", name, "--params=" + json.dumps(params)],
        st.sampled_from(CORPUS_NAMES + ("dodecahedron",)),
        st.booleans().flatmap(corpus_params),
    ),
    st.builds(lambda xs: ["scan", "--xs", *xs], st.lists(st.sampled_from(("0", "1", "1/2", "3/2", "2", "x", "1/0")), min_size=1, max_size=3)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=commands, doc=documents())
def test_cli_never_raises(argv, doc):
    stdin = io.StringIO(json.dumps(doc))
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in EXIT_CODES
