"""Byte-for-byte stdout of fixed CLI runs.

Each file in ``tests/golden/`` holds the stdout of
``python -m ehrkit.cli ARGV --input DOC`` for one row of ``RUNS`` (no
``--input`` for ``reproduce``).  Output is deterministic and canonical,
so a change that alters any byte of it is a change of behaviour.  To
record a deliberate change, rewrite the file from that command.
"""

import json
from pathlib import Path

import pytest

from ehrkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

WITNESS = ["classify", "--witness", "--budget", "100"]
RUNS = [
    ("reproduce", ["reproduce"], None),
    ("classify_cube", WITNESS, {"corpus": "cube", "params": {"dim": 3}}),
    ("classify_cross_polytope", WITNESS, {"corpus": "cross_polytope", "params": {"dim": 3}}),
    ("classify_counterexample_pn", WITNESS, {"corpus": "counterexample_pn", "params": {"n": 8}}),
] + [
    (f"check_{prop}_{name}", ["check", "--property", prop], {"corpus": name})
    for name in ("p1_ninth_cube", "p2_shifted_octahedron")
    for prop in ("sym", "gcd")
] + [
    ("ehrhart_alcove_e8", ["ehrhart", "--minimal"], {"corpus": "alcove", "params": {"type": "E8"}}),
    ("ehrhart_p1_ninth_cube", ["ehrhart", "--minimal"], {"corpus": "p1_ninth_cube"}),
]


@pytest.mark.parametrize("name, argv, doc", RUNS, ids=[r[0] for r in RUNS])
def test_stdout_is_unchanged(tmp_path, capsys, name, argv, doc):
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ["--input", str(path)]
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
