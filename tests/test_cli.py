import json

import pytest

from ehrkit.cli import main


def run(capsys, argv, stdin_doc=None, monkeypatch=None):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_doc(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


CUBE_DOC = {"vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
PENTAGON_DOC = {
    "vertices": [[1, 0], [0, 1], [0, 2], [1, 3], [2, 1]],
    "translate": ["3/4", "3/4"],
}


class TestCount:
    def test_pentagon(self, tmp_path, capsys):
        f = write_doc(tmp_path, PENTAGON_DOC)
        code, doc = run(capsys, ["count", "--input", f, "--dilate", "2"])
        assert code == 0 and doc == {"count": 17}

    def test_cube(self, tmp_path, capsys):
        f = write_doc(tmp_path, CUBE_DOC)
        code, doc = run(capsys, ["count", "--input", f, "--dilate", "2"])
        assert code == 0 and doc == {"count": 27}

    def test_corpus_counterexample(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "counterexample_pn", "params": {"n": 8}})
        code, doc = run(capsys, ["count", "--input", f, "--dilate", "1"])
        assert code == 0 and doc == {"count": 230}

    def test_alcove_weighted_path(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "alcove", "params": {"type": "G2"}})
        code, doc = run(capsys, ["count", "--input", f, "--dilate", "6"])
        assert code == 0 and doc == {"count": 7}


class TestEhrhart:
    def test_shifted_cube(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "p3_shifted_cube"})
        code, doc = run(capsys, ["ehrhart", "--input", f])
        assert code == 0
        assert doc["period"] == 9
        assert doc["constituents"][8] == ["1", "3", "3", "1"]
        assert doc["constituents"][0] == ["0", "0", "0", "1"]

    def test_shifted_octahedron_f1(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "p2_shifted_octahedron"})
        code, doc = run(capsys, ["ehrhart", "--input", f])
        assert code == 0
        assert doc["constituents"][0] == ["0", "-4/3", "0", "4/3"]

    def test_alcove_minimal(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "alcove", "params": {"type": "G2"}})
        code, doc = run(capsys, ["ehrhart", "--input", f, "--minimal"])
        assert code == 0 and doc["period"] == 6

    def test_zonotope_alias(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"generators": [[1, 0], [1, 1], [0, 1]]})
        code, doc = run(capsys, ["zonotope", "--input", f])
        assert code == 0
        assert doc == {"period": 1, "constituents": [["1", "3", "3"]]}

    def test_canonical_output_is_deterministic(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "p3_shifted_cube"})
        main(["ehrhart", "--input", f])
        first = capsys.readouterr().out
        main(["ehrhart", "--input", f])
        assert capsys.readouterr().out == first


class TestCheck:
    def test_gcd_holds(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "p3_shifted_cube"})
        code, doc = run(capsys, ["check", "--input", f, "--property", "gcd"])
        assert code == 0 and doc["holds"] is True

    def test_gcd_fails_with_evidence(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "p2_shifted_octahedron"})
        code, doc = run(capsys, ["check", "--input", f, "--property", "gcd"])
        assert code == 0 and doc["holds"] is False
        assert doc["evidence"]["residues"] == [1, 2]

    def test_sym_holds(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "p2_shifted_octahedron"})
        code, doc = run(capsys, ["check", "--input", f, "--property", "sym"])
        assert code == 0 and doc["holds"] is True


class TestClassify:
    def test_cube(self, tmp_path, capsys):
        f = write_doc(tmp_path, CUBE_DOC)
        code, doc = run(capsys, ["classify", "--input", f])
        assert code == 0
        assert doc["zonotope"] is True and doc["centrally_symmetric"] is True

    def test_octahedron_witness(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "cross_polytope"})
        code, doc = run(capsys, ["classify", "--input", f, "--witness", "--budget", "300"])
        assert code == 0
        w = doc["gcd_violation_witness"]
        assert w["found"] is True
        assert w["translate"] == ["1/5", "1/5", "1/5"]

    def test_pentagon_witness(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"vertices": PENTAGON_DOC["vertices"]})
        code, doc = run(capsys, ["classify", "--input", f, "--witness", "--budget", "300"])
        assert code == 0
        assert doc["asymmetry_witness"]["found"] is True


class TestScanAndCorpus:
    def test_scan_square(self, tmp_path, capsys):
        doc = {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], "translate": ["1/2", "1/4"]}
        f = write_doc(tmp_path, doc)
        code, out = run(capsys, ["scan", "--input", f, "--xs", "0", "2", "1"])
        assert code == 0
        assert out == {"xs": ["0", "2", "1"], "counts": [4, 2, 1]}

    def test_corpus_list(self, capsys):
        code, doc = run(capsys, ["corpus", "list"])
        assert code == 0
        assert "pentagon_s3" in doc["names"]

    def test_environment_does_not_configure_cli(self, capsys, monkeypatch):
        monkeypatch.setenv("EHRKIT_JOBS", "two")
        code, _ = run(capsys, ["corpus", "list"])
        assert code == 0

    def test_corpus_build(self, capsys):
        code, doc = run(capsys, ["corpus", "build", "p2_shifted_octahedron"])
        assert code == 0
        assert doc["translate"] == ["5/9", "5/9", "2/3"]


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("not json", encoding="utf-8")
        assert main(["count", "--input", str(p), "--dilate", "1"]) == 2
        capsys.readouterr()

    def test_dimension_mismatch(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"vertices": [[0, 0], [1, 0]], "translate": ["1/2"]})
        assert main(["count", "--input", f, "--dilate", "1"]) == 3
        capsys.readouterr()

    def test_unsupported_fractional_vertices(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"vertices": [[0, 0], ["1/2", 0], [0, 1]]})
        assert main(["count", "--input", f, "--dilate", "1"]) == 4
        capsys.readouterr()

    def test_budget_exhausted_exit(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "cross_polytope"})
        code = main(
            ["classify", "--input", f, "--witness", "--require-witness", "--budget", "2"]
        )
        assert code == 5
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["count", "--dilate", "1"], {"vertices": [[0, 0], [1, 0]], "translate": ["1/0", "0"]}),
            (["count", "--dilate", "1"], {"vertices": [["0/00", 0], [1, 0]]}),
            (["corpus", "build", "cube", "--params", "{bad"], None),
            (["corpus", "build", "cube", "--params", "[1]"], None),
            (["corpus", "build", "cube", "--params", '{"dim": "x"}'], None),
            (["corpus", "build", "cube", "--params", '{"dim": 1.5}'], None),
            (["corpus", "build", "cross_polytope", "--params", '{"dim": 0}'], None),
            (["corpus", "build", "alcove", "--params", '{"type": ["G2"]}'], None),
            (["count", "--dilate", "1"], {"corpus": "counterexample_pn", "params": {"n": "abc"}}),
            (["count", "--dilate", "1"], {"corpus": "cube", "params": {"dim": 0}}),
            (["count", "--dilate", "1"], {"corpus": "cube", "params": {"dim": -1}}),
            (["count", "--dilate", "1"], {"corpus": "cube", "params": {"dim": True}}),
            (["classify", "--witness", "--budget", "-1"], {"corpus": "counterexample_pn", "params": {"n": 8}}),
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, argv, doc):
        if doc is not None:
            argv = argv + ["--input", write_doc(tmp_path, doc)]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_alcove_by_name_parameter(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"corpus": "alcove", "params": {"name": "G2"}})
        code, doc = run(capsys, ["count", "--input", f, "--dilate", "6"])
        assert code == 0 and doc == {"count": 7}

    def test_fractional_vertices_ok_for_ehrhart(self, tmp_path, capsys):
        f = write_doc(tmp_path, {"vertices": [[0, 0], ["1/2", 0], [0, "1/2"]]})
        code, doc = run(capsys, ["ehrhart", "--input", f])
        assert code == 0 and doc["period"] == 2


class TestReproduce:
    def test_full_suite(self, capsys):
        code, doc = run(capsys, ["reproduce"])
        assert code == 0
        assert doc["failed"] == 0
        assert doc["disputed"] == 1
        disputed = [c for c in doc["checks"] if c["status"] == "disputed"]
        assert disputed[0]["computed"] == ["0", "0", "1", "1"]

    def test_only_pentagon(self, capsys):
        code, doc = run(capsys, ["reproduce", "--only", "pentagon"])
        assert code == 0
        # 12 table cells plus the four recorded polynomials
        assert doc["total"] == 16
        assert doc["passed"] == 16

    def test_only_alcoves(self, capsys):
        code, doc = run(capsys, ["reproduce", "--only", "alcoves"])
        assert code == 0
        assert doc["total"] == 10 and doc["passed"] == 10

    def test_unknown_section(self, capsys):
        assert main(["reproduce", "--only", "nonsense"]) == 2
        capsys.readouterr()
