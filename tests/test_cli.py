import hashlib
import json

import pytest

from foamalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLaws:
    def test_mv_all(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "mv",
                             "--theta", "mv", "--suite", "all")
        assert code == 0
        assert "[PASS] jacobi" in out
        assert "[PASS] skein_identity_1 [cocomul_skein]" in out

    def test_a5_lie_selected(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "aN:5",
                             "--theta", "lie", "--suite", "jacobi,antisym")
        assert code == 0
        assert "125 cases" in out
        assert "25 cases" in out

    def test_group3_rejected(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "group:3",
                             "--theta", "group")
        assert code == 2
        assert "order > 2" in err

    def test_group22_bialgebra(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "group:2,2",
                             "--theta", "group", "--suite", "bialgebra")
        assert code == 0
        assert "[PASS] bialgebra" in out

    def test_failing_law_exits_one(self, capsys, tmp_path):
        config = tmp_path / "alg.json"
        config.write_text(json.dumps({
            "generators": [],
            "modulus": ["0", "0", "1"],
            "counit": ["0", "1"],
            "theta": [[0, 0, 1, "1"]],
        }))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "config", "--suite", "antisym")
        assert code == 1
        assert "[FAIL] antisymmetry" in out
        assert "counterexample" in out

    def test_json_format(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "mv",
                             "--theta", "mv", "--suite", "jacobi",
                             "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed == [{"law": "jacobi", "passed": True, "cases": 27}]

    def test_rank_mismatch(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "aN:4",
                             "--theta", "mv")
        assert code == 2
        assert "rank mismatch" in err

    def test_lie_needs_odd_rank(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "aN:4",
                             "--theta", "lie")
        assert code == 2
        assert "odd" in err

    def test_bad_spec(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "aN:x",
                             "--theta", "lie")
        assert code == 2


class TestEval:
    def test_handle_matrix(self, capsys):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr", "comul ; mul ; counit")
        assert code == 0
        first_row = out.splitlines()[1]
        assert first_row.strip().startswith("[3,")

    def test_closed_scalar(self, capsys):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr", "unit ; counit")
        assert code == 0
        assert out.strip() == "0"

    def test_arity_error(self, capsys):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr", "comul ; comul")
        assert code == 2
        assert "line 1, column 9" in err

    def test_parse_error_position(self, capsys):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr", "unit ; ; comul")
        assert code == 2
        assert "line 1, column 8" in err

    def test_expr_from_file(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("unit ; counit\n")
        code, out, err = run(capsys, "eval", "--algebra", "aN:3",
                             "--theta", "lie", "--expr", f"@{path}")
        assert code == 0
        assert out.strip() == "0"

    def test_deep_nesting_is_a_parse_error(self, capsys):
        expr = "(" * 3000 + "id" + ")" * 3000
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested deeper than" in err

    def test_json_closed(self, capsys):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr",
                             "((unit;label(X)) * (unit;label(X^2))) ; mul ; counit",
                             "--format", "json")
        assert code == 0
        assert json.loads(out) == {"arity": [0, 0], "value": "-a"}


class TestReport:
    def test_mv_full(self, capsys):
        code, out, err = run(capsys, "report", "--algebra", "mv",
                             "--theta", "mv")
        assert code == 0
        doc = json.loads(out)
        assert doc["algebra"] == "mv"
        assert doc["theta"] == "mv"
        assert "version" in doc
        non_advisory = [r for r in doc["results"] if not r.get("advisory")]
        assert non_advisory and all(r["passed"] for r in non_advisory)
        advisory = [r for r in doc["results"] if r.get("advisory")]
        assert any(
            r.get("note") == "matrix equals -2 * identity" for r in advisory
        )

    def test_group22(self, capsys):
        code, out, err = run(capsys, "report", "--algebra", "group:2,2",
                             "--theta", "group", "--suite", "bialgebra")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["law"] == "bialgebra"
        assert doc["results"][0]["passed"]

    def test_lie9_jacobi(self, capsys):
        code, out, err = run(capsys, "report", "--algebra", "aN:9",
                             "--theta", "lie", "--suite", "jacobi")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["cases"] == 729
        assert doc["results"][0]["passed"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run(capsys, "report", "--algebra", "mv",
                             "--theta", "mv", "--suite", "jacobi",
                             "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["results"][0]["law"] == "jacobi"

    # SHA-256 of the report bytes, recorded before the structure maps became
    # sparse column stores; any change to a verdict, count or rendering shows.
    @pytest.mark.parametrize("algebra, theta, code, digest", [
        ("mv", "mv", 0,
         "c714b0944021759e847ca6845361ba33e9f5301ccb3391a1a5b4fd058a1d534a"),
        ("aN:9", "lie", 1,
         "f0cdd16f95c1105c7f809ae18fc32906405a0dde61e50036574cdb0d06283959"),
        ("group:2,2,2", "group", 1,
         "a3d4a37a668e38b53d1ac033bf91bf93347c7b9555c44832d22295a900d26f78"),
        ("group:2,4", "zero", 1,
         "9239b871718c46412635b221e4321168a74488250330a819fdf771e4cc03d6bd"),
    ])
    def test_golden_digest(self, capsys, algebra, theta, code, digest):
        got, out, err = run(capsys, "report", "--algebra", algebra,
                            "--theta", theta)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "report", "--algebra", "mv", "--theta", "mv")
        _, out2, _ = run(capsys, "report", "--algebra", "mv", "--theta", "mv")
        assert out1 == out2


class TestConfig:
    def test_custom_algebra(self, capsys, tmp_path):
        config = tmp_path / "mvlike.json"
        config.write_text(json.dumps({
            "generators": ["a", "b", "c"],
            "modulus": ["-c", "-b", "-a", "1"],
            "counit": ["0", "0", "-1"],
        }))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "mv", "--suite", "jacobi")
        assert code == 0

    def test_custom_theta_file(self, capsys, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({
            "entries": [[0, 1, 2, "1"], [0, 2, 1, "-1"]],
        }))
        code, out, err = run(capsys, "laws", "--algebra", "mv",
                             "--theta", str(theta), "--suite", "jacobi,antisym")
        assert code == 0

    def test_missing_field(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"generators": []}))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "zero")
        assert code == 2
        assert "missing" in err

    def test_unreadable_config(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "missing.json",
                             "--theta", "zero")
        assert code == 2
