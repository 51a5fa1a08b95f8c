import hashlib
import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from foamalg import __version__, cli, foamlang, groupfoam, lawsuite
from foamalg.cli import MAX_TRUNCATED_RANK, main
from foamalg.coeffring import MAX_EXPONENT, MultiPoly
from foamalg.foamlang import MAX_MATRIX_CELLS
from foamalg.frobalg import LinearMap


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

    @pytest.mark.parametrize("command", ["laws", "report"])
    @pytest.mark.parametrize("suite", ["", ",", " , "])
    def test_empty_suite_is_malformed(self, capsys, command, suite):
        # No selected law must not read as "every selected law passed".
        code, out, err = run(capsys, command, "--algebra", "mv",
                             "--theta", "mv", "--suite", suite)
        assert (code, out) == (2, "")
        assert err.startswith("error: --suite") and err.count("\n") == 1
        assert "selects no law" in err

    def test_json_format(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra", "mv",
                             "--theta", "mv", "--suite", "jacobi",
                             "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed == [{"law": "jacobi", "passed": True, "cases": 27}]

    def test_universal_rank_7_fails_jacobi_on_sorted_triples(self, capsys,
                                                              tmp_path):
        """X^7 - a1 X^6 - ... - a7 with the lie table: antisymmetry passes,
        so Jacobi takes the sorted-triple walk, and fails at the 18th
        column, (1, X^2, X^3), as the walk of every column does."""
        config = tmp_path / "univ7.json"
        config.write_text(json.dumps({
            "generators": [f"a{k}" for k in range(1, 8)],
            "modulus": [f"-a{k}" for k in range(7, 0, -1)] + ["1"],
            "counit": ["0"] * 6 + ["1"],
        }))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "lie", "--suite", "antisym,jacobi",
                             "--format", "json")
        assert (code, err) == (1, "")
        antisym, jacobi = json.loads(out)
        assert antisym == {"law": "antisymmetry", "passed": True,
                           "cases": 49}
        assert (jacobi["passed"], jacobi["cases"]) == (False, 18)
        assert jacobi["counterexample"]["inputs"] == ["1", "X^2", "X^3"]

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

    @pytest.mark.parametrize("spec, line", [
        ("group:2_2", "bad group spec 'group:2_2'"),
        ("group:2,,2", "bad group spec 'group:2,,2'"),
        ("group:2,", "bad group spec 'group:2,'"),
        ("group:+2", "bad group spec 'group:+2'"),
        ("group: 2", "bad group spec 'group: 2'"),
        ("aN:1_5", "bad truncated-algebra spec 'aN:1_5'"),
        ("aN: 15", "bad truncated-algebra spec 'aN: 15'"),
        ("aN:+15", "bad truncated-algebra spec 'aN:+15'"),
        ("aN:\uff11\uff15", "bad truncated-algebra spec 'aN:\uff11\uff15'"),
    ])
    def test_number_fields_are_ascii_decimals(self, capsys, spec, line):
        """`int` reads signs, spaces, underscores and non-ASCII digits, and
        an empty field used to be dropped; a spec field is digits only."""
        code, out, err = run(capsys, "laws", "--algebra", spec,
                             "--theta", "zero", "--suite", "delta_one")
        assert (code, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("spec, rank", [
        ("aN:015", 15), ("group:02,3", 6),
    ])
    def test_leading_zeros_are_decimals(self, capsys, spec, rank):
        code, out, err = run(capsys, "laws", "--algebra", spec,
                             "--theta", "zero", "--suite", "delta_one")
        assert (code, err) == (0, "")
        assert f"{rank} cases" in out

    def test_truncated_rank_bound(self, capsys):
        code, out, err = run(capsys, "laws", "--algebra",
                             f"aN:{MAX_TRUNCATED_RANK + 1}", "--theta", "zero")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"n <= {MAX_TRUNCATED_RANK}" in err

    @pytest.mark.parametrize("rank, code", [
        (MAX_TRUNCATED_RANK, 0), (MAX_TRUNCATED_RANK + 1, 2),
    ])
    def test_config_rank_bound(self, capsys, tmp_path, rank, code):
        # Z[X]/(X^rank); the bound applies before the modulus is parsed,
        # so an unparsable entry still reads as the rank error.
        config = tmp_path / "alg.json"
        config.write_text(json.dumps({
            "generators": [],
            "modulus": [0] * rank + [1] if code == 0 else ["(("] * rank + [1],
            "counit": [0] * (rank - 1) + [1],
        }))
        got, out, err = run(capsys, "laws", "--algebra", str(config),
                            "--theta", "zero", "--suite", "antisym")
        assert got == code
        if code == 0:
            assert f"[PASS] antisymmetry: {rank * rank} cases" in out
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"rank bound {MAX_TRUNCATED_RANK}" in err


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

    @pytest.mark.parametrize("expr, arity", [
        ("comul ; mul", [1, 1]),
        ("(unit ; label(X)) * (unit ; label(X)) * unit ; theta", [0, 0]),
    ], ids=["open", "closed"])
    def test_one_compile_per_request(self, capsys, monkeypatch, expr, arity):
        """`eval` compiles the diagram once, and reads its arity off the
        compiled map, open or closed."""
        compile_diagram, calls = foamlang.compile_diagram, []

        def counted(*args):
            calls.append(args)
            return compile_diagram(*args)

        monkeypatch.setattr(foamlang, "compile_diagram", counted)
        monkeypatch.setattr(cli, "compile_diagram", counted)
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta",
                             "mv", "--format", "json", "--expr", expr)
        assert (code, err, len(calls)) == (0, "", 1)
        assert json.loads(out)["arity"] == arity

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

    # The bound holds per name over the factors of one product term, and the
    # last two are refused before any power is computed.
    @pytest.mark.parametrize("payload", ["a^100000000", "X^100000000",
                                         "X^100*X^100", "X^60*X^60"])
    def test_huge_exponent_is_an_error(self, capsys, payload):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr", f"label({payload})")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"exceeds the maximum {MAX_EXPONENT}" in err

    def test_exponent_at_the_bound(self, capsys):
        k = MAX_EXPONENT
        code, out, err = run(capsys, "eval", "--algebra", "aN:3", "--theta",
                             "lie", "--expr", f"unit ; label(X^{k} + X^2) ; counit")
        assert (code, out.strip(), err) == (0, "1", "")
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr", f"unit ; label(a^{k} * X^2) ; counit")
        assert (code, out.strip(), err) == (0, f"-a^{k}", "")

    # Composing or tensoring labels multiplies their coefficients, so one
    # diagram's labels share the bound; each of these would otherwise run
    # for 10 s or more and print megabytes.
    @pytest.mark.parametrize("expr", ["label(X^100) ; label(X^100)",
                                      "(label(X^100) * label(X^100)) ; mul"])
    def test_labels_share_the_exponent_bound(self, capsys, expr):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta",
                             "mv", "--expr", expr)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "to degree 200," in err
        assert f"exceeds the maximum {MAX_EXPONENT}" in err

    def test_labels_within_the_shared_bound(self, capsys):
        half = MAX_EXPONENT // 2
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta",
                             "mv", "--expr", f"label(X^{half}) ; label(X^{half})")
        assert (code, err) == (0, "")
        assert run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                   "--expr", f"label(X^{2 * half})") == (0, out, "")

    @staticmethod
    def count_maps_after_context(monkeypatch):
        """Record every LinearMap built once the context exists, that is
        every map that compilation builds, through the public constructor
        or the internal `_canonical`."""
        built = []
        build_context = cli.build_context
        init, canonical = LinearMap.__init__, LinearMap._canonical

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        def counting_canonical(cls, *args):
            built.append(args)
            return canonical(*args)

        def build_then_count(args):
            ctx = build_context(args)
            monkeypatch.setattr(LinearMap, "__init__", counting_init)
            monkeypatch.setattr(LinearMap, "_canonical",
                                classmethod(counting_canonical))
            return ctx

        monkeypatch.setattr(cli, "build_context", build_then_count)
        return built

    # Ten legs on mv would print a 3^20-cell matrix, and seven already print
    # 52 MB; a closed diagram's column at a wide middle cut is as large, and
    # so is the map from a diagram's inputs to any cut, though each part is
    # small.
    @pytest.mark.parametrize("expr, shape", [
        ("*".join(["id"] * 10), "10 inputs and a cut of 10 legs, 3^20"),
        ("*".join(["id"] * 7), "7 inputs and a cut of 7 legs, 3^14"),
        ("(" + "*".join(["unit"] * 13) + ") ; ("
         + "*".join(["counit"] * 13) + ")",
         "0 inputs and a cut of 13 legs, 3^13"),
        ("(" + "*".join(["counit"] * 7) + ") ; (" + "*".join(["unit"] * 7)
         + ") ; (" + "*".join(["counit"] * 7) + ")",
         "7 inputs and a cut of 7 legs, 3^14"),
    ])
    def test_oversized_diagram_builds_nothing(self, capsys, monkeypatch, expr,
                                              shape):
        built = self.count_maps_after_context(monkeypatch)
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta",
                             "mv", "--expr", expr)
        assert (code, out, built) == (2, "", [])
        assert err.startswith("error: diagram too large") \
            and err.count("\n") == 1
        assert shape in err and str(MAX_MATRIX_CELLS) in err

    # The closed theta diagram has three legs at its widest cut, so it
    # evaluates at ranks where its part `id * bmul` alone would be a
    # rank^5-cell matrix, far beyond the bound.  The first is the README's;
    # the last puts a composition with two inputs inside the tensor, so the
    # diagram reads theta(u, w, v).
    @pytest.mark.parametrize("algebra, theta, labels, bracket, value", [
        ("aN:17", "lie", ("1", "X", "X^2"), "bmul", "0"),
        ("aN:17", "lie", ("1", "X^2", "X^15"), "bmul", "1"),
        ("aN:63", "lie", ("1", "X^3", "X^60"), "bmul", "1"),
        ("group:2,2,2,2,2", "group", ("v", "v", "v"), "bmul", "1"),
        ("group:2,2,2,2,2,2", "group", ("u*v", "u*v", "u*v"), "bmul", "1"),
        ("aN:63", "lie", ("1", "X^3", "X^60"), "(swap ; bmul)", "-1"),
    ])
    def test_theta_diagram_at_large_rank(self, capsys, algebra, theta,
                                         labels, bracket, value):
        u, v, w = labels
        expr = (f"((unit;label({u})) * (unit;label({v})) * (unit;label({w})))"
                f" ; (id * {bracket}) ; mul ; counit")
        ctx = cli.build_context(SimpleNamespace(algebra=algebra, theta=theta))
        A = ctx.algebra
        assert A.rank ** 5 > MAX_MATRIX_CELLS
        read = (u, w, v) if "swap" in bracket else (u, v, w)
        assert str(ctx.theta.eval(*map(A.parse_element, read))) == value
        assert run(capsys, "eval", "--algebra", algebra, "--theta", theta,
                   "--expr", expr) == (0, f"{value}\n", "")

    def test_matrix_cells_at_the_bound(self, capsys, monkeypatch):
        # Rank 2: twenty legs at the middle cut make exactly 2^20 cells.
        legs = MAX_MATRIX_CELLS.bit_length() - 1
        for k, expected in ((legs, 0), (legs + 1, 2)):
            expr = "(" + "*".join(["unit"] * k) + ") ; (" + \
                "*".join(["counit"] * k) + ")"
            code, out, err = run(capsys, "eval", "--algebra", "group:2",
                                 "--theta", "zero", "--expr", expr)
            assert code == expected
        assert out == "" and err.startswith("error: diagram too large")

    def test_derived_name_is_bounded_as_a_generator(self, capsys):
        # `bcomul` has three legs in flight inside its definition, but the
        # bound counts its own two: 33^3 cells are accepted, not 33^4.
        assert 33 ** 4 > MAX_MATRIX_CELLS
        code, out, err = run(capsys, "eval", "--algebra", "aN:33", "--theta",
                             "lie", "--expr", "bcomul ; bmul")
        assert (code, err) == (0, "")

    def test_group_ring_generators(self, capsys):
        """The counit law through `eval`: `bcomul ; (aug * id)` is `id` on
        a group ring."""
        group = ("eval", "--algebra", "group:2,2", "--theta", "group")
        code, out, err = run(capsys, *group, "--expr", "bcomul ; (aug * id)")
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *group, "--expr", "id")

    def test_group_ring_generator_off_a_group_ring(self, capsys):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta",
                             "mv", "--expr", "aug")
        assert (code, out) == (2, "")
        assert err == "error: generator 'aug' needs a group ring algebra\n"

    def test_json_closed(self, capsys):
        code, out, err = run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                             "--expr",
                             "((unit;label(X)) * (unit;label(X^2))) ; mul ; counit",
                             "--format", "json")
        assert code == 0
        assert json.loads(out) == {"arity": [0, 0], "value": "-a"}


MV_KNOWS = "(algebra knows X, a, b, c)"
# The exact stderr of a malformed label payload.  Its names are checked in
# source order as they are read, so an unknown name is reported ahead of a
# syntax error after it; a product term is checked against MAX_EXPONENT
# once it is read.
LABEL_ERRORS = [
    ("Y", f"unknown symbol 'Y' {MV_KNOWS} at column 1"),
    ("X + 2*b*Y^2", f"unknown symbol 'Y' {MV_KNOWS} at column 9"),
    ("X^", "expected INT at column 3, found 'end of input'"),
    ("X^60 * X^60", "labels up to line 1, column 1 raise 'X' to degree 120, "
                    "which exceeds the maximum 100 for one name in one "
                    "diagram"),
    ("2^101", "exponent 101 at column 3 exceeds the maximum 100 for one "
              "name in one product term"),
    ("a b", "unexpected 'b' at column 3"),
    ("--a", "expected a number or name at column 2, found '-'"),
    ("a +* b", "expected a number or name at column 4, found '*'"),
    ("a $ b", "unexpected character '$' at column 3"),
    ("Y + ", f"unknown symbol 'Y' {MV_KNOWS} at column 1"),
    ("X^100*Y", f"unknown symbol 'Y' {MV_KNOWS} at column 7"),
]
# The same for a polynomial string of a config over Z[a].
POLY_ERRORS = [
    ("Y", "unknown generator 'Y' (ring has ('a',)) at column 1"),
    ("a + q^2", "unknown generator 'q' (ring has ('a',)) at column 5"),
    ("a^", "expected INT at column 3, found 'end of input'"),
    ("a^60 * a^60", "exponent 120 at column 10 exceeds the maximum 100 for "
                    "one name in one product term"),
    ("a b", "unexpected 'b' at column 3"),
    ("--a", "expected a number or name at column 2, found '-'"),
    ("Y + ", "unknown generator 'Y' (ring has ('a',)) at column 1"),
    ("Y * a^", "unknown generator 'Y' (ring has ('a',)) at column 1"),
]


class TestParseErrorBytes:
    @pytest.mark.parametrize("payload,message", LABEL_ERRORS)
    def test_label(self, capsys, payload, message):
        assert run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                   "--expr", f"label({payload})") == \
            (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("payload,message", POLY_ERRORS)
    def test_config_modulus(self, capsys, tmp_path, payload, message):
        config = tmp_path / "alg.json"
        config.write_text(json.dumps({
            "generators": ["a"], "modulus": [payload, "0", "1"],
            "counit": ["0", "1"]}))
        assert run(capsys, "laws", "--algebra", str(config), "--theta",
                   "zero", "--suite", "antisym") == \
            (2, "", f"error: config {str(config)!r}: {message}\n")


class TestReport:
    def test_pairing_is_built_once(self, capsys, monkeypatch):
        """counit(u * v), as mul ; counit, is built for the Gram matrix and
        read from the cache by every law that needs it.  The one other
        pairing is the Gram matrix of the cyclic factor Z[Z/2] that the
        group ring is built from."""
        pairings = []
        rshift = LinearMap.__rshift__

        def counting_rshift(self, other):
            if (self.in_order, self.out_order, other.in_order,
                    other.out_order) == (2, 1, 1, 0):
                pairings.append(self)
            return rshift(self, other)

        monkeypatch.setattr(LinearMap, "__rshift__", counting_rshift)
        code, out, err = run(capsys, "report", "--algebra", "group:2,2,2,2",
                             "--theta", "group")
        assert (code, err) == (1, "")
        assert sorted(p.n for p in pairings) == [2, 16]

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

    def test_readme_example_is_the_mv_report(self, capsys):
        """Each result of the README's report example is the same result of
        `report --algebra mv --theta mv`, with its keys in printed order."""
        readme = (Path(__file__).resolve().parent.parent / "README.md")
        section = readme.read_text(encoding="utf-8").split(
            "### Report schema", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```")[0])
        code, out, err = run(capsys, "report", "--algebra", "mv",
                             "--theta", "mv")
        assert (code, err) == (0, "")
        printed = {(r["law"], r.get("variant")): r
                   for r in json.loads(out)["results"]}
        for result in example["results"]:
            expected = printed[result["law"], result.get("variant")]
            assert list(result.items()) == list(expected.items())

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

    def test_unwritable_out_file_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "report", "--algebra", "mv",
                             "--theta", "mv", "--suite", "jacobi",
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {str(path)!r}: ")
        assert err.count("\n") == 1

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
        ("aN:15", "lie", 1,
         "59b29c18b3bfc43f196ddbf4c0ab79bd6b909035823be06f839d45f527ecbb4c"),
        ("group:2,2,2,2", "group", 1,
         "89da946e02ae17a6f953701837f5abfbb055f041c4e868b9bfe2b32b3556f9d1"),
        ("aN:21", "lie", 1,
         "0e494ec0197f92b7d612c2f947d66384bd11861c56f7f66233b983904f136df6"),
        ("aN:41", "lie", 1,
         "7c2c28c176f436938ded1def82df055d68289da2e94ac20e5447d2b89bda4e5d"),
        ("aN:63", "lie", 1,
         "35012098ddf1c632246e3b18b7b9853ccad05b3ec1b1a839d0780154b4d7035b"),
        ("aN:64", "zero", 1,
         "b203b3b5f41b78525da07dedd4b8ab209451239642a631e6c8fa15551fcfe151"),
        ("group:2,2,2,2,2,2", "group", 1,
         "15c9f7eddf22fc4b2b2c8a7537b6d8130e693dcc9556a901902331864427486b"),
        ("group:3,3", "zero", 1,
         "165afcf8d087be2c7ded00fcc6bbe967a43cfae4b8687bb561a3421482477717"),
    ])
    def test_golden_digest(self, capsys, algebra, theta, code, digest):
        got, out, err = run(capsys, "report", "--algebra", algebra,
                            "--theta", theta)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_each_law_is_walked_once(self, capsys, monkeypatch):
        """A report builds the sides of each (law, sign, D) once: Jacobi
        reads the antisymmetry verdict the antisym suite left in the
        context's memo."""
        built = []

        def counting(ctx, law, sign=1, D="", sides=lawsuite.sides):
            built.append((law, sign, D))
            return sides(ctx, law, sign, D)
        monkeypatch.setattr(lawsuite, "sides", counting)
        code, _, _ = run(capsys, "report", "--algebra", "aN:15",
                         "--theta", "lie")
        assert code == 1
        twice = {key for key in built if built.count(key) > 1}
        assert twice == set()
        assert built.count(("antisymmetry", 1, "")) == 1
        assert ("skein_identity_1", -1, "bcomul") in built

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "report", "--algebra", "mv", "--theta", "mv")
        _, out2, _ = run(capsys, "report", "--algebra", "mv", "--theta", "mv")
        assert out1 == out2


# SHA-256 of `eval --format json` bytes, recorded before the kernel shared
# entries of a factor equal to 1 and relabelled Kronecker products with `id`;
# each diagram has a factor of 1 on one side or the other, or a sum that
# cancels.
EVAL_GOLDENS = [
    ("mv", "mv", "id * mul",
     "d0cfda8753de6eb9bb9c8fb39d4bb9820eb612419c93e27700e3710813d46c3e"),
    ("mv", "mv", "mul * id",
     "39bb95c2c9d1835a1106f54ac7ac75075f727dbc04953f604d71e14e2b8fbac5"),
    ("mv", "mv", "(unit * id) ; mul",
     "2a7affde293146eac173dfba810471ec72e189215ce9c1dd029d4647f97378db"),
    ("mv", "mv", "(id * unit) ; swap",
     "a15007000b17e15dca5b8f0a2f0e8cb7898bdfdfecdf7b0f7ceeaf0a12c41cd8"),
    ("mv", "mv", "comul ; (id * label(a*X - b))",
     "afca84a1b568d1edb692aff9fecb2e54fd62c6ecae92e1ca2e6df9b7542d8cd9"),
    ("mv", "mv", "label(X - X) * id",
     "f8b03a1f9dfe09e6a4e01a30b483fddb54cf8f9d8da6cddf16f3ac75d88f812f"),
    ("mv", "mv", "bcomul_skein ; bmul",
     "e0ab71b30b4dbd860d1be5cf6f7f7c4f4c4b2ea206b1041426ad7acc39a6e608"),
    ("aN:5", "lie", "(id * bmul) ; bmul",
     "80ee3cc47945ab8ab62f5ea870cc2490eb7ac960295d640c0eb47d1fa709cf50"),
    ("group:2,2", "group", "diag ; (aug * id)",
     "969bd4bd6e911b5ffeda9c53d1954a588556532a281dec2eb2197b90ea1c1038"),
    ("group:2,2", "group", "bcomul ; (id * aug)",
     "969bd4bd6e911b5ffeda9c53d1954a588556532a281dec2eb2197b90ea1c1038"),
]


class TestKernelBuiltMaps:
    @pytest.mark.parametrize("algebra, theta, expr, digest", EVAL_GOLDENS)
    def test_eval_golden_digest(self, capsys, algebra, theta, expr, digest):
        code, out, err = run(capsys, "eval", "--algebra", algebra, "--theta",
                             theta, "--format", "json", "--expr", expr)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_internal_maps_rebuild_through_the_public_constructor(
            self, capsys, monkeypatch):
        """Every map that `LinearMap._canonical` wraps unchecked, in reports
        and in the golden diagrams, is one the public constructor accepts
        and leaves as it is: no empty column, no zero entry, no index out
        of range and no entry of another ring."""
        built = []
        canonical = LinearMap._canonical

        def recording(cls, *args):
            m = canonical(*args)
            built.append(m)
            return m

        monkeypatch.setattr(LinearMap, "_canonical", classmethod(recording))
        for algebra, theta in (("mv", "mv"), ("aN:9", "lie"),
                               ("group:2,2,2", "group")):
            run(capsys, "report", "--algebra", algebra, "--theta", theta)
        for algebra, theta, expr, _ in EVAL_GOLDENS:
            assert run(capsys, "eval", "--algebra", algebra, "--theta", theta,
                       "--expr", expr)[0] == 0
        assert len(built) > 20
        for m in built:
            ncols, nrows = m.n ** m.in_order, m.n ** m.out_order
            assert LinearMap(m.gens, m.n, m.in_order, m.out_order,
                             m.cols) == m
            for c, col in m.cols.items():
                assert col and 0 <= c < ncols
                for r, v in col.items():
                    assert v and v.gens == m.gens and 0 <= r < nrows


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

    # Each of these once ran: an object was read key by key, one character
    # per index, and a float index was truncated.
    BAD_THETA_ENTRIES = [
        {"0121": 5},
        [[0.9, 1, 2, "1"]],
        [["0", 1, 2, "1"]],
        [[True, 1, 2, "1"]],
        [[0, 1, 2, 1.5]],
        [[0, 1, 2, None]],
        [[0, 1, 2]],
        [[0, 1, 2, "1", 5]],
        [(0, 1, 2)],
        "0121",
        5,
    ]

    @pytest.mark.parametrize("entries", BAD_THETA_ENTRIES)
    def test_theta_file_entries_are_validated(self, capsys, tmp_path, entries):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"entries": entries}))
        for command in ("laws", "eval"):
            extra = ["--expr", "id"] if command == "eval" else []
            code, out, err = run(capsys, command, "--algebra", "mv",
                                 "--theta", str(theta), *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: bad theta entries: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("entries", BAD_THETA_ENTRIES)
    def test_config_theta_entries_are_validated(self, capsys, tmp_path,
                                                entries):
        config = tmp_path / "alg.json"
        config.write_text(json.dumps({
            "generators": [], "modulus": ["0", "0", "1"], "counit": ["0", "1"],
            "theta": entries,
        }))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "config", "--suite", "antisym")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad theta entries: ")
        assert err.count("\n") == 1

    def test_theta_entry_values_and_indices(self, capsys, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({
            "entries": [[0, 1, 2, 1], [0, 2, 1, "-1"]],
        }))
        code, out, err = run(capsys, "laws", "--algebra", "mv",
                             "--theta", str(theta), "--suite", "jacobi,antisym")
        assert (code, err) == (0, "")
        theta.write_text(json.dumps({"entries": [[0, 1, 3, "1"]]}))
        code, out, err = run(capsys, "laws", "--algebra", "mv",
                             "--theta", str(theta), "--suite", "antisym")
        assert (code, out) == (2, "")
        assert err == "error: bad theta entries: index out of range in " \
            "(0, 1, 3) for rank 3\n"

    def test_theta_zero_entry_conflicting_with_its_orbit(self, capsys,
                                                         tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"entries": [[0, 1, 2, 5], [1, 2, 0, 0]]}))
        code, out, err = run(capsys, "laws", "--algebra", "mv",
                             "--theta", str(theta), "--suite", "antisym")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad theta entries: cyclic symmetry "
                              "conflict")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("field, value, message", [
        ("generators", 5, "'generators' must be a list of names"),
        ("generators", ["a", 1], "'generators' must be a list of names"),
        ("modulus", ["-c", "-b", 1.5, "1"], "'modulus' must be a list"),
        ("counit", "0", "'counit' must be a list"),
    ])
    def test_config_field_types(self, capsys, tmp_path, field, value, message):
        doc = {"generators": ["a", "b", "c"],
               "modulus": ["-c", "-b", "-a", "1"], "counit": ["0", "0", "-1"]}
        doc[field] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "zero")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("generators, message", [
        (["a", "a"], "generator names repeat"),
        (["a", "b", "a"], "generator names repeat"),
        ([""], "generator '' is not a name"),
        (["1a"], "generator '1a' is not a name"),
        (["a b"], "generator 'a b' is not a name"),
        ([" a"], "generator ' a' is not a name"),
        (["a.b"], "generator 'a.b' is not a name"),
    ])
    def test_generator_names(self, capsys, tmp_path, generators, message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "generators": generators, "modulus": ["0", "0", "1"],
            "counit": ["0", "1"]}))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "zero")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_generator_names_that_parse(self, capsys, tmp_path):
        config = tmp_path / "ok.json"
        config.write_text(json.dumps({
            "generators": ["a_1", "_b", "c2"], "modulus": ["-a_1", "_b*c2", "1"],
            "counit": ["0", "1"]}))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "zero", "--suite", "antisym")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("generators, counit, det", [
        ([], ["0", "2"], "-4"), (["a"], ["0", "a"], "-a^2"),
    ])
    def test_non_unit_counits_are_refused(self, capsys, tmp_path,
                                          generators, counit, det):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "generators": generators, "modulus": ["0", "0", "1"],
            "counit": counit}))
        code, out, err = run(capsys, "laws", "--algebra", str(config),
                             "--theta", "zero")
        assert (code, out) == (2, "")
        assert err == (f"error: config {str(config)!r}: degenerate or "
                       f"non-unimodular Frobenius form: det(gram) = {det}\n")

    @staticmethod
    def univ_setup_config(rank, rng):
        """X^N - sum_k (a_k + s_k) X^(N-k) over Z[a1..aN], shifts s_k drawn
        from [-3, 3] without 0, with the counit on X^(N-1): the generic
        configs of the benchmark's univ-setup workload."""
        gens = [f"a{k}" for k in range(1, rank + 1)]
        modulus = ["0"] * rank + ["1"]
        for k in range(1, rank + 1):
            s = rng.choice((-3, -2, -1, 1, 2, 3))
            modulus[rank - k] = f"-a{k} - {s}" if s > 0 else f"-a{k} + {-s}"
        return {"generators": gens, "modulus": modulus,
                "counit": ["0"] * (rank - 1) + ["1"]}

    def test_gram_inverse_runs_only_for_other_counits(self, inverse_calls,
                                                      tmp_path):
        """Quotients with the counit on X^(N-1) and group rings hand their
        dual bases over; `unimodular_inverse` runs for any other counit."""
        rng = random.Random("univ-setup:1")
        configs = [self.univ_setup_config(rank, rng) for rank in (6, 7)]
        configs.append({"generators": ["a", "b", "c"],
                        "modulus": ["-c", "-b", "-a", "1"],
                        "counit": ["0", "0", "-1"]})
        specs = ["mv", "aN:2", "aN:3", "aN:15", "aN:64", "group:2",
                 "group:3,4", "group:2,2,2,2,2,2"]
        for i, config in enumerate(configs):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config))
            specs.append(str(path))
        for spec in specs:
            cli.build_algebra(spec)
        assert inverse_calls == []
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({"generators": [], "modulus": ["0", "0", "1"],
                                    "counit": ["1", "1"]}))
        algebra, _ = cli.build_algebra(str(path))
        assert len(inverse_calls) == 1
        assert algebra.gram_det == MultiPoly.const(algebra.gens, -1)

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null"])
    def test_config_must_be_an_object(self, capsys, tmp_path, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        for argv in (["--algebra", str(config), "--theta", "zero"],
                     ["--algebra", "mv", "--theta", str(config)]):
            code, out, err = run(capsys, "laws", *argv)
            assert (code, out) == (2, "")
            assert err == f"error: config {str(config)!r} is not a JSON object\n"


class TestSuiteSelection:
    """A bad `--suite` exits 2 before any law runs, and an unknown name
    before the context is built."""

    @staticmethod
    def count_laws(monkeypatch):
        calls = []
        for module, name in [(lawsuite, n) for n in dir(lawsuite)
                             if n.startswith("check_")] + \
                [(groupfoam, "check_bialgebra")]:
            def counted(*args, _law=getattr(module, name), _name=name):
                calls.append(_name)
                return _law(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_counter_sees_the_laws(self, capsys, monkeypatch):
        calls = self.count_laws(monkeypatch)
        code, out, err = run(capsys, "laws", "--algebra", "group:2,2",
                             "--theta", "group",
                             "--suite", "theta_trace,bialgebra")
        assert code == 0
        assert calls == ["check_theta_trace", "check_bialgebra"]

    @pytest.mark.parametrize("suite", ["bogus", "jacobi,theta_trace,bogus"])
    def test_unknown_name_builds_nothing(self, capsys, monkeypatch, suite):
        calls = self.count_laws(monkeypatch)
        built = []
        monkeypatch.setattr(cli, "build_context", built.append)
        code, out, err = run(capsys, "laws", "--algebra", "aN:63",
                             "--theta", "lie", "--suite", suite)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown suite 'bogus'; available: ")
        assert built == [] and calls == []

    @pytest.mark.parametrize("command", ["laws", "report"])
    def test_bialgebra_needs_a_group_ring_before_any_law(
            self, capsys, monkeypatch, command):
        calls = self.count_laws(monkeypatch)
        code, out, err = run(capsys, command, "--algebra", "aN:5", "--theta",
                             "lie", "--suite", "jacobi,theta_trace,bialgebra")
        assert (code, out) == (2, "")
        assert err == "error: the bialgebra suite needs a group ring algebra\n"
        assert calls == []

    def test_all_keeps_bialgebra_to_group_rings(self, capsys, monkeypatch):
        calls = self.count_laws(monkeypatch)
        code, out, err = run(capsys, "laws", "--algebra", "aN:3", "--theta",
                             "lie", "--suite", "bialgebra,all")
        assert code == 1
        assert "check_bialgebra" not in calls and "check_jacobi" in calls


class TestMain:
    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def broken(ctx, names):
            raise RuntimeError("broken invariant")
        monkeypatch.setattr(cli, "run_suite", broken)
        code, out, err = run(capsys, "laws", "--algebra", "mv", "--theta", "mv")
        assert (code, out) == (3, "")
        assert err == "internal error: RuntimeError: broken invariant\n"

    def version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_consecutive_calls_share_one_parser(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        assert self.version(capsys) == f"{__version__}\n"
        for _ in range(2):
            assert run(capsys, "laws", "--algebra", "mv", "--theta", "mv",
                       "--suite", "jacobi", "--format", "json") == (
                0, '[\n  {\n    "law": "jacobi",\n    "passed": true,\n'
                   '    "cases": 27\n  }\n]\n', "")
            assert run(capsys, "eval", "--algebra", "mv", "--theta", "mv",
                       "--expr", "unit ; counit") == (0, "0\n", "")
            code, out, err = run(capsys, "report", "--algebra", "mv",
                                 "--theta", "mv", "--suite", "jacobi")
            assert (code, err) == (0, "")
            assert json.loads(out)["results"] == [
                {"law": "jacobi", "passed": True, "cases": 27}]
            assert self.version(capsys) == f"{__version__}\n"
        # A default of one subcommand does not leak into the next call.
        assert run(capsys, "laws", "--algebra", "mv", "--theta", "mv",
                   "--suite", "jacobi")[1] == "[PASS] jacobi: 27 cases\n"
