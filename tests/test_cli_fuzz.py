"""Fuzz `cli.main` with random diagrams, specs and config files: whatever the
input, the exit code is 0, 1 or 2 and stderr is empty or one `error: ` line
(no traceback, no internal error, no crash read as a failed law)."""

import io
import json
import string
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from foamalg.cli import main

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Junk without digits after a colon, so it never names a large `aN:<n>`.
junk = st.text(alphabet=string.ascii_letters + ":,;*()^+-_ @", max_size=10)

algebra_specs = st.sampled_from([
    "mv", "aN:2", "aN:3", "aN:5", "aN:1", "aN:x", "aN:", "aN:65",
    "group:2", "group:2,2", "group:3", "group:0", "group:", "group:-2",
    "group:2,,2", "config.json",
]) | junk

theta_specs = st.sampled_from(
    ["mv", "lie", "group", "zero", "config", "theta.json"]) | junk

json_values = st.sampled_from([
    None, True, 0, 1, -1, 1.5, 5, "", "x", "a +", "1", "-a", [], [1], [1.5],
    [[1]], ["a"], {}, {"a": 1},
])

generators = st.sampled_from([["a", "b", "c"], [], ["a"], ["a", "a"]]) \
    | json_values
moduli = st.sampled_from([
    ["-c", "-b", "-a", "1"], ["0", "0", "1"], [0, 0, 1], ["1"], [1, 1],
    ["a", "1"], ["2", "0", "1"], ["0", "1"],
]) | json_values
counits = st.sampled_from([
    ["0", "0", "-1"], ["0", "1"], [0, 1], ["1"], ["a", "1"],
]) | json_values
theta_entries = st.sampled_from([
    [[0, 1, 2, "1"], [0, 2, 1, "-1"]], [[0, 0, 1, "1"]], [[0, 0]],
    [["a", 0, 0, "1"]], [[99, 0, 0, "1"]], [[0, 0, 0, "a +"]],
]) | json_values

algebra_configs = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={"generators": generators, "modulus": moduli,
                  "counit": counits, "theta": theta_entries},
    ).map(json.dumps),
    json_values.map(json.dumps),
    junk,
)
theta_configs = st.one_of(
    st.fixed_dictionaries({}, optional={"entries": theta_entries})
    .map(json.dumps),
    json_values.map(json.dumps),
    junk,
)

labels = st.text(alphabet="abcX1230+-*^ ", max_size=8)
atoms = st.sampled_from([
    "id", "swap", "mul", "comul", "unit", "counit", "bmul", "bcomul",
    "bcomul_skein", "label(X)", "label(a*X - 1)",
]) | labels.map(lambda t: f"label({t})")
diagrams = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(" ; ".join),
        st.tuples(inner, inner).map(" * ".join),
        inner.map(lambda d: f"({d})"),
    ),
    max_leaves=6,
) | junk

suites = st.sampled_from(
    ["all", "jacobi", "jacobi,antisym", "skein", "bialgebra", "nope", ","])


def check_contract(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert err == "" or (err.startswith("error: ")
                         and err.count("\n") == 1), (argv, err)


def write_configs(tmp: Path, algebra: str, theta: str):
    (tmp / "config.json").write_text(algebra)
    (tmp / "theta.json").write_text(theta)


def in_tmp(algebra_spec: str, theta_spec: str, tmp: Path):
    """Spec names of the two files resolve inside `tmp`."""
    files = {"config.json", "theta.json"}
    return [str(tmp / s) if s in files else s
            for s in (algebra_spec, theta_spec)]


@FUZZ
@given(algebra_specs, theta_specs, algebra_configs, theta_configs, suites,
       st.sampled_from(["laws", "report"]))
def test_laws_and_report_keep_the_exit_contract(
        algebra_spec, theta_spec, algebra, theta, suite, command):
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        write_configs(tmp, algebra, theta)
        alg, th = in_tmp(algebra_spec, theta_spec, tmp)
        check_contract([command, f"--algebra={alg}", f"--theta={th}",
                        f"--suite={suite}"])


@FUZZ
@given(st.sampled_from(["mv", "aN:3", "group:2,2", "config.json"]),
       st.sampled_from(["mv", "lie", "group", "zero"]), algebra_configs,
       diagrams, st.sampled_from(["text", "json"]))
def test_eval_keeps_the_exit_contract(algebra_spec, theta_spec, algebra,
                                      diagram, fmt):
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        write_configs(tmp, algebra, "{}")
        alg, th = in_tmp(algebra_spec, theta_spec, tmp)
        check_contract(["eval", f"--algebra={alg}", f"--theta={th}",
                        f"--expr={diagram}", f"--format={fmt}"])
