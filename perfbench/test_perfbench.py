"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from diagrams import arity, diagram_stream, render  # noqa: E402
from refspeed import REFERENCE_S, span_speeds, speed  # noqa: E402
from run import OUT, at_reference_speed, run_pass  # noqa: E402
from tracer import LAYERS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, DiagramEval, LawsConst, UnivSetup  # noqa: E402

from foamalg import cli  # noqa: E402
from foamalg.foamlang import parse, typecheck  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def traced_commands(name, seed):
    """A traced pass's commands: all of laws-const, rank 6 of univ-setup and
    the first 60 diagrams of diagram-eval, to keep the test short."""
    commands = WORKLOADS[name](seed, OUT / "inputs").commands
    return {"laws-const": commands, "univ-setup": commands[:1],
            "diagram-eval": commands[:60]}[name]


def counts(summary):
    return {k: v for k, v in layer_metrics(summary).items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_times_add_up(name):
    OUT.joinpath("trace").mkdir(parents=True, exist_ok=True)
    commands = traced_commands(name, seed=11)
    first, second = (run_pass(commands, True, i, f"test-{name}", 170)["trace"]
                     for i in range(2))
    assert counts(first) == counts(second)
    assert not first["missing"]
    layers = first["layer_self_s"]
    assert set(layers) <= set(LAYERS) | {"trace"}
    total = sum(layers.values()) + first["unattributed_s"]
    assert total == pytest.approx(first["wall_s"], rel=1e-9)


def test_diagram_stream_is_seeded_and_well_typed():
    stream = diagram_stream(5, 300)
    assert [text for *_, text in stream] == [text for *_, text in diagram_stream(5, 300)]
    assert [text for *_, text in stream] != [text for *_, text in diagram_stream(6, 300)]
    kinds = {kind for kind, *_ in stream}
    assert kinds == {"open", "theta", "handle", "counit"}
    for kind, tree, text in stream:
        assert "+ -" not in text
        assert render(tree) == text
        assert typecheck(parse(text)) == arity(tree)
        assert (arity(tree) == (0, 0)) == (kind != "open")
        assert arity(tree)[1] <= 4


def test_diagram_gate_accepts_program_output_and_rejects_changes():
    workload = DiagramEval(2, OUT / "inputs")
    for i in range(40):
        code, out, err = run_cli(workload.commands[i])
        assert workload.check(i, code, out, err), workload.stream[i][2]
        doc = json.loads(out)
        if "value" in doc:
            doc["value"] = doc["value"] + " + 1"
        else:
            doc["matrix"][0][0] = doc["matrix"][0][0] + " + a"
        assert not workload.check(i, code, json.dumps(doc, indent=2), err)
        assert not workload.check(i, 2, out, err)
        assert not workload.check(i, code, out, "error: boom\n")


def test_laws_gate_rejects_a_changed_verdict():
    workload = LawsConst(1, OUT / "inputs")
    code, out, err = run_cli(workload.commands[1])
    assert workload.check(1, code, out, err)
    doc = json.loads(out)
    doc["results"][0]["passed"] = True
    del doc["results"][0]["counterexample"]
    assert not workload.check(1, code, json.dumps(doc, indent=2), err)
    assert not workload.check(1, 0, out, err)


def test_univ_gate_needs_every_case():
    workload = UnivSetup(3, OUT / "inputs")
    config = json.loads(Path(workload.commands[0][2]).read_text())
    assert len(config["generators"]) == 6
    assert all(" - 0" not in c and " + 0" not in c for c in config["modulus"])
    code, out, err = run_cli(workload.commands[0])
    assert workload.check(0, code, out, err)
    reports = json.loads(out)
    reports[-1]["cases"] -= 1
    assert not workload.check(0, code, json.dumps(reports), err)


def test_span_speeds_use_the_slices_near_each_span():
    # host at half the reference speed for the first 2 s, then at full speed
    samples = [[t / 10, REFERENCE_S * (2 if t < 20 else 1)] for t in range(40)]
    assert speed(samples) == pytest.approx(0.75)
    near = span_speeds(samples, [(0.0, 0.5), (3.0, 3.2), (1.9, 2.1), (9.0, 9.5)])
    assert near[0] == pytest.approx(0.5)
    assert near[1] == pytest.approx(1.0)
    assert 0.5 < near[2] < 1.0
    assert near[3] == pytest.approx(1.0)  # past the last slice: the nearest one


def test_untraced_pass_samples_speed_and_leaves_the_slices_out():
    commands = DiagramEval(4, OUT / "inputs").commands[:30]
    p = run_pass(commands, False, 0, "test-speed", 170)
    assert len(p["speed_samples"]) >= 5
    assert [len(r) for r in p["commands"]] == [6] * len(commands)
    for *_, (start, b_start, b_end, end) in p["commands"]:
        assert start < b_start < b_end < end
    assert sum(r[3] for r in p["commands"]) < p["wall_s"]
    scaled = at_reference_speed(p)
    assert scaled["wall_s"] == pytest.approx(p["wall_s"] * speed(p["speed_samples"]))
    assert all(c >= s > 0 for c, s in scaled["commands"])
    traced = run_pass(commands, True, 1, "test-speed", 170)
    assert traced["speed_samples"] == []


def test_diagram_passes_cycle_through_distinct_sets():
    workload = DiagramEval(3, OUT / "inputs")
    sets = [set(workload.pass_commands(k)) for k in range(workload.sets)]
    assert all(len(s) == workload.count for s in sets)
    assert len(set().union(*sets)) == len(workload.commands) == workload.count * workload.sets
    assert workload.pass_commands(workload.sets) == workload.pass_commands(0)
