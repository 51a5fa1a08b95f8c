"""foamalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's commands through `foamalg.cli.main` in one
fresh child process (a single client: no threads, one command at a time).
Passes repeat until the next one would end after S seconds; every output is
checked after the last pass.  With --trace 0 the last line of stdout is the
JSON result with the end-to-end metrics; with --trace 1 untraced and traced
passes alternate, and the result holds the per-layer metrics of the traced
pass with the median wall time.  Spans are written to .perfbench_out/trace/.
End-to-end times are scaled to a reference host speed that each untraced
pass samples as it runs (`refspeed.py`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import span_speeds, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# A median needs a few passes even when S is short.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

def run_pass(commands, traced: bool, pass_id: int, tag: str, timeout: float):
    job_path = OUT / f"job-{tag}.json"
    result_path = OUT / f"result-{tag}.json"
    spans = OUT / "trace" / f"{tag}-pass{pass_id}.tsv" if traced else None
    job_path.write_text(json.dumps({
        "commands": commands, "trace": traced, "pass_id": pass_id,
        "spans_path": str(spans) if spans else None,
    }))
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
        cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_id} exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def run_passes(workload, seconds: float, trace: bool, tag: str):
    """Untraced passes, or alternating untraced and traced ones, until the
    next round would overrun `seconds` (but at least the minimum).  Pass k of
    an untraced run runs `workload.pass_commands(k)`; every pass of a traced
    run runs those of pass 0, so that traced passes repeat the same work.
    Each pass's result gets the indices of its commands."""
    modes = (False, True) if trace else (False,)
    least = MIN_TRACED_PASSES if trace else MIN_PASSES
    passes = {False: [], True: []}
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            left = 170 - (time.perf_counter() - start)
            pass_id = len(passes[False]) + len(passes[True])
            indices = list(workload.pass_commands(0 if trace else pass_id))
            p = run_pass([workload.commands[i] for i in indices], traced,
                         pass_id, tag, max(left, 1))
            p["indices"] = indices
            passes[traced].append(p)
        rounds.append(time.perf_counter() - round_start)
        used = time.perf_counter() - start
        if len(rounds) >= least and used + statistics.median(rounds) > seconds:
            return passes[False], passes[True]


def at_reference_speed(p) -> dict:
    """A pass's times scaled to the reference speed (`refspeed.py`): the
    wall time by the speed over the whole pass; each command's set-up by the
    speed near its `build_context` call and the rest by the speed near what
    follows that call (or near the whole command if it built no context).
    Command times are [command, set-up] seconds."""
    samples = p["speed_samples"]
    setup_spans, rest_spans = [], []
    for *_, (start, b_start, b_end, end) in p["commands"]:
        setup_spans.append((start, end) if b_start is None else (b_start, b_end))
        rest_spans.append((start, end) if b_end is None else (b_end, end))
    commands = []
    for r, k_setup, k_rest in zip(p["commands"], span_speeds(samples, setup_spans),
                                  span_speeds(samples, rest_spans)):
        setup = r[4] * k_setup
        commands.append([setup + (r[3] - r[4]) * k_rest, setup])
    return {"wall_s": p["wall_s"] * speed(samples), "commands": commands}


def end_to_end(passes) -> dict:
    """Times are at the reference speed.  The pass metrics are a run's median
    of one statistic per pass.  The latency of a command is its median over
    the passes that ran it, and op_p50_ms and op_p99_ms are over distinct
    commands: a diagram-eval run has 3000 or more, so 30 or more lie beyond
    p99; on the two commands of the other workloads p99 is nearly the slower
    one."""
    scaled = [at_reference_speed(p) for p in passes]

    def median(per_pass):
        return statistics.median(per_pass(p) for p in scaled)

    def times(p):
        return [c for c, _ in p["commands"]]

    runs = {}
    for p, s in zip(passes, scaled):
        for i, t in zip(p["indices"], times(s)):
            runs.setdefault(i, []).append(t)
    latency = [statistics.median(t) for t in runs.values()]

    return {
        "wall_s": median(lambda p: p["wall_s"]),
        "setup_s": median(lambda p: sum(s for _, s in p["commands"])),
        "check_s": median(lambda p: sum(c - s for c, s in p["commands"])),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_per_s": median(lambda p: len(times(p)) / sum(times(p))),
        "op_p50_ms": 1000 * statistics.median(latency),
        "op_p99_ms": 1000 * statistics.quantiles(latency, n=100, method="inclusive")[98],
    }


def measured(passes) -> dict:
    """Medians of the unscaled times and of the host's speed, to print."""
    return {
        "raw.wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw.setup_s": statistics.median(sum(r[4] for r in p["commands"])
                                         for p in passes),
        "raw.check_s": statistics.median(sum(r[3] - r[4] for r in p["commands"])
                                         for p in passes),
        "host_speed": statistics.median(speed(p["speed_samples"]) for p in passes),
    }


def per_layer(untraced, traced) -> dict:
    from tracer import layer_metrics

    chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    metrics = layer_metrics(chosen["trace"])
    metrics["cli.output_bytes"] = sum(len(r[1].encode()) for r in chosen["commands"])
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    counts = [{k: v for k, v in layer_metrics(p["trace"]).items()
               if not k.endswith("_s")} for p in traced]
    if any(c != counts[0] for c in counts):
        print("warning: layer counts differ between traced passes", file=sys.stderr)
    missing = chosen["trace"]["missing"]
    if missing:
        print(f"warning: not traced (absent): {', '.join(missing)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "foamalg" / "__init__.py"
    if not src.is_file():
        print(f"error: the program's sources are not at {src.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # Every pass runs on one CPU, the last this process may use, so that a
    # run does not depend on where the scheduler puts each child: on a
    # shared VM one virtual CPU can be markedly slower than another.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}"
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    for old in (OUT / "trace").glob(f"{args.workload}-*"):
        old.unlink()
    workload = WORKLOADS[args.workload](args.seed, OUT / "inputs")
    untraced, traced = run_passes(workload, args.seconds, bool(args.trace), tag)

    attempted = failed = 0
    for p in untraced + traced:
        for i, (code, out, err, *_) in zip(p["indices"], p["commands"]):
            attempted += 1
            failed += not workload.check(i, code, out, err)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(untraced[0]['commands'])} commands")
    print(f"  {'failed_frac':<32} {failed / attempted:>14.6f} share  "
          f"({failed} of {attempted} commands)")
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]:>14.6f} {unit}")
    if not args.trace:
        for name, value in measured(untraced).items():
            print(f"  {name:<32} {value:>14.6f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
