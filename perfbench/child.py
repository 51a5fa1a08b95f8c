"""One benchmark pass in a fresh process.

Runs a list of `foamalg` commands one at a time through the public entry
point `foamalg.cli.main(argv)`, in this process, and writes what each
printed and how long it took.  The pass's wall time starts at the first
statement of this file, so it includes importing the package.  An untraced
pass samples the host's speed all along (`refspeed.py`); the time spent in
the samples is taken out of every time it reports.

    python3 perfbench/child.py JOB.json RESULT.json

JOB.json holds {"commands": [[arg, ...], ...], "trace": bool, "pass_id": n,
"spans_path": path or null}.
"""

from time import perf_counter

T0 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from refspeed import SpeedSampler  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def run_commands(cli, commands, sampler):
    """[exit code, stdout, stderr, command seconds, set-up seconds, marks]
    per command; set-up is the time spent in `cli.build_context`, and marks
    are the perf_counter readings [start, set-up start, set-up end, end]
    (the set-up ones null if the command built no context).  Seconds leave
    out the sampler's slices."""
    setup = [0.0]
    marks = [None, None]
    build = cli.build_context

    def timed_build(args):
        start, stolen = perf_counter(), sampler.stolen_s
        if marks[0] is None:
            marks[0] = start
        try:
            return build(args)
        finally:
            marks[1] = perf_counter()
            setup[0] += marks[1] - start - (sampler.stolen_s - stolen)

    cli.build_context = timed_build
    records = []
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            before, stolen = setup[0], sampler.stolen_s
            marks[:] = [None, None]
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash is a failed command, not a result
                    code = -1
                    traceback.print_exc()
            end = perf_counter()
            records.append([code, out.getvalue(), err.getvalue(),
                            end - start - (sampler.stolen_s - stolen),
                            setup[0] - before, [start, *marks, end]])
    finally:
        cli.build_context = build
    return records


def peak_rss_mb() -> float:
    """The high-water resident set of this process's own memory.  ru_maxrss
    would also count the parent's resident set at the fork, and that grows
    with the results of earlier passes the parent holds."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    if not (SRC / "foamalg" / "__init__.py").is_file():
        print(f"no foamalg sources under {SRC}", file=sys.stderr)
        return 2
    sampler = SpeedSampler()
    if not job["trace"]:
        sampler.start()
    sys.path.insert(0, str(SRC))
    from foamalg import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["pass_id"])
        tracer.tracer_span("trace.install", tracer.install)
    records = run_commands(cli, job["commands"], sampler)
    sampler.stop()
    wall = perf_counter() - T0 - sampler.stolen_s
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb(), "commands": records,
              "speed_samples": sampler.samples, "trace": None}
    if tracer is not None:
        result["trace"] = tracer.summary(wall)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
