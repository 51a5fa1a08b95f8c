"""The three workloads: the commands each pass runs, made from the seed, and
the check of each command's output.

laws-const    `foamalg report` on aN:15/lie and group:2,2,2,2/group, every
              suite.  Constant coefficients, large dense matrices.  The seed
              does not change the inputs.
univ-setup    `foamalg laws` on generic monic moduli of rank 6 and 7 over
              Z[a1..aN].  Construction is nearly all of the work.
diagram-eval  1000 small `foamalg eval` requests on `mv`, one diagram each;
              each pass of a run gets another 1000 from the seed's stream.

`commands` lists every command of the workload and `pass_commands(k)` the
indices into it that pass k runs; `check(i, ...)` takes such an index.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from diagrams import DiagramOracle, diagram_stream

EXPECTED_LAWS = Path(__file__).resolve().parent / "expected_laws_const.json"


def report_tuples(text: str):
    """(law, variant, passed, cases) of each result of a report document."""
    doc = json.loads(text)
    return [[r["law"], r.get("variant"), r["passed"], r["cases"]]
            for r in doc["results"]]


class LawsConst:
    name = "laws-const"

    def __init__(self, seed: int, workdir: Path):
        self.expected = json.loads(EXPECTED_LAWS.read_text())
        self.commands = [want["argv"] for want in self.expected]

    def pass_commands(self, k: int) -> range:
        return range(len(self.commands))

    def check(self, i, code, out, err) -> bool:
        """Exit code, every (law, variant, passed, cases) and the digest of
        the report bytes as recorded at the seed commit.  A changed verdict
        changes how far a check runs, so it must never read as a speed-up."""
        want = self.expected[i]
        if code != want["exit"] or err:
            return False
        if hashlib.sha256(out.encode()).hexdigest() != want["sha256"]:
            return False
        try:
            return report_tuples(out) == want["results"]
        except (KeyError, TypeError, ValueError):
            return False


class UnivSetup:
    name = "univ-setup"
    ranks = (6, 7)
    suite = "delta_one,theta_trace,two_sided,antisym,jacobi"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"univ-setup:{seed}")
        self.commands = []
        workdir.mkdir(parents=True, exist_ok=True)
        for rank in self.ranks:
            path = workdir / f"univ{rank}-seed{seed}.json"
            path.write_text(json.dumps(self.config(rank, rng), indent=1))
            self.commands.append([
                "laws", "--algebra", str(path), "--theta", "zero",
                "--suite", self.suite, "--format", "json",
            ])

    def pass_commands(self, k: int) -> range:
        return range(len(self.commands))

    @staticmethod
    def config(rank: int, rng: random.Random) -> dict:
        """X^N - sum_k (a_k + s_k) X^(N-k) over Z[a1..aN] with the counit on
        X^(N-1).  Each shift s_k is drawn from [-3, 3] without 0: a zero
        shift drops terms from every product, and a seed with several of
        them would make a cheaper workload rather than another sample of
        the same one."""
        gens = [f"a{k}" for k in range(1, rank + 1)]
        modulus = ["0"] * rank + ["1"]
        for k in range(1, rank + 1):
            s = rng.choice((-3, -2, -1, 1, 2, 3))
            modulus[rank - k] = f"-a{k} - {s}" if s > 0 else f"-a{k} + {-s}"
        counit = ["0"] * (rank - 1) + ["1"]
        return {"generators": gens, "modulus": modulus, "counit": counit}

    def check(self, i, code, out, err) -> bool:
        """Every law passes with the exhaustive case count for its rank."""
        n = self.ranks[i]
        want = [["delta_one_resolution", n], ["theta_trace", n ** 3],
                ["cocomul_two_sided", n], ["antisymmetry", n * n],
                ["jacobi", n ** 3]]
        if code != 0 or err:
            return False
        try:
            got = json.loads(out)
            return all(r["passed"] for r in got) and \
                [[r["law"], r["cases"]] for r in got] == want
        except (KeyError, TypeError, ValueError):
            return False


class DiagramEval:
    name = "diagram-eval"
    count = 1000   # diagrams per pass
    # Passes cycle through this many distinct sets of diagrams.  p99 over one
    # set of 1000 is set by its ten slowest diagrams, and moved by 10% from
    # seed to seed; over the three to six sets of a run it is steady.
    sets = 8

    def __init__(self, seed: int, workdir: Path):
        self.stream = diagram_stream(seed, self.count * self.sets)
        self.commands = [
            ["eval", "--algebra", "mv", "--theta", "mv", "--format", "json",
             "--expr", text]
            for _, _, text in self.stream
        ]
        self._oracle = None

    def pass_commands(self, k: int) -> range:
        start = k % self.sets * self.count
        return range(start, start + self.count)

    def check(self, i, code, out, err) -> bool:
        if self._oracle is None:
            self._oracle = DiagramOracle()
        kind, tree, _ = self.stream[i]
        return self._oracle.check(kind, tree, code, out, err)


WORKLOADS = {w.name: w for w in (LawsConst, UnivSetup, DiagramEval)}
