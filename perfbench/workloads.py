"""The benchmark's workloads: fixed `wsgaps` command lists and their checks.

Each workload is a list of CLI commands run in one fresh interpreter. The
instance set is fixed, so the work per run does not depend on the seed; the
seed only permutes the order of the timed commands.

Every command's stdout must match the SHA-256 pinned in digests.json, and
each workload adds one semantic check that does not rely on those bytes.
The check commands run after the timed region and are not timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

Y431 = ("--family", "Y", "--q", "4", "--n", "3", "--s", "1")  # g = 456
X22255 = ("--family", "X", "--p", "2", "--a", "2", "--b", "2", "--n", "5", "--s", "5")  # g = 300
Y251 = ("--family", "Y", "--q", "2", "--n", "5", "--s", "1")  # g = 46
Y451 = ("--family", "Y", "--q", "4", "--n", "5", "--s", "1")  # g = 7656
Y455 = ("--family", "Y", "--q", "4", "--n", "5", "--s", "5")  # g = 1506


def cmd(name: str, params: tuple[str, ...], *flags: str) -> tuple[str, ...]:
    return (name, *params, *flags)


def key(argv) -> str:
    """The command line that names a command in digests and failure reports."""
    return " ".join(argv)


# Check functions take {command line: output summary} and return a list of
# (command line, reason) failures.  A summary holds the exit code, the digest,
# the byte count, n_vectors and the scalar fields of the JSON payload.

GAPS_Y431 = cmd("gaps", Y431, "--m", "1", "--jobs", "1")
COUNTS_Y431 = cmd("counts", Y431, "--m", "1")


def _check_gaps_m1(out: dict) -> list[tuple[str, str]]:
    gaps, counts = out[key(GAPS_Y431)], out[key(COUNTS_Y431)]
    expected = counts["fields"].get("two_point_gap_count")
    if gaps["n_vectors"] != expected:
        return [(key(GAPS_Y431), f"{gaps['n_vectors']} gaps, counts says two_point_gap_count={expected}")]
    return []


VERIFY_Y251 = cmd("verify", Y251, "--m", "2", "--jobs", "1")


def _check_verify_m2(out: dict) -> list[tuple[str, str]]:
    verdict = out[key(VERIFY_Y251)]["fields"].get("pass")
    return [] if verdict is True else [(key(VERIFY_Y251), f'"pass" is {verdict!r}, expected true')]


FORMULA_PAIRS = [(cmd("counts", Y451, "--m", "1"), cmd("lambda", Y451, "--m", "1", "--classical"))] + [
    (cmd("counts", Y455, "--m", str(m)), cmd("lambda", Y455, "--m", str(m), "--classical")) for m in range(1, 5)
]


def _check_formulas(out: dict) -> list[tuple[str, str]]:
    failures = []
    for counts, lam in FORMULA_PAIRS:
        expected = out[key(counts)]["fields"].get("lambda_count")
        got = out[key(lam)]["n_vectors"]
        if got != expected:
            failures.append((key(counts), f"lambda_count={expected}, lambda --classical emits {got} vectors"))
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]  # timed, in a seed-permuted order
    check_commands: tuple[tuple[str, ...], ...]  # untimed inputs to `check`
    check: Callable[[dict], list[tuple[str, str]]]

    def ordered(self, seed: int) -> list[tuple[str, ...]]:
        commands = list(self.commands)
        random.Random(seed).shuffle(commands)
        return commands


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="gaps-m1",
            why="complement-route membership scan (416k in_classical_H calls) and 5.4 MB of emitted vectors:"
            " loads membership and cli, not oracle; covers family X with p^b > 1",
            commands=(GAPS_Y431, cmd("gaps", X22255, "--m", "1", "--pure", "--jobs", "1")),
            check_commands=(COUNTS_Y431,),
            check=_check_gaps_m1,
        ),
        Workload(
            name="verify-m2",
            why="the oracle path: membership set, complement route, lub-closure check over 138k candidates"
            " and witness-building pure gaps; 0.5 KB of output, so cli is idle",
            commands=(VERIFY_Y251,),
            check_commands=(),
            check=_check_verify_m2,
        ),
        Workload(
            name="formulas",
            why="formula side only (counts, maximal-family enumeration, quadratic two-point count, 10 MB of"
            " vectors) with zero membership or oracle calls: the bypass workload for those layers",
            commands=(cmd("counts", Y451, "--m", "1"),)
            + tuple(
                cmd(sub, Y455, "--m", str(m), *flags)
                for m in range(1, 5)
                for sub, flags in (("counts", ()), ("lambda", ("--classical",)), ("gamma", ("--classical",)))
            ),
            check_commands=(cmd("lambda", Y451, "--m", "1", "--classical"),),
            check=_check_formulas,
        ),
    ]
}
