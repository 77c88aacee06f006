"""Shared fixtures, the independent coin-problem oracle and a gap table
built from a reference set."""

import sys
from array import array
from math import comb

import pytest

from wsgaps import membership
from wsgaps.curves import curve, simplex_runs
from wsgaps.gaps import GapTable
from wsgaps.sweep import sweep_instances


@pytest.fixture(scope="session")
def y231():
    return curve("Y", q=2, n=3, s=1)


@pytest.fixture(scope="session")
def y233():
    return curve("Y", q=2, n=3, s=3)


@pytest.fixture(scope="session")
def x21131():
    return curve("X", p=2, a=1, b=1, n=3, s=1)


@pytest.fixture(scope="session")
def x22313():
    # b < a, so pb = 2 while q = 4
    return curve("X", p=2, a=2, b=1, n=3, s=13)


@pytest.fixture(scope="session")
def sweep():
    return sweep_instances()


@pytest.fixture
def drop_theta(monkeypatch):
    """Mutation harness: residue tables without the rho = 0 (Theta) member, i.e.
    no witness at a coordinate divisible by e.

    On copies of the cached arrays, the class of rho = 0 loses its member
    (rhos[classes[0]] = -1) and rho = 0 points at the entry of no member
    (classes[0] = e).  Every wsgaps module attribute bound to
    _residue_tables is replaced, so every membership decision sees the
    mutant and the formula side's maximal.residues does not.  The decisions
    are the threshold scans (so the complement table that the oracle's
    closure check and every gap-side check of consistency_report compare
    with, and the nabla table), nabla_witness, in_generalized_H,
    in_classical_H, one_point_gaps_at_P1 and the witness_test reference.
    """
    real = membership._residue_tables

    def mutant(dc, m):
        rhos, tops, classes = (array("q", table) for table in real(dc, m))
        rhos[classes[0]] = -1
        classes[0] = dc.e
        return rhos, tops, classes

    for name, mod in list(sys.modules.items()):
        if name.startswith("wsgaps.") and getattr(mod, "_residue_tables", None) is real:
            monkeypatch.setattr(mod, "_residue_tables", mutant)


def witness_test(dc, m):
    """The per-point reference of the slack test: has_witness(alpha, r) ==
    (membership.nabla_witness(dc, m, alpha, r) is not None), decided
    without building the witness.  The residue of the target coordinate
    forces the maximal element rho of class c; its shifts reach alpha at r
    and stay below it elsewhere iff
    (alpha_0 - c)//e - tops[c] + sum_t (alpha_t - rho)//e >= 0.  The
    tables are membership._residue_tables, looked up at this call, so a
    test that takes the reference under drop_theta reads the mutant."""
    e = dc.e
    rhos, tops, classes = membership._residue_tables(dc, m)

    def has_witness(alpha, r):
        c = classes[alpha[r] % e] if r else alpha[0] % e
        rho = rhos[c]
        return rho >= 0 and (alpha[0] - c) // e - tops[c] + sum([(x - rho) // e for x in alpha[1:]]) >= 0

    return has_witness


def inversions(xs):
    """The listing-side reference of the two-point count: the pairs s < t
    with xs[s] > xs[t] of distinct values xs, by a Fenwick tree over ranks."""
    rank = {x: r for r, x in enumerate(sorted(xs), start=1)}
    tree = [0] * (len(xs) + 1)
    total = 0
    for seen, x in enumerate(xs):
        i = r = rank[x]
        while i:  # earlier elements not above x
            total -= tree[i]
            i &= i - 1
        total += seen
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    return total


def dp_members(gens, limit):
    """Coin-problem DP: the set of representable integers in [0, limit]."""
    reach = [False] * (limit + 1)
    reach[0] = True
    for x in range(1, limit + 1):
        reach[x] = any(x >= g and reach[x - g] for g in gens)
    return {x for x in range(limit + 1) if reach[x]}


def table_of(points, E, m, bound):
    """The GapTable with E classes whose counts hold exactly points, a set
    on the simplex sum(alpha) <= bound that is a union of class prefixes;
    with E = bound + 1 any set is, as each class holds one alpha_0.  Every
    point must lie below its class count: the k points of a class then are
    its first k."""
    runs, counts = simplex_runs(m, bound), bytearray(comb(bound + m, m) * E)
    rows = [(runs[a[1:-1]][a[-1]] * E + a[0] % E, a[0] // E) for a in points]
    for i, _ in rows:
        counts[i] += 1
    assert all(k < counts[i] for i, k in rows), "not a union of class prefixes"
    return GapTable(E, m, bound, bytes(counts))
