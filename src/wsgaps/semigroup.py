"""One-dimensional numerical semigroup engine (Apery construction).

Used for the one-point semigroup at P_inf and for one-point gap sequences.
Membership queries are O(1) after an O(m0 * |gens| * log m0) construction;
a coin-problem dynamic-programming scan is kept in the test suite as the
independent oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .errors import GcdNotOne, SelfCheckError


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    multiplicity: int  # smallest nonzero generator
    apery: tuple[int, ...]  # apery[r] = smallest member congruent to r mod multiplicity
    frobenius: int
    gaps: tuple[int, ...]


def from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup generated by gens.  Generators are not minimized."""
    gens = tuple(int(g) for g in gens)
    if not gens or any(g < 1 for g in gens):
        raise GcdNotOne("generators must be positive integers")
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise GcdNotOne(f"gcd of generators is {g}, not 1")

    m0 = min(gens)
    # Dijkstra over residues mod m0: dist[r] = smallest member in class r.
    dist = [None] * m0
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for gen in gens:
            nd = d + gen
            nr = nd % m0
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    apery = tuple(dist)
    frob = max(apery) - m0
    gaps = tuple(sorted(x for r in range(m0) for x in range(r, apery[r], m0)))
    # Apery genus formula must agree with the direct count.
    lhs, rhs = 2 * len(gaps) * m0, 2 * sum(apery) - m0 * (m0 - 1)
    if lhs != rhs:
        raise SelfCheckError(
            f"Apery genus identity fails for generators {gens}: "
            f"2*|gaps|*m0 = {lhs}, 2*sum(apery) - m0*(m0-1) = {rhs}"
        )
    return NumericalSemigroup(
        generators=gens, multiplicity=m0, apery=apery, frobenius=frob, gaps=gaps
    )


def contains(s: NumericalSemigroup, x: int) -> bool:
    return x >= 0 and x >= s.apery[x % s.multiplicity]
