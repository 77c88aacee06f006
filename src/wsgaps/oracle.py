"""Brute-force oracle: rebuild the semigroup from raw valuation vectors.

This module never consults the closed-form families in maximal.py.  It
enumerates regular monomials directly from the divisor tables, closes the
resulting vectors under componentwise maxima, and compares the outcome with
the formula-driven modules.  That independence is the whole point: every
formula is cross-examined against nothing but the curve equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .curves import DerivedConstants, MonomialExponents, check_m, monomial_valuation
from .errors import BadBox
from .gaps import (
    count_gaps_two_points,
    gap_count_upper_bound,
    gaps_via_complement,
    gaps_via_lambda,
    pure_gaps_via_lambda,
    pure_gaps_via_nabla,
    simplex_points,
)
from .maximal import (
    count_Lambda,
    enumerate_classical_Gamma,
    enumerate_classical_Lambda,
    gamma_hat_in_C,
    lambda_hat_in_C,
)
from .membership import membership_test


@dataclass(frozen=True)
class Box:
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or any(
            lo > hi for lo, hi in zip(self.lower, self.upper)
        ):
            raise BadBox(f"lower {self.lower} not <= upper {self.upper}")

    def __contains__(self, v) -> bool:
        return all(lo <= x <= hi for lo, x, hi in zip(self.lower, v, self.upper))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def default_box(dc: DerivedConstants, m: int, bound: int | None = None) -> Box:
    """A sampling box wide enough to contain every monomial witness needed
    for vectors of the nonnegative simplex and of the closed-form families.

    Witnesses agree with the target at one coordinate and sit at most one
    lattice period below it elsewhere; the coordinate-0 slack additionally
    absorbs the forced shift sums, giving the (m+2)-fold padding below.
    """
    bound = 2 * dc.genus if bound is None else bound
    hi0 = max(bound, dc.q**2 * dc.e // dc.pb)
    hit = max(bound, dc.e - 1)
    lo = -((m + 2) * (bound + dc.e) + (dc.q**3 + dc.q**2 * dc.e) // dc.pb)
    return Box(lower=(lo,) * (m + 1), upper=(hi0,) + (hit,) * m)


def monomial_vectors_in_box(
    dc: DerivedConstants, m: int, box: Box, _pad: int = 0
) -> set[tuple[int, ...]]:
    """Valuation vectors of all regular monomials that land in the box.

    Exponent ranges are derived from the box via the identity

        coords[0] + sum(coords[1:]) = a_z*(q^3 - q)/p^b + (max_m - m)*w,

    where w = a_z + b_y*M is the pole order at the beta = 0 points outside
    the tuple.  Both right-hand terms are nonnegative for regular monomials
    (w >= 0 is vacuous at m = max_m, where b_y is only defined mod q+1 and a
    window of q+1 values saturates the vector set).  _pad widens every range
    and exists so tests can assert the derivation saturates the box.
    """
    check_m(dc, m)
    if len(box.lower) != m + 1:
        raise BadBox(f"box dimension {len(box.lower)} != {m + 1}")
    q, pb, M, e = dc.q, dc.pb, dc.M, dc.e
    s_hi = sum(box.upper)
    out = set()
    if s_hi < 0:
        return out
    az_coeff = (q**3 - q) // pb
    for a_z in range(0, s_hi // az_coeff + 1 + _pad):
        if m < dc.max_m:
            rem = s_hi - a_z * az_coeff
            if rem < 0 and _pad == 0:
                break
            w_hi = max(rem, 0) // (dc.max_m - m) + _pad * e
            b_ys = range(_ceil_div(-a_z, M), (w_hi - a_z) // M + 1)
        else:
            start = _ceil_div(-a_z, M)
            b_ys = range(start - _pad, start + q + 1 + _pad)
        for b_y in b_ys:
            w = a_z + b_y * M
            c_ranges = []
            for ell in range(1, m + 1):
                c_lo = _ceil_div(-box.upper[ell] - w, e) - _pad
                c_hi = (-box.lower[ell] - w) // e + _pad
                c_ranges.append(range(c_lo, c_hi + 1))
            for c in product(*c_ranges):
                vec, regular = monomial_valuation(dc, m, MonomialExponents(a_z, b_y, c))
                if regular and vec in box:
                    out.add(vec)
    return out


def lub_closure(vectors, box: Box) -> set[tuple[int, ...]]:
    """Least fixed point of pairwise componentwise maxima, inside the box.

    Truncating to the box is sound because lub is monotone: anything a
    discarded out-of-box vector could generate inside the box is already
    generated by in-box vectors.
    """
    current = set(map(tuple, vectors))
    for v in current:
        if v not in box:
            raise BadBox(f"seed {v} outside box")
    worklist = list(current)
    while worklist:
        v = worklist.pop()
        for u in list(current):
            w = tuple(map(max, u, v))
            if w in box and w not in current:
                current.add(w)
                worklist.append(w)
    return current


def in_lub_closure(gens_index: dict, alpha: tuple[int, ...]) -> bool:
    """Membership in the lub closure, decided pointwise: alpha is a lub of
    generators iff every coordinate r is attained by a generator below alpha."""
    n = len(alpha)
    for r in range(n):
        hits = gens_index.get((r, alpha[r]), ())
        if not any(all(g[t] <= alpha[t] for t in range(n)) for g in hits):
            return False
    return True


def index_generators(gens) -> dict:
    """Index a generator set by (coordinate, value) for in_lub_closure."""
    idx: dict = {}
    for g in gens:
        for r, x in enumerate(g):
            idx.setdefault((r, x), []).append(g)
    return idx


def consistency_report(
    dc: DerivedConstants,
    m: int,
    bound: int | None = None,
    drop_theta: bool = False,
    jobs: int = 1,
) -> dict[str, bool]:
    """Run the full cross-validation suite; all verdicts True means pass.

    drop_theta removes the ThetaFamily witnesses from the membership side
    (mutation harness only); check (a) must then fail.
    """
    check_m(dc, m)
    bound = 2 * dc.genus if bound is None else bound
    use_theta = not drop_theta
    box = default_box(dc, m, bound)
    mono = monomial_vectors_in_box(dc, m, box)
    idx = index_generators(mono)

    member = membership_test(dc, m, use_theta=use_theta)
    checks = {
        "closure_matches_membership": all(
            in_lub_closure(idx, a) == member(a) for a in simplex_points(m + 1, bound)
        )
    }

    families = gamma_hat_in_C(dc, m) | lambda_hat_in_C(dc, m)
    families |= enumerate_classical_Gamma(dc, m) | enumerate_classical_Lambda(dc, m)
    checks["families_in_closure"] = all(
        in_lub_closure(idx, v) for v in families if v in box
    )

    gap_bound = min(bound, 2 * dc.genus - 1)
    g_lambda = gaps_via_lambda(dc, m, gap_bound)
    g_compl = gaps_via_complement(dc, m, gap_bound, jobs=jobs, use_theta=use_theta)
    checks["gap_routes_agree"] = g_lambda == g_compl
    checks["pure_gap_routes_agree"] = pure_gaps_via_lambda(dc, m, gap_bound) == (
        pure_gaps_via_nabla(dc, m, gap_bound, use_theta=use_theta)
    )
    checks["lambda_count_formula"] = count_Lambda(dc, m) == len(
        enumerate_classical_Lambda(dc, m)
    )
    checks["gap_count_bound"] = len(g_compl) <= gap_count_upper_bound(dc, m)
    if m == 1:
        if gap_bound != 2 * dc.genus - 1:
            g_compl = gaps_via_complement(dc, m, use_theta=use_theta)
        checks["two_point_count_formula"] = count_gaps_two_points(dc) == len(g_compl)
    return checks
