"""Curve-family parameters, derived constants and divisor valuation tables.

Two families of maximal curves are supported, tagged "X" and "Y".  Family X
is parameterized by a prime p and integers a, b, n, s with q = p^a; family Y
is parameterized directly by a prime power q and integers n, s, and behaves
exactly like family X with p^b = 1.  Affine points are purely symbolic: only
the valuations of the three generating functions z, y and x - alpha at the
distinguished points matter, never coordinates over a finite field.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain
from math import isqrt, log2

from .errors import (
    WORK_LIMIT,
    BadM,
    BNotDividingA,
    GenusNotPositive,
    LengthMismatch,
    NEven,
    NonPrimeP,
    ParameterError,
    SelfCheckError,
    SNotDividing,
    TooMuchWork,
    amount_str,
)

# Largest bit length of q^(n + 2), the largest power validation builds (the
# genus numerator's), and about that of the largest derived constant.
# `params` on Y(2, 262141, 1), just under it, takes 1.0 s end to end and
# prints 552,671 bytes (Python 3.11.7, 2-core VM), most of it converting
# the derived constants to decimal.
POWER_BITS = 2**18


def _prime_power_base(n: int) -> int | None:
    """Return p if n = p^k for a prime p, else None.  p is the smallest
    factor of n up to isqrt(n), else n itself, so n is prime iff it returns n.
    Up to isqrt(n) trial divisions, refused (TooMuchWork) above WORK_LIMIT."""
    if n < 2:
        return None
    root = isqrt(n)
    if root > WORK_LIMIT:
        raise TooMuchWork(f"testing {amount_str(n)} for a prime power needs up to {amount_str(root)} "
                          f"trial divisions, above the limit {WORK_LIMIT}")
    p = next((d for d in range(2, root + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def _refuse_power(base: int, k: int) -> None:
    """Refuse (TooMuchWork) a q^(n + 2) = base^k of more than POWER_BITS
    bits, in O(1), before it is built: it has at least k bits (base >= 2),
    so k is tested first and the float k*log2(base) stays finite."""
    if k > POWER_BITS or k * log2(base) > POWER_BITS:
        raise TooMuchWork(f"q^(n + 2) = {amount_str(base)}^{amount_str(k)} has more bits than the limit "
                          f"{POWER_BITS}")


# The records below are named tuples: immutable, compared and hashed as the
# tuple of their fields and printed as Name(field=value, ...).  The
# interpreter has loaded collections before any command starts, while
# dataclasses (and the inspect it imports) would add to every start-up.
class CurveParams(namedtuple("CurveParams", "family q n s p a b", defaults=(None, None, None))):
    """Validated parameters of one curve instance: family is "X" or "Y",
    and p, a and b are set for family X only."""

    __slots__ = ()


class DerivedConstants(namedtuple("DerivedConstants",
                                  "params q pb M e gens genus frobenius canonical_degree max_m")):
    """All exact integers derived from a CurveParams, with e = (q+1)M.

    gens stores the semigroup generator triple ((q/p^b)M, q^3/p^b, (q+1)M)
    verbatim, without minimization.
    """

    __slots__ = ()


class MonomialExponents(namedtuple("MonomialExponents", "a_z b_y c")):
    """Exponent tuple of z^a_z * y^b_y * prod (x - alpha_l)^c_l."""

    __slots__ = ()


def _genus_numerator(q: int, pb: int, n: int, s: int) -> int:
    return q ** (n + 2) - pb * q**n - s * q**3 + q**2 + (s - 1) * pb


def validate_params(
    family: str,
    *,
    n: int,
    s: int,
    p: int | None = None,
    a: int | None = None,
    b: int | None = None,
    q: int | None = None,
) -> CurveParams:
    """Validate raw integers, naming the first violated condition."""
    if family not in ("X", "Y"):
        raise ParameterError(f"unknown family {family!r}")
    if n % 2 == 0:
        raise NEven(f"n must be odd, got {n}")
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if s < 1:
        raise ParameterError(f"s must be positive, got {s}")

    if family == "X":
        if p is None or a is None or b is None:
            raise ParameterError("family X requires p, a and b")
        if q is not None:
            raise ParameterError("family X takes no q; it is p^a")
        if p < 2 or a < 1 or b < 1:
            raise ParameterError("p, a, b must be positive")
        if _prime_power_base(p) != p:
            raise NonPrimeP(f"p = {p} is not prime")
        if a % b != 0:
            raise BNotDividingA(f"b = {b} does not divide a = {a}")
        _refuse_power(p, a * (n + 2))
        q = p**a
        pb = p**b
    else:
        if q is None:
            raise ParameterError("family Y requires q")
        if p is not None or a is not None or b is not None:
            raise ParameterError("family Y takes no p, a, b")
        if _prime_power_base(q) is None:
            raise NonPrimeP(f"q = {q} is not a prime power")
        _refuse_power(q, n + 2)
        pb = 1

    # n is odd, so q + 1 divides q^n + 1 = (q + 1)(q^(n-1) - q^(n-2) + ... + 1).
    cofactor = (q**n + 1) // (q + 1)
    if cofactor % s != 0:
        raise SNotDividing(f"s = {s} does not divide (q^n + 1)/(q + 1) = {amount_str(cofactor)}")

    gnum = _genus_numerator(q, pb, n, s)
    if gnum % (2 * s * pb) != 0:
        # Unreachable for parameters that passed the checks above: a defect, not bad input.
        raise SelfCheckError(f"genus numerator {amount_str(gnum)} is not divisible by 2*s*p^b = "
                             f"{amount_str(2 * s * pb)}")
    if gnum // (2 * s * pb) <= 0:
        raise GenusNotPositive(f"genus evaluates to {gnum // (2 * s * pb)}")

    if family == "X":
        return CurveParams(family="X", q=q, n=n, s=s, p=p, a=a, b=b)
    return CurveParams(family="Y", q=q, n=n, s=s)


def derive(params: CurveParams) -> DerivedConstants:
    """Compute every derived constant of a validated instance, exactly."""
    q, n, s = params.q, params.n, params.s
    pb = params.p ** params.b if params.family == "X" else 1
    M = (q**n + 1) // (s * (q + 1))
    e = (q + 1) * M
    gens = ((q // pb) * M, q**3 // pb, e)
    genus = _genus_numerator(q, pb, n, s) // (2 * s * pb)
    return DerivedConstants(
        params=params,
        q=q,
        pb=pb,
        M=M,
        e=e,
        gens=gens,
        genus=genus,
        frobenius=2 * genus - 1,
        canonical_degree=2 * genus - 2,
        max_m=q // pb,
    )


def curve(family: str, **raw) -> DerivedConstants:
    """validate_params followed by derive, in one call."""
    return derive(validate_params(family, **raw))


def simplex_points(dim: int, bound: int, width: int | None = None):
    """All vectors in N_0^dim with coordinate sum <= bound, in lexicographic
    order; with width, only those in [0, width)^dim."""
    top = bound if width is None else min(bound, width - 1)
    if dim == 1:
        for x in range(top + 1):
            yield (x,)
        return
    for x in range(top + 1):
        for rest in simplex_points(dim - 1, bound - x, width):
            yield (x,) + rest


def simplex_runs(dim: int, bound: int, width: int | None = None) -> dict:
    """The layout of simplex_points(dim, bound, width): each head (a point
    without its last coordinate), in simplex_points order, to the range of
    positions of its run, the points head + (x,) for x in
    range(bound - sum(head) + 1), and below width when it is given.  The
    point head + (x,) sits at runs[head][x]; the run holds len(runs[head])
    points and ends at runs[head].stop.  With width the region is
    down-closed in the product order: each coordinate of a head lowered by
    one is a head, whose run is at least as long."""
    heads = list(simplex_points(dim - 1, bound, width)) if dim > 1 else [()]
    most = bound + 1 if width is None else width
    sizes = [min(most, bound + 1 - sum(head)) for head in heads]
    return {head: range(stop - size, stop) for head, size, stop in zip(heads, sizes, accumulate(sizes))}


def simplex_caps(runs: dict, bound: int):
    """top + 1 = bound + 1 - sum(t) for each point t of the layout runs
    (simplex_runs of the simplex sum(t) <= bound), in layout order: each run
    counts down from bound + 1 - sum(head), its length on the whole
    simplex."""
    return chain.from_iterable(range(cap, cap - len(run), -1)
                               for cap, run in zip([bound + 1 - sum(head) for head in runs], runs.values()))


def check_m(dc: DerivedConstants, m: int) -> None:
    if not 1 <= m <= dc.max_m:
        raise BadM(f"m = {m} out of range [1, {amount_str(dc.max_m)}]")


def monomial_valuation(
    dc: DerivedConstants, m: int, exps: MonomialExponents
) -> tuple[tuple[int, ...], bool]:
    """Valuation vector of a monomial at (P_inf, P_1, ..., P_m).

    coords[0] is the pole order at P_inf (i.e. minus the valuation) and
    coords[l] = -v_{P_l}.  The regular flag is true iff the monomial has
    poles only inside {P_inf, P_1, ..., P_m}: the z exponent must be
    nonnegative, and unless every beta = 0 point is in the tuple
    (m = max_m), the valuation a_z + b_y*M at the remaining beta = 0
    points must be nonnegative too.
    """
    check_m(dc, m)
    if len(exps.c) != m:
        raise LengthMismatch(f"expected {m} x-exponents, got {len(exps.c)}")
    w = exps.a_z + exps.b_y * dc.M
    coord0 = (
        exps.a_z * (dc.q**3 // dc.pb)
        + exps.b_y * (dc.q // dc.pb) * dc.M
        + dc.e * sum(exps.c)
    )
    coords = (coord0,) + tuple(-(w + cl * dc.e) for cl in exps.c)
    regular = exps.a_z >= 0 and (m == dc.max_m or w >= 0)
    return coords, regular
