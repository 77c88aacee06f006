"""Parameter sweep used by the verification suite and the scripts.

Enumerates every valid instance of both curve families inside the desk-scale
window: X with p in {2,3}, a in {1,2}, b | a, n in {3,5}; Y with q in
{2,3,4}, n in {3,5}; s any divisor of (q^n+1)/(q+1) keeping M <= 500 and
the genus positive.
"""

from __future__ import annotations

from .curves import DerivedConstants, ParameterError, curve

MAX_M = 500


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def sweep_instances() -> list[DerivedConstants]:
    families = [
        ("X", p**a, {"p": p, "a": a, "b": b})
        for p in (2, 3)
        for a in (1, 2)
        for b in (1, 2)
        if a % b == 0
    ] + [("Y", q, {"q": q}) for q in (2, 3, 4)]
    out = []
    for family, q, flags in families:
        for n in (3, 5):
            for s in divisors((q**n + 1) // (q + 1)):
                if (q**n + 1) // (s * (q + 1)) > MAX_M:
                    continue
                try:
                    out.append(curve(family, n=n, s=s, **flags))
                except ParameterError:
                    pass
    return out
