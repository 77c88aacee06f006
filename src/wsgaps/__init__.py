"""Exact-arithmetic Weierstrass semigroups, gaps and pure gaps at m+1
distinguished points on two families of maximal curves."""

from .curves import (
    CurveParams,
    DerivedConstants,
    MonomialExponents,
    curve,
    derive,
    monomial_valuation,
    validate_params,
)

__all__ = [
    "CurveParams",
    "DerivedConstants",
    "MonomialExponents",
    "NumericalSemigroup",
    "contains",
    "curve",
    "derive",
    "from_generators",
    "monomial_valuation",
    "validate_params",
]


def __getattr__(name):
    """The semigroup names load with their module on first use: no command
    runs them, so no command pays for them at start-up."""
    if name in ("NumericalSemigroup", "contains", "from_generators"):
        from . import semigroup

        return getattr(semigroup, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
