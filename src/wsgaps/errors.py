"""Exception hierarchy shared by all wsgaps modules."""


class WsgapsError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(WsgapsError):
    """Invalid curve-family parameters."""


class NonPrimeP(ParameterError):
    """p is not prime (family X) or q is not a prime power (family Y)."""


class BNotDividingA(ParameterError):
    pass


class SNotDividing(ParameterError):
    pass


class NEven(ParameterError):
    pass


class GenusNotPositive(ParameterError):
    pass


class Overflow(WsgapsError):
    """Magnitude exceeded the exact-arithmetic contract.

    All arithmetic in this package is arbitrary-precision, so silent
    wraparound cannot occur; this class exists so callers can catch a
    declared overflow condition uniformly.
    """


class GcdNotOne(WsgapsError):
    pass


class BadM(WsgapsError):
    """Ambient point count m is out of range for the curve instance."""


class BadIndexPair(WsgapsError):
    pass


class BadBox(WsgapsError):
    pass


class EmptyInput(WsgapsError):
    pass


class LengthMismatch(WsgapsError):
    pass


class NotSorted(WsgapsError):
    pass


class SelfCheckError(Exception):
    """An internal consistency check failed: a defect in this package, never
    bad input.  Deliberately not a WsgapsError, so the CLI cannot report it
    as exit 2; unlike an assert it also runs under python -O."""
