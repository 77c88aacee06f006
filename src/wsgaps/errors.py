"""Exception hierarchy shared by all wsgaps modules, and exact_str for output."""


def exact_str(n: int) -> str:
    """str(n), also past str()'s digit limit; decimal (0.4 MB) loads only then."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


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


class TooMuchWork(WsgapsError):
    """A command's closed-form work estimate is above its fixed limit."""


class SelfCheckError(Exception):
    """An internal consistency check failed: a defect in this package, never
    bad input.  Deliberately not a WsgapsError, so the CLI cannot report it
    as exit 2; unlike an assert it also runs under python -O."""
