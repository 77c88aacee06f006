"""Exception hierarchy shared by all wsgaps modules, the work limit that
TooMuchWork enforces, and exact_str and amount_str for output."""

# Largest work estimate a command runs, and the most trial divisions
# validation makes; above it the command exits 2 at once (TooMuchWork)
# instead of running for hours or exhausting memory.
WORK_LIMIT = 10**8
# Past this many bits a message names an integer by its size, not its
# digits: a 2*10^6-bit amount would write 602,060 digits, 7 s of decimal
# conversion.  2^14 bits is 4,932 digits, past str()'s 4,300, so a message
# with an integer just past that limit still prints it in full.
SHOWN_BITS = 2**14


def exact_str(n: int) -> str:
    """str(n), also past str()'s digit limit; decimal (0.4 MB) loads only then."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


def amount_str(n: int) -> str:
    """An integer in a message: exact_str(n), or past SHOWN_BITS bits its
    size, read off its bit length without converting it."""
    bits = abs(n).bit_length()
    return exact_str(n) if bits <= SHOWN_BITS else f"<a {bits}-bit integer>"


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
