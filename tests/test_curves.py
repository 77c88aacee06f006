"""Parameter validation, derived constants and monomial valuations."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsgaps import curves
from wsgaps.curves import (
    POWER_BITS,
    MonomialExponents,
    _prime_power_base,
    check_m,
    curve,
    derive,
    monomial_valuation,
    validate_params,
)
from wsgaps.errors import (
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
)
from wsgaps.maximal import MaximalElement, pair_from_residue, realize


def test_validate_y_231_ok():
    p = validate_params("Y", q=2, n=3, s=1)
    dc = derive(p)
    assert (dc.M, dc.genus) == (3, 10)


def test_validate_s_not_dividing():
    with pytest.raises(SNotDividing):
        validate_params("Y", q=2, n=3, s=2)


def test_odd_n_gives_an_integral_cofactor_and_genus():
    """n is odd, so q + 1 divides q^n + 1, and validation has no check for
    it; an inexact genus numerator would be a defect of this package, not
    bad input, and raises SelfCheckError (exit 1 at the command line, not
    the exit 2 of ParameterError)."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for n in (3, 5, 7, 9, 11):
            assert (q**n + 1) % (q + 1) == 0
    assert not issubclass(SelfCheckError, ParameterError)
    real = curves._genus_numerator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "_genus_numerator", lambda q, pb, n, s: real(q, pb, n, s) + 1)
        with pytest.raises(SelfCheckError, match="genus numerator 21 is not divisible by 2\\*s\\*p\\^b = 2"):
            validate_params("Y", q=2, n=3, s=1)


def test_validate_genus_not_positive():
    with pytest.raises(GenusNotPositive):
        validate_params("X", p=2, a=1, b=1, n=3, s=3)


def test_prime_power_base_is_the_sieve_reference():
    """Below 20,000, _prime_power_base(n) is p exactly when n is a power of
    the prime p, the primes taken from a sieve of Eratosthenes."""
    limit = 20_000
    composite = bytearray(limit)
    base = [None] * limit
    for p in range(2, limit):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, limit, p))
            power = p
            while power < limit:
                base[power] = p
                power *= p
    assert [_prime_power_base(n) for n in range(limit)] == base
    for p in (4, 9, 12, 19_999):
        with pytest.raises(NonPrimeP, match=f"^p = {p} is not prime$"):
            validate_params("X", p=p, a=1, b=1, n=3, s=1)


@pytest.mark.parametrize("family, flags", [
    ("Y", {"q": 10**18 + 3}),
    ("X", {"p": 10**18 + 3, "a": 1, "b": 1}),
    ("Y", {"q": (WORK_LIMIT + 1) ** 2}),  # isqrt one past the limit
], ids=["Y-q", "X-p", "Y-first-past"])
def test_validation_refuses_trial_division_past_the_work_limit(family, flags):
    """A prime test of more than WORK_LIMIT trial divisions (isqrt of the
    number) is refused before the first one; 10^18 + 3 took over 40 s."""
    t0 = time.perf_counter()
    with pytest.raises(TooMuchWork, match=f"trial divisions, above the limit {WORK_LIMIT}$"):
        validate_params(family, n=3, s=1, **flags)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("family, flags, n", [
    ("Y", {"q": 2}, 2_000_001),
    ("Y", {"q": 2}, POWER_BITS - 1),  # q^(n + 2) has POWER_BITS + 2 bits
    ("Y", {"q": 3}, 10**400 + 1),  # n*log2(q) past a float
    ("X", {"p": 2, "a": 52_429, "b": 1}, 3),
], ids=["Y-2-2000001", "Y-2-first-past", "Y-3-huge-n", "X-2-52429-1-3"])
def test_validation_refuses_powers_past_the_bit_limit(family, flags, n):
    """q^(n + 2) is priced by its bit length before it is built; Y(2,
    2000001, 1) took over 40 s, most of it printing 600,000-digit
    constants."""
    t0 = time.perf_counter()
    with pytest.raises(TooMuchWork, match=f"has more bits than the limit {POWER_BITS}$"):
        validate_params(family, n=n, s=1, **flags)
    assert time.perf_counter() - t0 < 0.5


def test_validation_admits_work_up_to_its_limits():
    """A prime test with isqrt at WORK_LIMIT runs (2 divides 10^16 at
    once), and the largest admitted q^(n + 2) are 2^(POWER_BITS - 1) at
    q = 2 and 2^(52428*5) = 2^262140 in family X at n = 3."""
    assert _prime_power_base(WORK_LIMIT**2) is None
    assert validate_params("Y", q=2, n=POWER_BITS - 3, s=1).n == POWER_BITS - 3
    assert validate_params("X", p=2, a=52_428, b=1, n=3, s=1).q == 2**52_428


def test_validate_other_rejections():
    with pytest.raises(NEven):
        validate_params("Y", q=2, n=4, s=1)
    with pytest.raises(NonPrimeP):
        validate_params("X", p=4, a=1, b=1, n=3, s=1)
    with pytest.raises(NonPrimeP):
        validate_params("Y", q=6, n=3, s=1)
    with pytest.raises(BNotDividingA):
        validate_params("X", p=2, a=1, b=2, n=3, s=1)
    with pytest.raises(ParameterError):
        validate_params("Y", q=2, n=1, s=1)
    with pytest.raises(ParameterError):
        validate_params("Z", n=3, s=1)
    with pytest.raises(ParameterError):
        validate_params("Y", q=2, n=3, s=1, p=2)


def test_validate_rejects_other_family_parameters():
    """Family X derives q = p^a and family Y has no p, a, b: a given value
    for the other family's parameter is an error, never dropped."""
    for q in (5, 2):
        with pytest.raises(ParameterError, match="family X takes no q"):
            validate_params("X", p=2, a=1, b=1, n=3, s=1, q=q)
    for extra in ({"p": 7}, {"a": 1}, {"b": 1}):
        with pytest.raises(ParameterError, match="family Y takes no p, a, b"):
            validate_params("Y", q=2, n=3, s=1, **extra)


def test_derive_x21131():
    dc = curve("X", p=2, a=1, b=1, n=3, s=1)
    assert (dc.q, dc.pb, dc.M, dc.e) == (2, 2, 3, 9)
    assert dc.gens == (3, 4, 9)
    assert (dc.genus, dc.frobenius) == (3, 5)
    assert dc.max_m == 1


def test_derive_y231(y231):
    assert (y231.pb, y231.M, y231.e) == (1, 3, 9)
    assert y231.gens == (6, 8, 9)
    assert (y231.genus, y231.frobenius) == (10, 19)
    assert y231.max_m == 2


def test_derive_y233(y233):
    assert (y233.M, y233.e) == (1, 3)
    assert y233.gens == (2, 8, 3)
    assert (y233.genus, y233.frobenius) == (1, 1)


def test_check_m(y231):
    check_m(y231, 1)
    check_m(y231, 2)
    with pytest.raises(BadM):
        check_m(y231, 0)
    with pytest.raises(BadM):
        check_m(y231, 3)


def test_monomial_valuation_examples(y231):
    vec, regular = monomial_valuation(y231, 1, MonomialExponents(2, 2, (-1,)))
    assert (vec, regular) == ((19, 1), True)

    vec, regular = monomial_valuation(y231, 1, MonomialExponents(0, 0, (0,)))
    assert (vec, regular) == ((0, 0), True)

    # 1/y has a pole at the untracked beta = 0 point, hence not regular.
    vec, regular = monomial_valuation(y231, 1, MonomialExponents(0, -1, (0,)))
    assert (vec, regular) == ((-6, 3), False)


def test_monomial_valuation_length_check(y231):
    with pytest.raises(LengthMismatch):
        monomial_valuation(y231, 1, MonomialExponents(0, 0, (0, 0)))


def test_discrepancy_monomial_reconstructs_alpha(sweep):
    """z^(M-j) y^(q-i) / prod(x - alpha_l) realizes the fundamental-region
    absolute maximal for (i, j), for every instance and admissible m."""
    for dc in sweep:
        for m in range(1, dc.max_m + 1):
            for rho in range(1, dc.e):
                i, j = pair_from_residue(dc, rho)
                exps = MonomialExponents(dc.M - j, dc.q - i, (-1,) * m)
                vec, regular = monomial_valuation(dc, m, exps)
                assert regular
                assert vec == realize(dc, m, MaximalElement(rho, (0,) * m))


@settings(max_examples=200)
@given(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
)
def test_monomial_valuation_additive(az1, by1, c1a, c1b, az2, by2, c2a, c2b):
    dc = curve("Y", q=2, n=3, s=1)
    v1, _ = monomial_valuation(dc, 2, MonomialExponents(az1, by1, (c1a, c1b)))
    v2, _ = monomial_valuation(dc, 2, MonomialExponents(az2, by2, (c2a, c2b)))
    v12, _ = monomial_valuation(
        dc, 2, MonomialExponents(az1 + az2, by1 + by2, (c1a + c2a, c1b + c2b))
    )
    assert tuple(a + b for a, b in zip(v1, v2)) == v12


def test_genus_always_positive(sweep):
    assert all(dc.genus >= 1 for dc in sweep)
