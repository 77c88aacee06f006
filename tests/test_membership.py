"""lub, coordinate witnesses and the membership decision procedures."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import witness_test
from wsgaps import maximal, membership, semigroup
from wsgaps.curves import curve
from wsgaps.errors import EmptyInput, LengthMismatch, SelfCheckError, WsgapsError
from wsgaps.gaps import simplex_points
from wsgaps.maximal import MaximalElement, realize, relative_shift
from wsgaps.membership import (
    in_classical_H,
    in_generalized_H,
    lub,
    nabla_witness,
    one_point_gaps_at_P1,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_lub_examples():
    assert lub([(-9, 9), (0, 0)]) == (0, 9)
    assert lub([(19, 1), (1, 19)]) == (19, 19)
    assert lub([(5, -2, 7)]) == (5, -2, 7)


def test_lub_rejects():
    with pytest.raises(EmptyInput):
        lub([])
    with pytest.raises(LengthMismatch):
        lub([(1, 2), (1, 2, 3)])


def test_nabla_witness_examples(y231, x21131):
    w = nabla_witness(y231, 1, (0, 9), 1)
    assert w == MaximalElement(0, (1,))
    assert realize(y231, 1, w) == (-9, 9)

    assert nabla_witness(y231, 1, (1, 1), 1) is None
    assert nabla_witness(x21131, 1, (2, 0), 0) is None


def test_in_generalized_examples(y231):
    assert in_generalized_H(y231, 1, (19, 1)).member

    v = in_generalized_H(y231, 1, (1, 1))
    assert not v.member
    assert v.failing_coordinate == 1
    assert v.witnesses is None

    for m in (1, 2):
        v = in_generalized_H(y231, m, (0,) * (m + 1))
        assert v.member
        assert len(v.witnesses) == m + 1


def test_member_witnesses_reach_lub(y231):
    v = in_generalized_H(y231, 2, (19, 1, 1))
    assert v.member
    assert lub(realize(y231, 2, w) for w in v.witnesses) == (19, 1, 1)


def test_in_classical_examples(y231):
    assert in_classical_H(y231, 1, (0, 9))
    assert not in_classical_H(y231, 1, (1, 1))
    assert not in_classical_H(y231, 1, (-9, 9))  # generalized member only


def test_frobenius_plus_one_always_member(sweep):
    for dc in sweep:
        for m in range(1, min(2, dc.max_m) + 1):
            assert in_classical_H(dc, m, (dc.frobenius + 1,) + (0,) * m)


def test_one_point_gaps_examples(y231, y233, x21131):
    assert set(one_point_gaps_at_P1(x21131)) == {1, 2, 4}
    assert set(one_point_gaps_at_P1(y231)) == {1, 2, 3, 4, 5, 7, 10, 11, 13, 19}
    assert len(one_point_gaps_at_P1(y233)) == 1


def _sample_elements(dc, m):
    """Realized family members: absolute maximals, and relative maximals
    (absolute ones plus relative_shift(dc, m) at P_inf)."""
    rel = relative_shift(dc, m)
    out = [(MaximalElement(0, (0,) * m), 0), (MaximalElement(0, (2,) + (0,) * (m - 1)), 0)]
    for rho in (1, dc.e // 2, dc.e - 1):
        out.append((MaximalElement(rho, (0,) * m), 0))
        out.append((MaximalElement(rho, (1,) * m), 0))
        out.append((MaximalElement(rho, (0,) * m), rel))
        out.append((MaximalElement(rho, (2,) + (0,) * (m - 1)), rel))
    out.append((MaximalElement(0, (0,) * m), rel))
    vecs = []
    for elem, shift in out:
        v = realize(dc, m, elem)
        vecs.append((v[0] + shift,) + v[1:])
    return vecs


def test_soundness_realized_elements_are_members(sweep):
    """Every realized maximal element (absolute or relative) belongs to the
    generalized semigroup."""
    for dc in sweep[:10]:
        for m in range(1, min(2, dc.max_m) + 1):
            for vec in _sample_elements(dc, m):
                assert in_generalized_H(dc, m, vec).member, (dc.params, vec)


def test_lub_of_members_is_member(sweep):
    for dc in sweep[:10]:
        for m in range(1, min(2, dc.max_m) + 1):
            vecs = _sample_elements(dc, m)
            for u in vecs:
                for v in vecs:
                    assert in_generalized_H(dc, m, lub([u, v])).member


def test_sum_of_members_is_member(sweep):
    """Products of functions regular outside the point tuple stay regular, so
    the generalized semigroup is closed under addition."""
    for dc in sweep[:10]:
        for m in range(1, min(2, dc.max_m) + 1):
            vecs = _sample_elements(dc, m)
            for u in vecs[:6]:
                for v in vecs[:6]:
                    w = tuple(a + b for a, b in zip(u, v))
                    assert in_generalized_H(dc, m, w).member


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60))
def test_degree_threshold_m1(a0, a1):
    """Any nonnegative vector of coordinate sum >= 2g is a member."""
    dc = curve("Y", q=2, n=3, s=1)
    if a0 + a1 >= 2 * dc.genus:
        assert in_classical_H(dc, 1, (a0, a1))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25))
def test_degree_threshold_m2(a0, a1, a2):
    dc = curve("Y", q=2, n=3, s=1)
    if a0 + a1 + a2 >= 2 * dc.genus:
        assert in_classical_H(dc, 2, (a0, a1, a2))


def _assert_boolean_test_matches_witnesses(dc, m, vectors):
    """The witness_test reference against nabla_witness, at every coordinate."""
    has_witness = witness_test(dc, m)
    for a in vectors:
        found = [nabla_witness(dc, m, a, r) is not None for r in range(m + 1)]
        assert [has_witness(a, r) for r in range(m + 1)] == found, (dc.params, m, a)


def test_boolean_test_matches_witness_path_on_simplex(sweep):
    """Every simplex point at bound 2g, sweep instances with g <= 60."""
    checked = 0
    for dc in sweep:
        if dc.genus > 60:
            continue
        for m in range(1, min(2, dc.max_m) + 1):
            _assert_boolean_test_matches_witnesses(dc, m, simplex_points(m + 1, 2 * dc.genus))
            checked += 1
    assert checked >= 20


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_boolean_test_matches_witness_path_negative_coordinates(sweep, data):
    dc = data.draw(st.sampled_from([d for d in sweep if d.genus <= 160]))
    m = data.draw(st.integers(1, min(3, dc.max_m)))
    span = 3 * dc.e + 2 * dc.genus
    vec = st.tuples(*[st.integers(-span, span)] * (m + 1))
    _assert_boolean_test_matches_witnesses(dc, m, data.draw(st.lists(vec, min_size=1, max_size=20)))


@settings(max_examples=200, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_failing_coordinate_is_first_in_witness_order(a0, a1, a2):
    dc = curve("Y", q=2, n=3, s=1)
    for m, alpha in ((1, (a0, a1)), (2, (a0, a1, a2))):
        has_witness = witness_test(dc, m)
        failing = [r for r in list(range(1, m + 1)) + [0] if not has_witness(alpha, r)]
        verdict = in_generalized_H(dc, m, alpha)
        assert verdict.member == (not failing)
        assert verdict.failing_coordinate == (failing[0] if failing else None)


def _realized_window(dc, m, window):
    """Every maximal element with shifts in [-window, window]^m, realized and
    indexed by (coordinate, value).  Within a bucket the members come in
    lexicographic order of their shifts (smaller rho first on a tie); no
    residue table is consulted."""
    index: dict = {}
    for ks in product(range(-window, window + 1), repeat=m):
        for elem in [MaximalElement(rho, ks) for rho in range(dc.e)]:
            gamma = realize(dc, m, elem)
            for r, x in enumerate(gamma):
                index.setdefault((r, x), []).append((gamma, elem))
    return index


def test_nabla_witness_is_lex_min_of_brute_force_window(y231, x21131):
    """nabla_witness against an independent reference: the realized member
    with the lexicographically smallest shifts among those with
    gamma_r = alpha_r and gamma <= alpha, or None when there is none.  Every
    alpha with |alpha_i| <= 30 at m = 1 and <= 12 at m = 2; no expected
    witness touches the edge of the shift window."""
    window = 20
    checked = 0
    for dc in (y231, x21131):
        for m in range(1, min(2, dc.max_m) + 1):
            index = _realized_window(dc, m, window)
            span = 30 if m == 1 else 12
            for alpha in product(range(-span, span + 1), repeat=m + 1):
                for r in range(m + 1):
                    expected = next(
                        (elem for gamma, elem in index.get((r, alpha[r]), ())
                         if all(x <= a for x, a in zip(gamma, alpha))),
                        None,
                    )
                    assert nabla_witness(dc, m, alpha, r) == expected, (dc.params, m, alpha, r)
                    if expected is not None:
                        assert max(map(abs, expected.ks)) < window, (dc.params, m, alpha, r)
                    checked += 1
    assert checked == 2 * 61**2 * 2 + 25**3 * 3


def test_in_classical_H_rejects_bad_length(y231):
    with pytest.raises(LengthMismatch):
        in_classical_H(y231, 1, (1, 2, 3))
    assert not in_classical_H(y231, 1, (-1, 2, 3))


def test_boolean_test_uses_no_relative_maximals():
    """The scan routes must stay independent of the Lambda side."""
    names = set(vars(membership))
    for banned in ("DeltaFamily", "LambdaZeroFamily", "tau", "relative_shift",
                   "enumerate_classical_Lambda", "lambda_hat_in_C"):
        assert banned not in names


def test_lub_self_check_survives_optimize():
    """The witness lub check raises under python -O when realize is broken,
    with an error the CLI cannot mistake for bad input (exit 2)."""
    assert not issubclass(SelfCheckError, WsgapsError)
    script = (
        "import sys\n"
        "from wsgaps import membership\n"
        "from wsgaps.curves import curve\n"
        "from wsgaps.errors import SelfCheckError\n"
        "assert False, 'asserts must be stripped'\n"
        "membership.realize = lambda dc, m, w: (0,) * (m + 1)\n"
        "try:\n"
        "    membership.in_generalized_H(curve('Y', q=2, n=3, s=1), 1, (19, 1))\n"
        "except SelfCheckError as err:\n"
        "    print(err)\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "(19, 1)" in proc.stdout and "(0, 0)" in proc.stdout


def test_one_point_gap_count_self_check(monkeypatch, y231):
    monkeypatch.setattr(membership, "nabla_witness", lambda dc, m, alpha, r: MaximalElement(0, (0,)))
    with pytest.raises(SelfCheckError, match="genus 10"):
        one_point_gaps_at_P1(y231)


def test_apery_genus_self_check(monkeypatch):
    monkeypatch.setattr(semigroup, "sorted", lambda xs: (), raising=False)
    with pytest.raises(SelfCheckError, match=r"\(6, 8, 9\)"):
        semigroup.from_generators((6, 8, 9))


def test_residue_collision_self_check(monkeypatch, y231):
    monkeypatch.setattr(maximal, "coord0", lambda dc, m, rho: 0)
    membership._residue_tables.cache_clear()  # a cached table would hide the patch
    with pytest.raises(SelfCheckError, match="residues 0 and 1 .* share the class 0 of the first coordinate"):
        membership._residue_tables(y231, 1)
