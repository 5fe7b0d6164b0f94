"""Closed-form rate bounds and exact counting quantities.

Oracles: independent math.log2 arithmetic written out in the tests, literal
big-rational evaluation of the block failure sum, and brute-force Hamming
ball enumeration for small lengths.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccss.bounds import (
    channel_split,
    entropy_q,
    gv_aqc_rate,
    gv_css_rate,
    gv_enlarged_rate,
    hashing_rate,
    max_hashing_gap,
    pccss_channel_rate,
    pz_upper_bound,
    rate_curves,
    solve_threshold,
    vol_q,
)


def h2(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# ---------------------------------------------------------------- entropy

def test_entropy_endpoints_and_max():
    assert entropy_q(0.0, 2) == 0.0
    assert entropy_q(0.5, 2) == pytest.approx(1.0, abs=1e-15)
    assert entropy_q(0.0, 4) == 0.0
    assert entropy_q(1.0, 2) == 0.0
    # at x = 1 the q-ary value is log_q(q-1) by continuity
    assert entropy_q(1.0, 4) == pytest.approx(math.log(3) / math.log(4), abs=1e-15)


def test_entropy_matches_independent_formula():
    for x in [0.01, 0.11, 0.25, 0.4999, 0.7]:
        assert entropy_q(x, 2) == pytest.approx(h2(x), abs=1e-14)
    for q in (3, 4, 8):
        for x in [0.05, 0.3, 0.6]:
            ref = (x * math.log2(q - 1) + h2(x)) / math.log2(q)
            assert entropy_q(x, q) == pytest.approx(ref, abs=1e-13)


def test_entropy_near_11_percent_landmark():
    assert entropy_q(0.11, 2) == pytest.approx(0.49999, abs=2e-4)


def test_entropy_domain_errors():
    with pytest.raises(ValueError):
        entropy_q(-0.1, 2)
    with pytest.raises(ValueError):
        entropy_q(1.1, 2)
    with pytest.raises(ValueError):
        entropy_q(0.5, 1)


def test_entropy_concave_on_grid():
    for q in (2, 4):
        top = 1 - 1 / q
        grid = [i * top / 1000 for i in range(1001)]
        vals = [entropy_q(x, q) for x in grid]
        for i in range(1, 1000):
            assert vals[i] >= (vals[i - 1] + vals[i + 1]) / 2 - 1e-12


# ----------------------------------------------------------------- volume

def test_vol_small_values():
    assert vol_q(3, 0, 2) == 1
    assert vol_q(3, 1, 2) == 4
    assert vol_q(3, 3, 2) == 8


def test_vol_matches_enumeration():
    for q, n in [(2, 6), (3, 4), (4, 4)]:
        for lam in range(n + 1):
            count = sum(
                1
                for v in itertools.product(range(q), repeat=n)
                if sum(x != 0 for x in v) <= lam
            )
            assert vol_q(n, lam, q) == count


def test_vol_domain():
    with pytest.raises(ValueError):
        vol_q(3, 4, 2)
    with pytest.raises(ValueError):
        vol_q(3, -1, 2)


def test_lemma3_sandwich():
    # q^(Hn - (q-1) log_q(n+1)) <= Vol <= q^(Hn) whenever lam/n <= 1 - 1/q
    for q in (2, 4):
        for n in range(1, 201):
            top = int(n * (1 - 1 / q))
            for lam in range(0, top + 1, max(1, n // 11)):
                v = vol_q(n, lam, q)
                h = entropy_q(lam / n, q)
                logv = math.log(v) / math.log(q)
                assert logv <= n * h + 1e-9
                assert logv >= n * h - (q - 1) * math.log(n + 1) / math.log(q) - 1e-9


# --------------------------------------------------------------- gv rates

def test_gv_css_rate_values():
    assert gv_css_rate(0.0, 2) == 1.0
    assert gv_css_rate(0.11, 2) == pytest.approx(1 - 2 * h2(0.11), abs=1e-13)
    with pytest.raises(ValueError):
        gv_css_rate(0.6, 2)


def test_gv_css_zero_at_bb84_landmark():
    root = solve_threshold(lambda x: gv_css_rate(x, 2), 0.01, 0.4, 1e-7)
    assert abs(root - 0.1100) < 5e-4


def test_gv_aqc_reduces_to_css():
    for d in (0.02, 0.07, 0.1):
        assert gv_aqc_rate(d, d, 2) == pytest.approx(gv_css_rate(d, 2), abs=1e-14)
    assert gv_aqc_rate(0.0, 0.1, 2) == pytest.approx(1 - h2(0.1), abs=1e-13)


def test_gv_enlarged_dominates_css():
    assert gv_enlarged_rate(0.0, 2) == 1.0
    for i in range(1, 50):
        d = i * 0.5 / 50
        assert gv_enlarged_rate(d, 2) > gv_css_rate(d, 2)
    root = solve_threshold(lambda x: gv_enlarged_rate(x, 2), 0.01, 0.4, 1e-7)
    assert 0.10 < root < 0.15


# ----------------------------------------------------------------- channel

def test_channel_split_identities():
    px, py, pz = channel_split(0.3, 100)
    assert px == py
    assert px == pytest.approx(0.3 / 201, abs=1e-15)
    assert px + py + pz == pytest.approx(0.3, abs=1e-15)
    assert pz == pytest.approx(0.3 * 199 / 201, abs=1e-15)
    # asymmetry definition recovered: zeta = (pz+py)/(px+py)
    assert (pz + py) / (px + py) == pytest.approx(100, rel=1e-12)


def test_channel_split_infinite_asymmetry():
    px, py, pz = channel_split(0.2, math.inf)
    assert px == 0.0 and py == 0.0
    assert pz == pytest.approx(0.2)


def test_pccss_channel_rate_direct_evaluation():
    # zeta = 1: px = py = pz = p/3, rate = 1 - h2(4p/3) - h2(2p/3)
    p = 0.1
    assert pccss_channel_rate(p, 1) == pytest.approx(
        1 - h2(4 * p / 3) - h2(2 * p / 3), abs=1e-13
    )
    assert pccss_channel_rate(0.0, 1) == 1.0
    assert hashing_rate(0.0) == 1.0
    assert hashing_rate(0.11) == pytest.approx(1 - h2(0.11), abs=1e-13)


def test_pccss_channel_rate_rejects_oversized_x_rate():
    with pytest.raises(ValueError):
        pccss_channel_rate(0.9, 1)  # 4 p_X = 1.2


def test_gap_shrinks_with_asymmetry():
    g1 = max_hashing_gap(1, pmax=0.15, step=1e-3)
    g100 = max_hashing_gap(100, pmax=0.15, step=1e-3)
    g1000 = max_hashing_gap(1000, pmax=0.15, step=1e-3)
    assert g1 > g100 > g1000


def test_qber_landmarks_from_candidate_rate_functions():
    # zeta = 1 rate expressed in the BB84 error rate u = px + py = 2p/3
    root = solve_threshold(lambda u: 1 - h2(2 * u) - h2(u), 0.01, 0.2, 1e-8)
    assert abs(root - 0.0756) < 1e-3
    # zeta = 100: total QBER = pz + py = p * 2*zeta/(2*zeta+1) at the rate zero
    pstar = solve_threshold(lambda p: pccss_channel_rate(p, 100), 0.05, 0.45, 1e-8)
    assert abs(pstar * 200 / 201 - 0.3556) < 1e-3


# ------------------------------------------------------------ failure bound

def test_pz_bound_values():
    assert pz_upper_bound(16, 4, 0.0) == 0.0
    val = pz_upper_bound(1024, 16, 0.05)
    assert val == pytest.approx(64 * 2**15 * 0.05**8, rel=1e-12)
    with pytest.raises(ValueError):
        pz_upper_bound(10, 3, 0.1)


def test_pz_bound_tight_form_matches_literal_sum():
    # Eq-by-eq oracle: the tight bound is N2*C(n0,d0+1)*pz^(d0+1) because the
    # trailing binomial sum telescopes to 1; evaluate that sum literally.
    for N, n0 in [(8, 4), (15, 5), (32, 8)]:
        pz = Fraction(1, 20)
        d0 = (n0 - 1) // 2
        tail = sum(
            math.comb(N - d0 - 1, i) * pz**i * (1 - pz) ** (N - d0 - 1 - i)
            for i in range(N - d0)
        )
        literal = (N // n0) * math.comb(n0, d0 + 1) * pz ** (d0 + 1) * tail
        assert pz_upper_bound(N, n0, pz, tight=True) == literal


@given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_pz_tight_below_closed_form(blocks, n0, pznum):
    pz = Fraction(pznum, 1000)
    N = blocks * n0
    assert pz_upper_bound(N, n0, pz, tight=True) <= pz_upper_bound(N, n0, pz)


# ---------------------------------------------------------------- roots

def test_bisection_linear():
    assert solve_threshold(lambda x: x - 0.5, 0.0, 1.0, 1e-9) == pytest.approx(0.5, abs=1e-8)


def test_bisection_requires_sign_change():
    with pytest.raises(ValueError):
        solve_threshold(lambda x: x + 1.0, 0.0, 1.0, 1e-9)


def test_gv_css_root_high_precision():
    root = solve_threshold(lambda x: gv_css_rate(x, 2), 0.05, 0.2, 1e-9)
    assert root == pytest.approx(0.110028, abs=2e-5)


# ----------------------------------------------------------------- curves

def test_rate_curves_structure():
    curves = rate_curves([1, 100], pmax=0.12, step=1e-2)
    names = [c.label for c in curves]
    assert any("hashing" in n for n in names)
    assert any("zeta=100" in n for n in names)
    for c in curves:
        assert len(c.x) == len(c.y)
        assert all(b > a for a, b in zip(c.x, c.x[1:]))


@pytest.mark.parametrize("pmax, step", [(0.15, 1e-4), (0.5, 1e-3), (1.0, 1e-3)])
def test_rate_curves_equal_the_per_point_rates(pmax, step):
    """Point by point, == on floats: the hashing curve is hashing_rate and
    each asymmetry's curve is pccss_channel_rate, NaN exactly where that
    refuses 4 p_X > 1.  The Fig. 1 grid, and grids to p = 0.5 and p = 1;
    only the last has a NaN tail (zeta = 1 beyond p = 0.75)."""
    zetas = [1, 3, 100, 1000, math.inf]
    curves = rate_curves(zetas, pmax=pmax, step=step)
    assert list(curves[0].y) == [hashing_rate(p) for p in curves[0].x]
    nans = 0
    for zeta, curve in zip(zetas, curves[1:]):
        assert curve.x == curves[0].x
        for p, y in zip(curve.x, curve.y):
            try:
                want = pccss_channel_rate(p, zeta)
            except ValueError:
                assert math.isnan(y), (zeta, p)
                nans += 1
            else:
                assert y == want, (zeta, p)
    assert (nans > 0) == (pmax == 1.0)


@pytest.mark.parametrize("pmax, step", [(0.1, 0.0), (0.1, -1e-3), (0.1, math.nan),
                                        (math.inf, 1e-3), (math.nan, 1e-3), (1.5, 1e-3)])
def test_grids_that_never_end_or_leave_the_domain_are_refused(pmax, step):
    with pytest.raises(ValueError):
        rate_curves([2.0], pmax=pmax, step=step)
    with pytest.raises(ValueError):
        max_hashing_gap(2.0, pmax=pmax, step=step)
