"""Closed-form rates and counting bounds for concatenated CSS families.

Entropy-based curves are binary64 floats; everything combinatorial (ball
volumes, block failure sums) is exact big-integer or big-rational arithmetic
so that inequality checks never hinge on rounding.  Channel rates are evaluated
by one function, _split_rate, on channel's one split, in rate_curves' table too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import _split, check_asymmetry, make_channel

__all__ = [
    "RateCurve",
    "channel_split",
    "entropy_q",
    "gap_curves",
    "gv_aqc_rate",
    "gv_css_rate",
    "gv_enlarged_rate",
    "hashing_rate",
    "max_gap",
    "max_hashing_gap",
    "pccss_channel_rate",
    "pz_upper_bound",
    "rate_curves",
    "solve_threshold",
    "vol_q",
]

_FUZZ = 1e-12


def _clip01(x: float, what: str) -> float:
    """Snap float fuzz onto [0,1]; reject genuine domain violations."""
    if -_FUZZ < x < 0.0:
        return 0.0
    if 1.0 < x < 1.0 + _FUZZ:
        return 1.0
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{what} = {x} outside [0, 1]")
    return x


def entropy_q(x: float, q: int = 2) -> float:
    """q-ary entropy x log_q(q-1) - x log_q x - (1-x) log_q(1-x), limits at 0, 1."""
    if q < 2:
        raise ValueError(f"entropy needs a field size q >= 2, got {q}")
    return _entropy(_clip01(float(x), "entropy argument"), q)


def _entropy(x: float, q: int) -> float:
    """entropy_q for an x already snapped onto [0, 1]."""
    lnq = math.log(q)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.log(q - 1) / lnq if q > 2 else 0.0
    return (x * math.log(q - 1) - x * math.log(x) - (1 - x) * math.log(1 - x)) / lnq


def vol_q(n: int, lam: int, q: int = 2) -> int:
    """Exact Hamming ball volume: sum of C(n,i) (q-1)^i for i <= lam."""
    if not 0 <= lam <= n:
        raise ValueError(f"radius {lam} outside [0, {n}]")
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(lam + 1))


# ---------------------------------------------------------------- GV rates

def _check_delta(delta: float, q: int) -> float:
    delta = _clip01(float(delta), "relative distance")
    if delta > 1 - 1 / q + _FUZZ:
        raise ValueError(f"relative distance {delta} beyond 1 - 1/q for q = {q}")
    return delta


def gv_css_rate(delta: float, q: int = 2) -> float:
    return 1.0 - 2.0 * entropy_q(_check_delta(delta, q), q)


def gv_aqc_rate(dx: float, dz: float, q: int = 2) -> float:
    return 1.0 - entropy_q(_check_delta(dx, q), q) - entropy_q(_check_delta(dz, q), q)


def gv_enlarged_rate(delta: float, q: int = 2) -> float:
    delta = _check_delta(delta, q)
    return 1.0 - entropy_q(delta, q) - entropy_q(q * delta / (q + 1), q)


# ----------------------------------------------------------- channel rates

def channel_split(p: float, zeta: float) -> tuple[float, float, float]:
    """(p_X, p_Y, p_Z) of channel.make_channel, p_X = p_Y = p/(2 zeta + 1);
    zeta may be inf. Float fuzz on p is snapped onto [0, 1] first."""
    ch = make_channel(_clip01(float(p), "total error probability"), zeta)
    return ch.p_x, ch.p_y, ch.p_z


def hashing_rate(p: float) -> float:
    return 1.0 - entropy_q(p, 2)


def pccss_channel_rate(p: float, zeta: float) -> float:
    """Achievable-rate limit 1 - H2(4 p_X) - H2(p_Z + p_Y) on the split channel."""
    px, _, pz = channel_split(p, zeta)
    if 4 * px > 1 + _FUZZ:
        raise ValueError(f"4 p_X = {4 * px} exceeds 1; rate formula undefined")
    return _split_rate(px, pz)


def _split_rate(px: float, pz: float) -> float:
    """1 - H2(4 p_X) - H2(p_Z + p_Y), p_Y being p_X; NaN where 4 p_X > 1."""
    if 4 * px > 1 + _FUZZ:
        return float("nan")
    h_x = _entropy(_clip01(4 * px, "entropy argument"), 2)
    return 1.0 - h_x - _entropy(_clip01(pz + px, "entropy argument"), 2)


def _check_grid(pmax: float, step: float) -> None:
    """Reject a p grid that never ends: a step that is not positive, or a
    pmax above 1, the largest error probability (NaN fails both)."""
    if not step > 0:
        raise ValueError(f"grid step {step} must be > 0")
    if not pmax <= 1:
        raise ValueError(f"largest error probability {pmax} must be <= 1")


# ------------------------------------------------------------ failure bound

def pz_upper_bound(N: int, n0: int, pz, tight: bool = False):
    """Block-failure probability bound for N/n0 blocks of length n0.

    Closed form: N2 * 2^(n0-1) * pz^(d0+1) with d0 = floor((n0-1)/2). The tight
    intermediate form keeps the binomial coefficient: N2 * C(n0, d0+1) * pz^(d0+1)
    (the trailing binomial sum over the remaining N - d0 - 1 positions is 1).
    Exact when pz is a Fraction.
    """
    if n0 < 1 or N % n0 != 0:
        raise ValueError(f"block length {n0} must divide N = {N}")
    if not 0 <= pz <= 1:
        raise ValueError(f"pz = {pz} outside [0, 1]")
    n2 = N // n0
    d0 = (n0 - 1) // 2
    if tight:
        return n2 * math.comb(n0, d0 + 1) * pz ** (d0 + 1)
    return n2 * 2 ** (n0 - 1) * pz ** (d0 + 1)


# ------------------------------------------------------------------- roots

def solve_threshold(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Bisection root of a monotone f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f = {flo}, {fhi}")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ------------------------------------------------------------------ curves

@dataclass(frozen=True)
class RateCurve:
    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]


def rate_curves(zetas, pmax: float = 0.5, step: float = 1e-3) -> list[RateCurve]:
    """Hashing bound plus one achievable-rate curve per asymmetry value.

    Each point is hashing_rate(p) or pccss_channel_rate(p, zeta), NaN where
    4 p_X > 1: the same split and rate functions, in one loop without their
    per-point channel objects and checks."""
    _check_grid(pmax, step)
    grid = []
    k = 1
    while True:
        p = round(k * step, 12)
        if p > pmax + _FUZZ:
            break
        grid.append(p)
        k += 1
    ps = [_clip01(p, "total error probability") for p in grid]
    curves = [RateCurve("hashing", tuple(grid), tuple(1.0 - _entropy(p, 2) for p in ps))]
    for z in zetas:
        check_asymmetry(z)  # a bad zeta is an input error, not a NaN column
        ys = tuple(_split_rate(*_split(p, z)) for p in ps)
        curves.append(RateCurve(f"pccss zeta={z:g}", tuple(grid), ys))
    return curves


def gap_curves(curves: list[RateCurve], zetas) -> list[RateCurve]:
    """|hashing - achievable| per asymmetry from rate_curves(zetas, ...)'s
    output, NaN wherever either rate is not positive."""
    hashing = curves[0]
    out = []
    for curve, zeta in zip(curves[1:], zetas):
        gaps = tuple(
            abs(h - y) if h > 0 and not math.isnan(y) and y > 0 else float("nan")
            for h, y in zip(hashing.y, curve.y)
        )
        out.append(RateCurve(f"gap zeta={zeta:g}", hashing.x, gaps))
    return out


def max_gap(curve: RateCurve) -> float:
    """Largest value of one gap_curves curve, skipping NaN; 0 if all are NaN."""
    return max((g for g in curve.y if not math.isnan(g)), default=0.0)


def max_hashing_gap(zeta: float, pmax: float = 0.15, step: float = 1e-4) -> float:
    """Largest |hashing - achievable| where both rates are positive, p in
    (0, pmax]: max_gap of the gap curve on rate_curves' grid."""
    return max_gap(gap_curves(rate_curves([zeta], pmax=pmax, step=step), [zeta])[0])


def curves_to_csv(curves: list[RateCurve]) -> str:
    """Merge curves sharing a grid into CSV columns (x, then one per label)."""
    grid = curves[0].x
    if any(c.x != grid for c in curves):
        raise ValueError("curves must share a parameter grid for CSV export")
    lines = ["p," + ",".join(c.label for c in curves)]
    for i, p in enumerate(grid):
        row = [f"{p:.6g}"] + [f"{c.y[i]:.10g}" for c in curves]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


__all__.append("curves_to_csv")
