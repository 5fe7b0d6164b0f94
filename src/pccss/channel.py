"""Asymmetric Pauli channel: independent per-qubit I/X/Y/Z draws with
p_X = p_Y and a Z bias controlled by the asymmetry zeta.

Sampling is counter-based: every (seed, trial) pair keys its own Philox
stream, so any block of trials reproduces the serial stream no matter how
the trials are grouped or ordered.  A Monte Carlo run makes one private
_Sampler and draws each block of trials through it, reusing its bit
generator and buffers; sample_errors makes one per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PauliChannel", "PauliError", "make_channel", "sample_error", "sample_errors"]


@dataclass(frozen=True)
class PauliChannel:
    p: float
    zeta: float
    p_x: float
    p_y: float
    p_z: float

    @property
    def p_i(self) -> float:
        return 1.0 - self.p


@dataclass(frozen=True)
class PauliError:
    n: int
    x: np.ndarray
    z: np.ndarray


def make_channel(p: float, zeta: float) -> PauliChannel:
    """p_X = p_Y = p/(2*zeta+1); p_Z takes the rest of p.  zeta may be
    math.inf for a pure-Z channel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"total error probability {p} outside [0, 1]")
    check_asymmetry(zeta)
    p_x = 0.0 if math.isinf(zeta) else p / (2.0 * zeta + 1.0)
    return PauliChannel(p=p, zeta=zeta, p_x=p_x, p_y=p_x, p_z=p - 2.0 * p_x)


def check_asymmetry(zeta: float) -> None:
    """Reject an asymmetry below 1 (or NaN); math.inf is allowed."""
    if not zeta >= 1.0:
        raise ValueError(f"asymmetry {zeta} must be >= 1")


def check_key(name: str, value: int) -> None:
    """Reject a seed or trial index that does not fit its 64-bit word of the
    Philox key."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} {value} outside [0, 2^64)")


def _raw_bound(a: float) -> int:
    """The bound B in [0, 2^64] with u < a exactly when raw < B, for a
    in [0, 1] and u the double numpy makes from the raw word."""
    return math.ceil(a * 2.0**53) << 11


def _below(raw: np.ndarray, bound: int, out: np.ndarray | None = None) -> np.ndarray:
    """raw < bound for a bound in [0, 2^64], into out when given; 2^64
    itself fits no uint64, and no word is below 0, so neither edge compares
    the words."""
    if out is None:
        out = np.empty(raw.shape, dtype=bool)
    if bound >= 2**64:
        out.fill(True)
    elif not bound:
        out.fill(False)
    else:
        np.less(raw, np.uint64(bound), out=out)
    return out


class _Sampler:
    """Errors on n qubits for up to `rows` trials per draw, all keyed by one
    seed.  It holds what every draw reuses: one Philox bit generator and the
    state dict that rekeys it, the channel's raw-word bounds, and a
    rows x n buffer of raw words with the bool buffers of the X/Z split.
    A draw's arrays are views of those buffers, so they hold only until
    the next draw.

    For each trial the generator's key is reset to (seed, trial) and its
    counter to zero, which yields exactly the stream of a fresh
    ``Generator(Philox(key=(seed, trial)))``.  Qubit j of a trial is X or Y
    when its uniform u_j < p_X + p_Y and Z or Y when p_X <= u_j < p.

    The thresholds are applied to the raw 64-bit words.  numpy's double is
    u = (raw >> 11) * 2^-53, and a * 2^53 is exact for a in [0, 1], so
    u < a holds exactly when raw < ceil(a * 2^53) * 2^11.  The bound is
    2^64 for a = 1, which every word is below, and 0 for a = 0, which no
    word is below.
    """

    def __init__(self, ch: PauliChannel, n: int, seed: int, rows: int):
        check_key("seed", seed)
        self._n = n
        self._bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        # plain ints: setting the state from them is several times faster
        # than from the numpy arrays bits.state holds
        self._key = [seed, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._below_xy = _raw_bound(ch.p_x + ch.p_y)
        self._below_p = _raw_bound(ch.p)
        self._below_x = _raw_bound(ch.p_x)
        self._raw = np.empty((rows, n), dtype=np.uint64)
        self._x = np.empty((rows, n), dtype=bool) if self._below_xy else None
        self._z = np.empty((rows, n), dtype=bool)
        self._low = np.empty((rows, n), dtype=bool) if self._below_x else None

    def draw(self, trials) -> tuple[np.ndarray | None, np.ndarray]:
        """(x, z) for a sequence of at most `rows` trial indices: uint8
        stacks whose row i is the error keyed (seed, trials[i]).  x is None
        when the channel has no X or Y errors (zeta = inf)."""
        trials = [int(t) for t in trials]
        # the range check is on the extremes; the loop only names the first
        # index outside it
        if trials and not 0 <= min(trials) <= max(trials) < 2**64:
            for t in trials:
                check_key("trial index", t)
        t, n = len(trials), self._n
        bits, key, state = self._bits, self._key, self._state
        raw = self._raw[:t]
        for i, trial in enumerate(trials):
            key[1] = trial
            bits.state = state
            raw[i] = bits.random_raw(n)
        x = None
        if self._x is not None:
            x = _below(raw, self._below_xy, self._x[:t]).view(np.uint8)
        z = _below(raw, self._below_p, self._z[:t])
        if self._low is not None:
            # p_X <= p, so this clears u < p_X
            z ^= _below(raw, self._below_x, self._low[:t])
        return x, z.view(np.uint8)


def sample_errors(ch: PauliChannel, n: int, seed: int, trials) -> PauliError:
    """Errors on n qubits for a sequence of trial indices, stacked one row
    per trial: row i is the error keyed (seed, trials[i]).  One _Sampler
    draws them once, so the returned arrays are this call's own."""
    trials = list(trials)
    x, z = _Sampler(ch, n, seed, len(trials)).draw(trials)
    if x is None:
        x = np.zeros((len(trials), n), dtype=np.uint8)
    return PauliError(n=n, x=x, z=z)


def sample_error(ch: PauliChannel, n: int, seed: int, trial: int = 0) -> PauliError:
    """One i.i.d. error on n qubits from the generator keyed (seed, trial)."""
    e = sample_errors(ch, n, seed, (trial,))
    return PauliError(n=n, x=e.x[0], z=e.z[0])
