"""Asymmetric Pauli channel: independent per-qubit I/X/Y/Z draws with
p_X = p_Y and a Z bias controlled by the asymmetry zeta.

Sampling is counter-based: every (seed, trial) pair keys its own Philox
stream, so any block of trials reproduces the serial stream no matter how
the trials are grouped or ordered.
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


def _below(raw: np.ndarray, bound: int) -> np.ndarray:
    """raw < bound for a bound in [0, 2^64]; 2^64 itself fits no uint64, and
    no word is below 0, so neither edge compares the words."""
    if bound >= 2**64:
        return np.ones(raw.shape, dtype=bool)
    if not bound:
        return np.zeros(raw.shape, dtype=bool)
    return raw < np.uint64(bound)


def sample_errors(ch: PauliChannel, n: int, seed: int, trials) -> PauliError:
    """Errors on n qubits for a sequence of trial indices, stacked one row
    per trial: row i is the error keyed (seed, trials[i]).

    One Philox bit generator is reused; for each trial its key is reset to
    (seed, trial) and its counter to zero, which yields exactly the stream
    of a fresh ``Generator(Philox(key=(seed, trial)))``.  Qubit j of a trial
    is X or Y when its uniform u_j < p_X + p_Y and Z or Y when
    p_X <= u_j < p.

    The thresholds are applied to the raw 64-bit words.  numpy's double is
    u = (raw >> 11) * 2^-53, and a * 2^53 is exact for a in [0, 1], so
    u < a holds exactly when raw < ceil(a * 2^53) * 2^11.  The bound is
    2^64 for a = 1, which every word is below, and 0 for a = 0, which no
    word is below.
    """
    trials = [int(t) for t in trials]
    check_key("seed", seed)
    # the range check is on the extremes; the loop only names the first
    # index outside it
    if trials and not 0 <= min(trials) <= max(trials) < 2**64:
        for t in trials:
            check_key("trial index", t)
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    # plain ints: setting the state from them is several times faster than
    # from the numpy arrays bits.state holds
    key = [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = np.empty((len(trials), n), dtype=np.uint64)
    for i, t in enumerate(trials):
        key[1] = t
        bits.state = state
        raw[i] = bits.random_raw(n)
    x = _below(raw, _raw_bound(ch.p_x + ch.p_y))
    z = _below(raw, _raw_bound(ch.p))
    below_x = _raw_bound(ch.p_x)
    if below_x:
        z ^= _below(raw, below_x)  # p_X <= p, so this clears u < p_X
    return PauliError(n=n, x=x.view(np.uint8), z=z.view(np.uint8))


def sample_error(ch: PauliChannel, n: int, seed: int, trial: int = 0) -> PauliError:
    """One i.i.d. error on n qubits from the generator keyed (seed, trial)."""
    e = sample_errors(ch, n, seed, (trial,))
    return PauliError(n=n, x=e.x[0], z=e.z[0])
