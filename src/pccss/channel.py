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


def sample_errors(ch: PauliChannel, n: int, seed: int, trials) -> PauliError:
    """Errors on n qubits for a sequence of trial indices, stacked one row
    per trial: row i is the error keyed (seed, trials[i]).

    One Philox bit generator is reused; for each trial its key is reset to
    (seed, trial) and its counter to zero, which yields exactly the stream
    of a fresh ``Generator(Philox(key=(seed, trial)))``.
    """
    trials = [int(t) for t in trials]
    check_key("seed", seed)
    for t in trials:
        check_key("trial index", t)
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = bits.state
    rng = np.random.Generator(bits)
    u = np.empty((len(trials), n))
    for row, t in zip(u, trials):
        state["state"]["key"][:] = (seed, t)
        state["state"]["counter"][:] = 0
        bits.state = state
        rng.random(n, out=row)
    x = (u < ch.p_x + ch.p_y).astype(np.uint8)
    z = ((u >= ch.p_x) & (u < ch.p)).astype(np.uint8)
    return PauliError(n=n, x=x, z=z)


def sample_error(ch: PauliChannel, n: int, seed: int, trial: int = 0) -> PauliError:
    """One i.i.d. error on n qubits from the generator keyed (seed, trial)."""
    e = sample_errors(ch, n, seed, (trial,))
    return PauliError(n=n, x=e.x[0], z=e.z[0])
