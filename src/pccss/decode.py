"""Syndrome decoders: exhaustive coset-leader search, bounded-distance
decoding of alternant codes, bit-flip decoding on sparse graphs, one-step
majority-logic for the repetition blocks, and the two-sided decoder for the
product-construction CSS family.

Status vocabulary for every decoder: "corrected" means the returned estimate
reproduces the input syndrome exactly; "detected-uncorrectable" means the
decoder gave up with a certificate (non-convergence, inconsistent locator,
out-of-field value); "failure" is reserved for callers that discover a
miscorrection after the fact.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .galois import (
    GF2,
    FieldSpec,
    _padd,
    _pderiv,
    _pdeg,
    _pdivmod,
    _peval,
    _pmul,
    _pscale,
    _ptrim,
)
from .matgf import _SPAN_CHUNK, MatrixGF, _field_ops, _span_chunks, mul, solver

__all__ = [
    "DecodeOutcome",
    "syndrome_of",
    "grs_syndrome",
    "exhaustive_decode",
    "bdd_alternant",
    "flip_decode",
    "osmlg_block_decode",
    "pccss_decode_x",
    "pccss_decode_x_rows",
    "pccss_decode_z",
]

CORRECTED = "corrected"
DETECTED = "detected-uncorrectable"
FAILURE = "failure"


@dataclass
class DecodeOutcome:
    status: str
    estimate: np.ndarray
    counters: dict = dc_field(default_factory=dict)
    residual: np.ndarray | None = None


def _as_vector(s) -> np.ndarray:
    return np.asarray(s).reshape(-1)


def _require_gf2(q, what: str) -> None:
    """Refuse a code over a field other than GF(2): what runs a qubit-only
    rule (XOR majority, Pauli sampling, a CNOT encoder).  A code that names
    no field is taken as binary."""
    size = getattr(q, "field", GF2).size
    if size != 2:
        raise ValueError(f"{what} handles GF(2) codes only, not GF({size})")


def syndrome_of(M: MatrixGF, e: np.ndarray) -> np.ndarray:
    """Syndrome of an error vector against the given check matrix."""
    e = np.asarray(e).reshape(-1)
    col = MatrixGF(M.field, e.reshape(-1, 1).astype(M.data.dtype))
    return mul(M, col).data.reshape(-1)


# --------------------------------------------------------------- exhaustive

_EXHAUSTIVE_CAP = 2 ** 18


def _exhaustive_refusal(code) -> str | None:
    """Why exhaustive decoding refuses code, or None when it fits."""
    q = code.field.size
    if code.n > 24:
        return f"exhaustive decoding capped at n = 24, got {code.n}"
    if q ** code.k > _EXHAUSTIVE_CAP:
        return f"coset of {q}^{code.k} codewords is too large to enumerate"
    return None


def _check_exhaustive_size(code) -> None:
    reason = _exhaustive_refusal(code)
    if reason is not None:
        raise ValueError(reason)


# Per code: its factored check matrix, and its codewords when they fit in
# one _span_chunks chunk.  Keyed by the code object, which is frozen over
# write-protected matrices, so an entry lives exactly as long as its code.
_EXHAUSTIVE_CACHE = weakref.WeakKeyDictionary()


def _exhaustive_setup(code):
    setup = _EXHAUSTIVE_CACHE.get(code)
    if setup is None:
        table = None
        if code.field.size ** code.G.rows <= _SPAN_CHUNK:
            (table,) = _span_chunks(code.G)
        setup = _EXHAUSTIVE_CACHE[code] = (solver(code.H), table)
    return setup


def exhaustive_decode(code, s) -> DecodeOutcome:
    """Minimum-weight coset leader by full enumeration, lexicographic ties.

    Only intended for small codes; refuses n > 24 or more than 2^18 codewords.
    The check matrix is factored once per code (matgf.solver), and a code
    whose codewords fit in one _span_chunks chunk keeps them in a table, so
    repeated syndromes of one code pay only a product and a scan; larger
    codes enumerate their codewords on every call.
    """
    s = _as_vector(s)
    field = code.field
    q = field.size
    _check_exhaustive_size(code)
    factored, table = _exhaustive_setup(code)
    x0 = factored.solve(s)
    if x0 is None:
        return DecodeOutcome(DETECTED, np.zeros(code.n, dtype=np.uint8), {"cosets": 0})
    if code.k == 0:
        return DecodeOutcome(CORRECTED, x0, {"cosets": 1})

    add = _field_ops(field)[0]
    best_w = None
    best = None
    for cw in _span_chunks(code.G) if table is None else (table,):
        vecs = cw ^ x0 if q == 2 else add(cw, x0[None, :])
        weights = (vecs != 0).sum(axis=1)
        wmin = int(weights.min())
        if best_w is None or wmin <= best_w:
            cand = min(map(tuple, vecs[weights == wmin]))
            if best_w is None or (wmin, cand) < (best_w, best):
                best_w, best = wmin, cand
    est = np.array(best, dtype=x0.dtype)
    # est is x0 plus a codeword, so it is valid as it stands
    assert np.array_equal(mul(code.H, MatrixGF._wrap(field, est[:, None])).data[:, 0], s)
    return DecodeOutcome(CORRECTED, est, {"cosets": q ** code.k})


# ------------------------------------------------------------ bdd alternant

@functools.lru_cache(maxsize=64)
def _alternant_tables(field: FieldSpec, a: tuple, y: tuple, r: int):
    """Per alternant recipe: the r power rows, entry (j, i) being y_i·a_i^j,
    and the inverses of the points (None for a zero point)."""
    rows = tuple(tuple(field.mul(yi, field.pow(ai, j)) for ai, yi in zip(a, y))
                 for j in range(r))
    return rows, tuple(field.inv(ai) if ai else None for ai in a)


def grs_syndrome(field: FieldSpec, a: Sequence[int], y: Sequence[int], r: int, e) -> list[int]:
    """Extension-field syndrome of a base-field error against the power rows."""
    base = field.base_field()
    e = np.asarray(e).reshape(-1)
    active = [(i, field.embed(base, int(e[i]))) for i in np.flatnonzero(e).tolist()]
    syn = []
    for row in _alternant_tables(field, tuple(a), tuple(y), r)[0]:
        acc = 0
        for i, ev in active:
            acc = field.add(acc, field.mul(row[i], ev))
        syn.append(acc)
    return syn


def _bdd_single_error(code, field: FieldSpec, a, y, s0: int) -> DecodeOutcome:
    base = field.base_field()
    hits = []
    for i in range(code.n):
        val = field.mul(s0, field.inv(y[i]))
        try:
            ev = field.project(base, val)
        except ValueError:
            continue
        if ev:
            hits.append((i, ev))
    if len(hits) != 1:
        return DecodeOutcome(DETECTED, np.zeros(code.n, dtype=np.uint8), {"euclid_steps": 0})
    est = np.zeros(code.n, dtype=np.uint8)
    est[hits[0][0]] = hits[0][1]
    return DecodeOutcome(CORRECTED, est, {"euclid_steps": 0})


def bdd_alternant(code, s, t: int | None = None) -> DecodeOutcome:
    """Bounded-distance decoding from the extension-field syndrome.

    The syndrome s has one extension-field entry per power row.  The key
    equation is solved with the extended Euclidean algorithm, roots are
    searched over the evaluation points, and values come from the evaluator
    polynomial; anything inconsistent is reported detected-uncorrectable.
    """
    prov = code.provenance
    if prov.get("origin") != "alternant":
        raise ValueError("bdd decoding needs an alternant construction recipe")
    field: FieldSpec = prov["ext"]
    a = tuple(prov["a"])
    y = tuple(prov["y"])
    r = prov["r"]
    s = [int(v) for v in np.asarray(_as_vector(s))]
    if len(s) != r:
        raise ValueError(f"syndrome length {len(s)} does not match {r} power rows")
    if t is None:
        t = 1 if r == 1 else r // 2
    elif r >= 2 and t > r // 2:
        raise ValueError(f"requested radius {t} exceeds floor(r/2) = {r // 2}")

    n = code.n
    zeros = np.zeros(n, dtype=np.uint8)
    if not any(s):
        return DecodeOutcome(CORRECTED, zeros, {"euclid_steps": 0})
    if r == 1:
        return _bdd_single_error(code, field, a, y, s[0])

    # extended Euclid on (x^r, S), stopping below ceil(r/2)
    stop = -(-r // 2)
    r_prev = [0] * r + [1]
    r_cur = _ptrim(s)
    u_prev, u_cur = [0], [1]
    steps = 0
    while _pdeg(r_cur) >= stop:
        quo, rem = _pdivmod(field, r_prev, r_cur)
        u_next = _padd(field, u_prev, [field.neg(c) for c in _pmul(field, quo, u_cur)])
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, u_next
        steps += 1
        if _pdeg(r_cur) < 0:
            break

    sigma, omega = u_cur, r_cur
    detected = DecodeOutcome(DETECTED, zeros, {"euclid_steps": steps})
    if not sigma[0]:
        return detected
    scale = field.inv(sigma[0])
    sigma = _pscale(field, sigma, scale)
    omega = _pscale(field, omega, scale)
    nu = _pdeg(sigma)
    if nu > t:
        return detected

    inverses = _alternant_tables(field, a, y, r)[1]
    roots = [i for i, z in enumerate(inverses) if z is not None and _peval(field, sigma, z) == 0]
    if len(roots) != nu:
        return detected

    base = field.base_field()
    dsigma = _pderiv(field, sigma)
    est = zeros.copy()
    for i in roots:
        z = inverses[i]
        den = field.mul(y[i], _peval(field, dsigma, z))
        if not den:
            return detected
        val = field.neg(field.mul(field.mul(a[i], _peval(field, omega, z)), field.inv(den)))
        try:
            ev = field.project(base, val)
        except ValueError:
            return detected
        if not ev:
            return detected
        est[i] = ev

    syn = grs_syndrome(field, a, y, r, est)
    resid = [field.sub(sv, cv) for sv, cv in zip(s, syn)]
    if any(resid):
        # a zero evaluation point only shows up in the constant syndrome row
        z_idx = a.index(0) if 0 in a else None
        if (
            z_idx is None
            or est[z_idx]
            or any(resid[1:])
            or len(roots) + 1 > t
        ):
            return detected
        try:
            ev = field.project(base, field.mul(resid[0], field.inv(y[z_idx])))
        except ValueError:
            return detected
        if not ev:
            return detected
        est[z_idx] = ev
        syn = grs_syndrome(field, a, y, r, est)
    assert syn == s
    return DecodeOutcome(CORRECTED, est, {"euclid_steps": steps})


# ------------------------------------------------------------------- flip

def _flip_kernel(H: np.ndarray):
    """The sequential flip rule for a binary check matrix H (0/1 entries),
    set up once: returns rows(S, budget), which runs the rule on every row
    of a stack of syndromes S at once.

    Each step flips, in every row still running, the lowest-index bit whose
    unsatisfied incident checks form a strict majority.  A row stops when no
    such bit is left or once it has made budget flips.  Every flip lowers
    the row's unsatisfied count, so a row makes at most H.shape[0] flips.
    rows returns (estimates, flips, residual syndromes), one row per
    syndrome.
    """
    h = np.asarray(H, dtype=np.float32)
    half = h.sum(axis=0) / 2  # a strict majority of a bit's checks exceeds it
    ht = np.ascontiguousarray(h.T)  # a flipped bit's checks are one row of it

    def rows(S: np.ndarray, budget: float):
        unsat = np.array(S, dtype=np.float32)
        # unsatisfied checks of each (row, bit), from the rows of H of the
        # checks some syndrome leaves unsatisfied
        lit = np.flatnonzero(unsat.any(axis=0))
        count = unsat[:, lit] @ h[lit]
        est = np.zeros((len(S), h.shape[1]), dtype=np.uint8)
        flips = np.zeros(len(S), dtype=np.int64)
        active = np.flatnonzero(flips < budget)
        while active.size:
            majority = count[active] > half
            bit = majority.argmax(axis=1)
            found = majority[np.arange(active.size), bit]
            active, bit = active[found], bit[found]
            est[active, bit] ^= 1
            flips[active] += 1
            # the flipped bits' checks toggle; only their rows of H move a count
            toggled = ht[bit]
            changed = np.flatnonzero(toggled.any(axis=0))
            old = unsat[active]
            new = np.abs(old - toggled)
            unsat[active] = new
            count[active] += (new - old)[:, changed] @ h[changed]
            active = active[flips[active] < budget]
        return est, flips, unsat.astype(np.uint8)

    return rows


def flip_decode(code, s, max_rounds: int = 100, parallel: bool = False) -> DecodeOutcome:
    """Bit-flip decoding over a binary sparse check matrix.

    Sequential mode flips the lowest-index bit whose unsatisfied incident
    checks form a strict majority, one at a time, within a budget of
    max_rounds * n flips; parallel mode flips every such bit per round, for
    at most max_rounds rounds.  The counters are "flips" and, in parallel
    mode only, "rounds".  Non-convergence is reported as
    detected-uncorrectable with the residual syndrome attached.

    code is a binary code or its check matrix.  Sequential mode is the
    one-row case of _flip_kernel, the block kernel the Monte Carlo harness
    runs on every nonzero syndrome of a block of trials at once.

    What it does not guarantee: on graphs with 4-cycles (two bits sharing
    two checks), such as the (3, 6) outer graphs the harness and CLI ship,
    a bit can lose its strict majority to a neighbour, so even a weight-1
    error can be left uncorrected.  On the outer codes of
    fast_family(1024, 16, 3, 6, s), s = 0..3, 20-34% of weight-1 errors
    are.
    """
    H = getattr(code, "H", code)
    s = _as_vector(s).astype(np.uint8)
    _check_flip_syndrome(H, s.shape[0])
    n = H.cols

    if parallel:
        data = H.data != 0
        bit_edges, check_edges = np.nonzero(data.T)
        degree = data.sum(axis=0)
        unsat = s.copy()
        est = np.zeros(n, dtype=np.uint8)
        flips = rounds = 0
        while rounds < max_rounds and unsat.any():
            ucount = np.bincount(bit_edges, weights=unsat[check_edges], minlength=n)
            flip_mask = 2 * ucount > degree
            if not flip_mask.any():
                break
            est ^= flip_mask.astype(np.uint8)
            touched = check_edges[flip_mask[bit_edges]]
            unsat ^= (np.bincount(touched, minlength=H.rows) % 2).astype(np.uint8)
            flips += int(flip_mask.sum())
            rounds += 1
        counters = {"flips": flips, "rounds": rounds}
    else:
        est, flips, unsat = _flip_kernel(H.data)(s[None, :], max_rounds * n)
        est, unsat = est[0], unsat[0]
        counters = {"flips": int(flips[0])}
    return _flip_outcome(est, counters, unsat)


def _check_flip_syndrome(H: MatrixGF, length: int) -> None:
    """Raise the ValueError with which the flip decoder over check matrix H
    refuses a syndrome of the given length, if it does."""
    if H.q != 2:
        raise ValueError("flip decoding is defined over GF(2)")
    if length != H.rows:
        raise ValueError(f"syndrome length {length} does not match {H.rows} checks")


def _flip_outcome(est: np.ndarray, counters: dict, unsat: np.ndarray) -> DecodeOutcome:
    if unsat.any():
        return DecodeOutcome(DETECTED, est, counters, residual=unsat)
    return DecodeOutcome(CORRECTED, est, counters)


# ------------------------------------------------------------------ osmlg

def osmlg_block_decode(n0: int, s_block: np.ndarray) -> np.ndarray:
    """One-step majority decoding of a single repetition block.

    Exact whenever the block error has weight at most floor((n0-1)/2).
    """
    s = np.asarray(s_block).reshape(-1).astype(np.uint8)
    if s.shape[0] != n0 - 1:
        raise ValueError(f"block syndrome must have length {n0 - 1}")
    return _osmlg_rows(s[None, :], (n0 - 1) // 2)[0]


def _osmlg_rows(S: np.ndarray, d0: int) -> np.ndarray:
    """One-step majority decoding of a stack of block syndromes (uint8, one
    block per row): a row's block is flagged when more than d0 of its
    checks fire, and its estimate is the syndrome XOR the flag, then the
    flag as the last bit."""
    flag = (S.sum(axis=1) >= d0 + 1).astype(np.uint8)
    return np.concatenate([S ^ flag[:, None], flag[:, None]], axis=1)


# ------------------------------------------------------- two-sided decoder

def pccss_decode_x(Q, s_x, max_rounds: int = 100) -> DecodeOutcome:
    """X-side decoding: flip-decode the outer code, then place each recovered
    block parity on that block's representative (first) coordinate.  The
    one-row case of pccss_decode_x_rows.
    """
    return pccss_decode_x_rows(Q, _as_vector(s_x)[None, :], max_rounds=max_rounds)[0]


def _outer_decoder(Q, decoder: str, max_rounds: int):
    """The decoder of Q's outer code for one run: "flip", "exhaustive", or
    "auto" (exhaustive when the outer code fits its size cap, else flip).
    It decodes a stack of syndromes, one per row, and returns (estimates,
    flips, residual syndromes) with one row each; a row is corrected when
    its residual is zero.  The flip rule runs on every row at once
    (_flip_kernel), each row within max_rounds * (outer length) flips."""
    H = Q.outer.H
    if decoder == "auto":
        decoder = "flip" if _exhaustive_refusal(Q.outer) else "exhaustive"
    if decoder == "flip":
        flip_rows = _flip_kernel(H.data)
        return lambda S: flip_rows(S, max_rounds * H.cols)
    # refused here, since a run whose X syndromes are all zero never decodes
    _check_exhaustive_size(Q.outer)

    def decode_exhaustive(S):
        outs = [exhaustive_decode(Q.outer, s) for s in S]
        est = np.array([out.estimate != 0 for out in outs], dtype=np.uint8)
        refused = np.array([out.status != CORRECTED for out in outs], dtype=bool)
        # a refused syndrome keeps the zero estimate, so its residual is itself
        return est, np.zeros(len(outs), dtype=np.int64), S * refused[:, None]

    return decode_exhaustive


def pccss_decode_x_rows(Q, S, max_rounds: int = 100) -> list[DecodeOutcome]:
    """X-side decoding of a stack of syndromes, one per row: the outer code's
    flip decoder (_outer_decoder) runs on every row at once, and each row's
    block parities are placed on the blocks' representative (first)
    coordinates.  Returns one outcome per row, as flip_decode words it.
    """
    S = np.asarray(S, dtype=np.uint8)
    _check_flip_syndrome(Q.outer.H, S.shape[1])
    est, flips, unsat = _outer_decoder(Q, "flip", max_rounds)(S)
    lifted = np.zeros((len(S), Q.n), dtype=np.uint8)
    lifted[:, :: Q.n0] = est
    return [
        _flip_outcome(lifted[i], {"flips": int(flips[i])}, unsat[i]) for i in range(len(S))
    ]


def pccss_decode_z(Q, s_z) -> DecodeOutcome:
    """Z-side decoding: independent majority decoding of every block.  No
    block's estimate depends on another's, which is what lets the blocks
    decode in parallel."""
    _require_gf2(Q, "Z-side majority decoding")
    n0 = Q.n0
    n2 = Q.n // n0
    s = _as_vector(s_z).astype(np.uint8)
    if s.shape[0] != n2 * (n0 - 1):
        raise ValueError(
            f"syndrome length {s.shape[0]} does not match {n2 * (n0 - 1)} bits "
            f"({n2} blocks of {n0 - 1})"
        )
    blocks = _osmlg_rows(s.reshape(n2, n0 - 1), (n0 - 1) // 2)
    return DecodeOutcome(CORRECTED, blocks.reshape(-1), {"block_decodes": n2})
