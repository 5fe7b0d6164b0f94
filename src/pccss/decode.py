"""Syndrome decoders: exhaustive coset-leader search, bounded-distance
decoding of alternant codes, bit-flip decoding on sparse graphs, one-step
majority-logic for the repetition blocks, and the two-sided decoder for the
product-construction CSS family.  What a decoder keeps per code lives in
one memo, _per_code, freed with the code; the two-sided decoder's outer
decoders are named once, in _OUTER_DECODERS.

Status vocabulary for every decoder: "corrected" means the returned estimate
reproduces the input syndrome exactly; "detected-uncorrectable" means the
decoder gave up with a certificate (non-convergence, inconsistent locator,
out-of-field value).
"""
from __future__ import annotations

import functools
import operator
import weakref
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .galois import GF2, FieldSpec
from .matgf import (_SPAN_CHUNK, MatrixGF, _column, _field_ops, _pack_rows, _span_chunks,
                    _unpack_rows, mul, solver)

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
    return mul(M, _column(M.field, e)).data.reshape(-1)


# Per code object, what each builder made of it; an entry lives as long as
# its code, so it must not refer to the code.
_MEMO = weakref.WeakKeyDictionary()


def _per_code(code, build):
    """build(code), made once per code.  build is a private module-level
    function: a lambda or closure made per call misses every time."""
    entries = _MEMO.setdefault(code, {})
    if build not in entries:
        entries[build] = build(code)
    return entries[build]


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


def _exhaustive_tables(code):
    """A code's factored checks and codewords, for _per_code.  A binary code
    packs each codeword into one word, position 0 the most significant of n
    bits, so numeric order is lexicographic order; any other code keeps its
    codewords when they fit in one _span_chunks chunk."""
    table = bits = None
    if code.field.size == 2:
        bits = np.uint32(1) << np.arange(code.n - 1, -1, -1, dtype=np.uint32)
        table = np.concatenate([cw @ bits for cw in _span_chunks(code.G)])
    elif code.field.size ** code.G.rows <= _SPAN_CHUNK:
        (table,) = _span_chunks(code.G)
    return solver(code.H), table, bits


def exhaustive_decode(code, s) -> DecodeOutcome:
    """Minimum-weight coset leader by full enumeration, lexicographic ties.

    Only intended for small codes; refuses n > 24 or more than 2^18 codewords.
    The check matrix is factored once per code (matgf.solver).  A binary
    code scans its packed codewords (see _exhaustive_tables): each coset word
    is one XOR with the packed x0, and one min over (weight, word) keys
    picks the lightest, lexicographically first.  Other codes keep their
    codewords when they fit in one _span_chunks chunk and enumerate them on
    every call otherwise.
    """
    s = _as_vector(s)
    field = code.field
    q = field.size
    if reason := _exhaustive_refusal(code):
        raise ValueError(reason)
    factored, table, bits = _per_code(code, _exhaustive_tables)
    x0 = factored.solve(s)
    if x0 is None:
        return DecodeOutcome(DETECTED, np.zeros(code.n, dtype=np.uint8), {"cosets": 0})
    if code.k == 0:
        return DecodeOutcome(CORRECTED, x0, {"cosets": 1})

    if q == 2:
        coset = table ^ (x0 @ bits)
        # the weight sits above the n word bits, so the least key is the best
        key = int(((np.bitwise_count(coset).astype(np.uint32) << code.n) | coset).min())
        est = (bits & key != 0).view(np.uint8)
    else:
        add = _field_ops(field)[0]
        best_w = None
        best = None
        for cw in _span_chunks(code.G) if table is None else (table,):
            vecs = add(cw, x0[None, :])
            weights = (vecs != 0).sum(axis=1)
            wmin = int(weights.min())
            if best_w is None or wmin <= best_w:
                cand = min(map(tuple, vecs[weights == wmin]))
                if best_w is None or (wmin, cand) < (best_w, best):
                    best_w, best = wmin, cand
        est = np.array(best, dtype=x0.dtype)
    # est is x0 plus a codeword, so it is valid as it stands
    assert not np.count_nonzero(mul(code.H, MatrixGF._wrap(field, est[:, None])).data[:, 0] != s)
    return DecodeOutcome(CORRECTED, est, {"cosets": q ** code.k})


# ------------------------------------------------------------ bdd alternant
# Polynomials here are lists of extension-field elements, lowest power
# first, trimmed of high zero coefficients (the zero polynomial is []).
# Products go through the field's exp/log lists, bound once per code.

@functools.lru_cache(maxsize=64)
def _alternant_tables(field: FieldSpec, a: tuple, y: tuple, r: int):
    """Per alternant recipe, what its syndromes and decoder read, as plain
    lists: the r power rows, entry (j, i) being y_i·a_i^j; the inverses of
    the points (None for a zero point); the field's (exp, log) lists; the
    Chien rows, entry (k, i) being log((1/a_i)^k) for k <= r/2 (0 at a
    zero point); and the base field's embedding list and projection dict."""
    rows = field.power_rows(a, y, r)
    inverses = tuple(field.inv(ai) if ai else None for ai in a)
    exp, log = field._tables()
    chien = tuple(tuple(k * log[z] % (field.size - 1) if z else 0 for z in inverses)
                  for k in range(r // 2 + 1))
    return rows, inverses, exp, log, chien, *field._subfield_maps(field.base_field())


def _add_sub(field: FieldSpec):
    """field's addition and subtraction, as XOR in characteristic 2."""
    return (operator.xor, operator.xor) if field.p == 2 else (field.add, field.sub)


def _grs(field: FieldSpec, rows, emb, errors) -> list[int]:
    """The syndrome against the power rows of the base-field error whose
    nonzero entries are the (position, value) pairs errors, each value
    embedded through emb."""
    add, mul = _add_sub(field)[0], field.mul
    syn = [0] * len(rows)
    for i, v in errors:
        ev = emb[v]
        syn = [add(acc, mul(row[i], ev)) for acc, row in zip(syn, rows)]
    return syn


def grs_syndrome(field: FieldSpec, a: Sequence[int], y: Sequence[int], r: int, e) -> list[int]:
    """Extension-field syndrome of a base-field error against the power rows."""
    rows, *_, emb, _ = _alternant_tables(field, tuple(a), tuple(y), r)
    base = field.base_field()
    errors = [(i, base._check(int(v))) for i, v in enumerate(_as_vector(e).tolist()) if v]
    return _grs(field, rows, emb, errors)


def _bdd_context(code):
    """An alternant code's (field, points, multipliers, r, its
    _alternant_tables), read from its recipe, for _per_code."""
    prov = code.provenance
    if prov.get("origin") != "alternant":
        raise ValueError("bdd decoding needs an alternant construction recipe")
    field, a, y, r = prov["ext"], tuple(prov["a"]), tuple(prov["y"]), prov["r"]
    return field, a, y, r, _alternant_tables(field, a, y, r)


def _key_equation(s: list[int], r: int, exp, log, sub) -> tuple[list, list, int]:
    """Sugiyama's extended Euclid on (x^r, S), S the syndrome polynomial,
    stopping once the remainder's degree falls below ceil(r/2): returns
    (sigma, omega, steps) with sigma·S = omega mod x^r, steps counting the
    divisions."""
    m = len(log) - 1
    stop = -(-r // 2)
    r_prev = [0] * r + [1]
    r_cur = list(s)
    while r_cur and not r_cur[-1]:
        r_cur.pop()
    u_prev, u_cur = [], [1]
    steps = 0
    while len(r_cur) > stop:
        # r_prev = quo·r_cur + rem, then u_next = u_prev - quo·u_cur
        dv = len(r_cur) - 1
        lead = log[r_cur[-1]]
        rem = r_prev[:]
        quo = [0] * (len(rem) - dv)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + dv]
            if c:
                lc = (log[c] - lead) % m
                quo[i] = exp[lc]
                for j, b in enumerate(r_cur, i):
                    if b:
                        rem[j] = sub(rem[j], exp[lc + log[b]])
        u_next = u_prev + [0] * (len(quo) + len(u_cur) - 1 - len(u_prev))
        for i, c in enumerate(quo):
            if c:
                for j, b in enumerate(u_cur, i):
                    if b:
                        u_next[j] = sub(u_next[j], exp[log[c] + log[b]])
        for poly in (rem, u_next):
            while poly and not poly[-1]:
                poly.pop()
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, u_next
        steps += 1
    return u_cur, r_cur, steps


def bdd_alternant(code, s, t: int | None = None) -> DecodeOutcome:
    """Bounded-distance decoding from the extension-field syndrome.

    The syndrome s has one extension-field entry per power row.  The key
    equation is solved with the extended Euclidean algorithm, roots are
    searched over the evaluation points, and values come from the evaluator
    polynomial; anything inconsistent is reported detected-uncorrectable.
    The code's recipe and tables are read once per code (_bdd_context), and
    the root search evaluates sigma at every point at once, a log-table row
    per coefficient.
    """
    field, a, y, r, (rows, inverses, exp, log, chien, emb, proj) = _per_code(code, _bdd_context)
    s = [int(v) for v in _as_vector(s).tolist()]
    if len(s) != r:
        raise ValueError(f"syndrome length {len(s)} does not match {r} power rows")
    for v in s:
        if not 0 <= v < field.size:
            raise ValueError(f"entry {v} out of range for {field}")
    if t is None:
        t = 1 if r == 1 else r // 2
    elif r >= 2 and t > r // 2:
        raise ValueError(f"requested radius {t} exceeds floor(r/2) = {r // 2}")

    zeros = np.zeros(code.n, dtype=np.uint8)
    if not any(s):
        return DecodeOutcome(CORRECTED, zeros, {"euclid_steps": 0})
    (add, sub), mul = _add_sub(field), field.mul
    m = field.size - 1
    steps = 0

    def detected():
        return DecodeOutcome(DETECTED, zeros, {"euclid_steps": steps})

    if r == 1:
        # one error, at the one point where s/y_i lies in the base field
        errors = [(i, ev) for i, yi in enumerate(y) if (ev := proj.get(mul(s[0], field.inv(yi))))]
        if len(errors) != 1:
            return detected()
    else:
        sigma, omega, steps = _key_equation(s, r, exp, log, sub)
        if not sigma[0] or len(sigma) - 1 > t:
            return detected()
        scale = m - log[sigma[0]]
        sigma = [exp[log[c] + scale] if c else 0 for c in sigma]
        omega = [exp[log[c] + scale] if c else 0 for c in omega]

        # Chien search: sigma at every inverse point, one table row per term
        vals = [1] * code.n
        for c, row in zip(sigma[1:], chien[1:]):
            if c:
                lc = log[c]
                vals = list(map(add, vals, [exp[lc + lz] for lz in row]))
        roots = [i for i, v in enumerate(vals) if not v and inverses[i] is not None]
        if len(roots) != len(sigma) - 1:
            return detected()

        def at(poly, i):  # poly at 1/a_i, through the Chien rows
            acc = 0
            for c, row in zip(poly, chien):
                if c:
                    acc = add(acc, exp[log[c] + row[i]])
            return acc

        # Forney: e_i = -a_i·omega(1/a_i) / (y_i·sigma'(1/a_i))
        dsigma = [mul(c, k % field.p) for k, c in enumerate(sigma[1:], 1)]
        errors = []
        for i in roots:
            den, num = at(dsigma, i), at(omega, i)
            # no syndrome gets here: the roots are simple (as many as
            # sigma's degree), so sigma' is nonzero at them, and omega shares
            # no root with sigma (their gcd divides x^r); a guard on the key
            # equation all the same
            if not den or not num:
                return detected()
            ev = proj.get(field.neg(exp[(log[a[i]] + log[num] - log[y[i]] - log[den]) % m]))
            if not ev:  # None outside the base field
                return detected()
            errors.append((i, ev))

    syn = _grs(field, rows, emb, errors)
    resid = list(map(sub, s, syn))
    if any(resid):
        # a zero evaluation point only shows up in the constant syndrome row,
        # and the root search never finds it
        z_idx = a.index(0) if 0 in a else None
        if z_idx is None or any(resid[1:]) or len(errors) + 1 > t:
            return detected()
        ev = proj.get(mul(resid[0], field.inv(y[z_idx])))
        if not ev:
            return detected()
        errors.append((z_idx, ev))
        syn = _grs(field, rows, emb, errors)
    assert syn == s
    est = zeros.copy()
    for i, ev in errors:
        est[i] = ev
    return DecodeOutcome(CORRECTED, est, {"euclid_steps": steps})


# ------------------------------------------------------------------- flip
# The flip rule runs on bit lanes: row 64w + i of a stack of syndromes is
# bit i of word w, so one uint64 word carries 64 syndromes and every numpy
# step works on all of them.  The lane words of a stack S are matgf's
# packed rows of S.T: entry (j, w) holds column j of rows 64w .. 64w + 63.


def _padded(owner: np.ndarray, member: np.ndarray, count: int, fill: int) -> np.ndarray:
    """The members of each of count owners as one row each, of shape
    (count, largest membership), from (owner, member) pairs sorted by owner;
    short rows are padded with fill."""
    weight = np.bincount(owner, minlength=count)
    out = np.full((count, weight.max(initial=0)), fill, dtype=np.intp)
    out[owner, np.arange(owner.size) - (np.cumsum(weight) - weight)[owner]] = member
    return out


class _FlipKernel:
    """The flip rule on a Tanner graph of r checks and n bits, given by its
    (check, bit) edges sorted by check, then bit, as _edges lists them,
    and held once as edge arrays:

    - checks, check to bit, of shape (largest check degree, r): column j
      lists check j's bits, padded with n, the index of a zero bit word;
    - bits, bit to check, of shape (largest bit degree, n): column i lists
      bit i's checks, padded so that one threshold tests every bit's
      majority.

    A bit of degree c has a strict majority of unsatisfied checks when at
    least c // 2 + 1 of them are.  Its check list is padded to the largest
    degree C with C // 2 - c // 2 pointers to an all-ones word and the rest
    to a zero word, so that test becomes "at least C // 2 + 1 of its C
    words", whatever c is, zero and even degrees included.
    """

    def __init__(self, check: np.ndarray, bit: np.ndarray, shape: tuple[int, int]):
        r, n = shape
        self.shape = (r, n)
        self.checks = np.ascontiguousarray(_padded(check, bit, r, n).T)
        order = np.argsort(bit, kind="stable")
        bits = _padded(bit[order], check[order], n, r)
        c = bits.shape[1]
        degree = np.bincount(bit, minlength=n)[:, None]
        bits[(bits == r) & (np.arange(c) < degree + c // 2 - degree // 2)] = r + 1
        self.bits = np.ascontiguousarray(bits.T)
        self.threshold = k = c // 2 + 1
        # the (word, j) updates of _majority's recurrence, in order: T[j]
        # is kept only while the words left can still lift it to k
        self._plan = [(i, j) for i in range(c) for j in range(min(i + 1, k), max(0, k - c + i), -1)]

    def _majority(self, unsat: np.ndarray) -> np.ndarray:
        """Lane words, one per bit, set where the bit's unsatisfied checks
        form a strict majority.  unsat holds the check words, then a zero
        and an all-ones word.  T[j] marks the lanes where at least j of the
        words seen so far are set (T[j] |= T[j-1] & x)."""
        words = unsat.take(self.bits, axis=0)
        k = self.threshold
        T = [None] * (k + 1)
        for i, j in self._plan:
            step = words[i] if j == 1 else T[j - 1] & words[i]
            T[j] = step if T[j] is None else T[j] | step
        return np.zeros(words.shape[1:], dtype=np.uint64) if T[k] is None else T[k]

    def run(self, S: np.ndarray, budget: float, parallel: bool = False):
        """The flip rule on every row of a stack of syndromes S at once.

        Each step flips, in every row still running, the lowest-index bit
        whose unsatisfied checks form a strict majority, or every such bit
        in parallel mode.  A row stops when no such bit is left: its state
        no longer changes.  The run ends once every row has stopped or
        after budget steps.  Returns (estimates, flips, steps, residual
        syndromes), one row per syndrome; a row's steps are the steps in
        which it flipped, equal to its flips in sequential mode.
        """
        rows = len(S)
        r, n = self.shape
        words = -(-rows // 64)
        unsat = np.zeros((r + 2, words), dtype=np.uint64)
        unsat[:r] = _pack_rows(np.asarray(S, dtype=np.uint8).T)
        unsat[r + 1] = ~np.uint64(0)
        live = _pack_rows(np.ones((1, rows), dtype=np.uint8))[0]
        est = np.zeros((n, words), dtype=np.uint64)
        # the bits flipped in a step, then the zero word checks' padding reads
        flip = np.zeros((n + 1, words), dtype=np.uint64)
        stepped = []
        flips = np.zeros(rows, dtype=np.int64)
        while len(stepped) < budget and live.any():
            majority = self._majority(unsat) & live
            if parallel:
                flip[:n] = majority
                live = np.bitwise_or.reduce(majority, axis=0)
                flips += _unpack_rows(majority, rows).sum(axis=0, dtype=np.int64)
            else:
                # a running OR over the bits turns on at each row's lowest
                # majority bit
                seen = np.bitwise_or.accumulate(majority, axis=0)
                flip[0] = seen[0]
                np.bitwise_xor(seen[1:], seen[:-1], out=flip[1:n])
                # a copy: stepped keeps it, and a view would keep all of seen
                live = seen[-1].copy()
            est ^= flip[:n]
            unsat[:r] ^= np.bitwise_xor.reduce(flip.take(self.checks, axis=0), axis=0)
            stepped.append(live)
        steps = _unpack_rows(np.array(stepped, dtype=np.uint64).reshape(len(stepped), words), rows)
        steps = steps.sum(axis=0, dtype=np.int64)
        if not parallel:
            flips = steps
        return _unpack_rows(est, rows).T, flips, steps, _unpack_rows(unsat[:r], rows).T

    def __call__(self, S: np.ndarray, budget: float):
        """The sequential rule on a stack of syndromes, within budget flips
        per row: (estimates, flips, residual syndromes).  Every flip lowers
        a row's unsatisfied count, so a row makes at most r flips."""
        est, flips, _, unsat = self.run(S, budget)
        return est, flips, unsat


def _edges(H: np.ndarray):
    """The (check, bit) edges of the Tanner graph of a check matrix H (0/1
    entries of any dtype), sorted by check, then bit, and its shape: the
    arguments of _FlipKernel."""
    return *np.divmod(np.flatnonzero(H), H.shape[1]), H.shape


def _flip_kernel(code) -> _FlipKernel:
    """The flip kernel of a binary code, for _per_code: from the edges of
    its graph when it has one (make_expander's codes), so that its dense H
    is never formed, else from the nonzeros of H."""
    graph = code.graph
    if graph is None:
        return _FlipKernel(*_edges(code.H.data))
    right = np.array(graph.right, dtype=np.intp)
    check = np.repeat(np.arange(graph.r), right.shape[1])
    return _FlipKernel(check, right.reshape(-1), (graph.r, graph.n))


def flip_decode(code, s, max_rounds: int = 100, parallel: bool = False) -> DecodeOutcome:
    """Bit-flip decoding over a binary sparse check matrix.

    Sequential mode flips the lowest-index bit whose unsatisfied incident
    checks form a strict majority, one at a time, within a budget of
    max_rounds * n flips; parallel mode flips every such bit per round, for
    at most max_rounds rounds.  The counters are "flips" and, in parallel
    mode only, "rounds".  Non-convergence is reported as
    detected-uncorrectable with the residual syndrome attached.

    code is a binary code or its check matrix.  Both modes are the one-row
    case of the code's _FlipKernel, which the Monte Carlo harness runs on
    every nonzero syndrome of a decode group at once.

    What it does not guarantee: on graphs with 4-cycles (two bits sharing
    two checks), such as the (3, 6) outer graphs the harness and CLI ship,
    a bit can lose its strict majority to a neighbour, so even a weight-1
    error can be left uncorrected.  On the outer codes of
    fast_family(1024, 16, 3, 6, s), s = 0..3, 20-34% of weight-1 errors
    are.
    """
    _check_round_cap(max_rounds)
    s = _as_vector(s).astype(np.uint8)
    if isinstance(code, MatrixGF):
        kernel = _FlipKernel(*_edges(code.data))
    else:
        kernel = _per_code(code, _flip_kernel)
    _check_flip_syndrome(code.q, kernel.shape[0], s.shape[0])
    if parallel:
        est, flips, rounds, unsat = kernel.run(s[None, :], max_rounds, parallel=True)
        counters = {"flips": int(flips[0]), "rounds": int(rounds[0])}
    else:
        est, flips, unsat = kernel(s[None, :], max_rounds * kernel.shape[1])
        counters = {"flips": int(flips[0])}
    return _flip_outcome(est[0], counters, unsat[0])


def _check_round_cap(max_rounds: int) -> None:
    """Refuse a round cap that is not positive (a cap of 1/n buys one flip)."""
    if not max_rounds > 0:
        raise ValueError(f"round cap must be >= 1, got {max_rounds}")


def _check_flip_syndrome(q: int, checks: int, length: int) -> None:
    """Raise the ValueError with which the flip decoder over a GF(q) code of
    the given number of checks refuses a syndrome of the given length, if
    it does."""
    if q != 2:
        raise ValueError("flip decoding is defined over GF(2)")
    if length != checks:
        raise ValueError(f"syndrome length {length} does not match {checks} checks")


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


def _flip_outer(outer, max_rounds: int):
    """The outer code's _FlipKernel, within max_rounds * n flips per row."""
    kernel = _per_code(outer, _flip_kernel)
    return lambda S: kernel(S, max_rounds * outer.n)


def _exhaustive_outer(outer, max_rounds: int):
    """exhaustive_decode row by row, refusing a code too large for it here,
    since a run whose X syndromes are all zero never decodes."""
    if reason := _exhaustive_refusal(outer):
        raise ValueError(reason)

    def decode_exhaustive(S):
        outs = [exhaustive_decode(outer, s) for s in S]
        est = np.array([out.estimate != 0 for out in outs], dtype=np.uint8)
        refused = np.array([out.status != CORRECTED for out in outs], dtype=bool)
        # a refused syndrome keeps the zero estimate, so its residual is itself
        return est, np.zeros(len(outs), dtype=np.int64), S * refused[:, None]

    return decode_exhaustive


# The only list of outer decoders: name -> builder(outer code, round cap)
_OUTER_DECODERS = {"flip": _flip_outer, "exhaustive": _exhaustive_outer}


def _outer_decoder(Q, decoder: str, max_rounds: int):
    """The decoder of Q's outer code for one run: a name in _OUTER_DECODERS,
    or "auto" (exhaustive when the outer code fits its size cap, else flip).
    It maps a stack of syndromes to (estimates, flips, residual syndromes),
    a row each; a row is corrected when its residual is zero."""
    _known_decoder(decoder)
    _check_round_cap(max_rounds)
    if decoder == "auto":
        decoder = "flip" if _exhaustive_refusal(Q.outer) else "exhaustive"
    return _OUTER_DECODERS[decoder](Q.outer, max_rounds)


def _known_decoder(decoder: str) -> None:
    """Refuse a decoder name that is neither in _OUTER_DECODERS nor "auto"."""
    if decoder != "auto" and decoder not in _OUTER_DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")


def pccss_decode_x_rows(Q, S, max_rounds: int = 100) -> list[DecodeOutcome]:
    """X-side decoding of a stack of syndromes, one per row: the outer code's
    flip decoder (_flip_outer) runs on every row at once, and each row's
    block parities are placed on the blocks' representative (first)
    coordinates.  Returns one outcome per row, as flip_decode words it.
    """
    _check_round_cap(max_rounds)
    S = np.asarray(S, dtype=np.uint8)
    checks = _per_code(Q.outer, _flip_kernel).shape[0]
    _check_flip_syndrome(Q.outer.field.size, checks, S.shape[1])
    est, flips, unsat = _flip_outer(Q.outer, max_rounds)(S)
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
