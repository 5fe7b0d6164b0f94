"""Quantum code constructions: CSS pairs, the partially concatenated family,
Steane-style enlargement, validity reports, and brute-force degenerate
distance oracles.

Check-matrix convention throughout: hx multiplies X-error vectors and hz
multiplies Z-error vectors, so commutation is hx · hzᵀ = 0 and the degenerate
X distance is the minimum weight over null(hx) \\ rowspace(hz).

A code that carries a block length n0 has hz exactly I ⊗ [I | 1], the checks
of n/n0 repetition blocks: block b's row i has ones at columns b·n0 + i and
b·n0 + n0 - 1.  CssCode enforces this whenever hz is given as a matrix
(fast_family builds it in that form), and the block decoders rely on it.
Then, for any matrix a, a · hzᵀ adds the last column of each block of a to
the block's other columns (_hz_products), so check_valid reads the
commutator off hx without forming hz.  When it is zero, every column of a
block of hx is minus the block's last column (over GF(2), hx is constant on
each block), so rank(hx) = rank(hx[:, ::n0]) and k = n/n0 - rank(hx[:, ::n0]).
A code whose hx is built lazily from its outer code (fast_family) has hx
= outer.H lifted over the blocks by construction, so check_valid forms
neither hx nor the commutator and takes rank(hx) = rank(outer.H) from the
outer code.  That reads outer.k, and so forms the outer G, which a
fast_family code otherwise forms only when a caller reads k, outer.G or
outer.H: the decoders read the outer graph alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field as dc_field

import numpy as np

from .codes import LinearCode, _from_checks, _Lazy, lift_block, make_expander, make_repetition
from .galois import GF2, FieldSpec, _prime_factors, is_irreducible
from .matgf import (
    MatrixGF,
    _field_ops,
    _pack_rows,
    bundle_columns,
    bundle_header,
    bundle_key,
    bundle_line,
    hstack,
    identity,
    kron,
    mat_to_text,
    mul,
    nullspace,
    rank,
    rref,
    take_matrix,
    vstack,
    zeros,
)

__all__ = [
    "CssCode",
    "StabilizerCode",
    "ValidityReport",
    "make_css",
    "make_pccss",
    "fast_family",
    "make_enlarged",
    "check_valid",
    "check_valid_stabilizer",
    "distance_css",
    "distance_stabilizer",
    "counting_check",
    "counting_check_enlarged",
    "css_to_text",
    "css_from_text",
    "stab_to_text",
    "stab_from_text",
]


class CssCode:
    """A CSS code held as its two check matrices.

    hx, hz and k may each be passed as a value or as a builder, a function
    of the code (codes._Lazy, as LinearCode's G, H and k); a builder runs
    on first access, so large structured families never pay for a matrix,
    or an elimination, the caller does not touch.  A code with n0 and outer
    whose hx is a builder must build outer.H with each column repeated over
    a block of n0 (fast_family's hx); check_valid relies on it and never
    builds hx.
    """

    hx = _Lazy()
    hz = _Lazy()
    k = _Lazy()

    def __init__(
        self,
        n: int,
        hx,
        hz,
        k=None,
        n0: int | None = None,
        outer: LinearCode | None = None,
        graph=None,
        d_x: int | None = None,
        d_z: int | None = None,
        d_method: str | None = None,
        field: FieldSpec | None = None,
        provenance: dict | None = None,
        validate: bool = True,
    ):
        self.n = n
        self.hx, self.hz = hx, hz
        self.field = field or (self._hx.field if self._hx is not None else GF2)
        self.n0 = n0
        self.outer = outer
        self.graph = graph
        self.d_x = d_x
        self.d_z = d_z
        self.d_method = d_method
        self.provenance = provenance or {}
        if n0 is not None and self._hz is not None:
            _check_block_hz(self._hz, n0)
        self.k = n - rank(self.hx) - rank(self.hz) if k is None else k
        if validate:
            report = check_valid(self)
            if not report.ok:
                raise ValueError(report.messages[0])
            if n <= 26:
                for side, claimed in (("x", d_x), ("z", d_z)):
                    if claimed is not None and distance_css(self, side) != claimed:
                        raise ValueError(f"claimed d_{side} = {claimed} fails re-verification")
        # drop what k or validation built from a builder: a large code keeps
        # only the matrices its users touch (a dense 2^16 hx is 128 MB)
        if self._hx_builder is not None:
            self._hx = None
        if self._hz_builder is not None:
            self._hz = None

    def __repr__(self):
        return f"CssCode([[{self.n}, {self.k}]], q={self.field.size})"


@dataclass(eq=False)
class StabilizerCode:
    """Stabilizer generators as symplectic rows (x-part | z-part)."""

    n: int
    gens: MatrixGF
    k: int
    d: int | None = None
    d_method: str | None = None
    provenance: dict = dc_field(default_factory=dict)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True):
        if validate:
            report = check_valid_stabilizer(self)
            if not report.ok:
                raise ValueError(report.messages[0])


# ----------------------------------------------------------- constructions

def make_css(c1: LinearCode, c2: LinearCode) -> CssCode:
    """CSS pair: hz from c1, hx from c2; needs the dual of c2 inside c1."""
    if c1.field != c2.field or c1.n != c2.n:
        raise ValueError("component codes must share field and length")
    prod = mul(c1.H, c2.H.T)
    if prod.data.any():
        j = int(np.argwhere(prod.data)[0][1])
        witness = tuple(int(v) for v in c2.H.data[j])
        raise ValueError(f"dual containment fails, witness {witness}")
    return CssCode(
        n=c1.n,
        hx=c2.H,
        hz=c1.H,
        k=c1.k + c2.k - c1.n,
        field=c1.field,
        provenance={"construction": "css"},
    )


def make_pccss(c1: LinearCode, c2: LinearCode) -> CssCode:
    """Partial concatenation: hx = H2·G1 over the inner information symbols,
    hz = H1; commutation is automatic from G1·H1ᵀ = 0.
    """
    if c2.n != c1.k:
        raise ValueError(f"outer code length {c2.n} must equal inner dimension {c1.k}")
    hx = mul(c2.H, c1.G)
    n0 = None
    inner_prov = c1.provenance.get("inner", {})
    if c1.provenance.get("origin") == "lift" and inner_prov.get("origin") == "repetition":
        n0 = inner_prov["n0"]
    return CssCode(
        n=c1.n,
        hx=hx,
        hz=c1.H,
        k=c2.k,
        n0=n0,
        outer=c2,
        field=c1.field,
        provenance={"construction": "pccss"},
    )


def fast_family(N: int, n0: int, c: int, d: int, seed: int, validate: bool = True) -> CssCode:
    """The asymmetric family: lifted repetition blocks inside, a random
    sparse-graph code outside.  Only the outer graph is built here: hx, hz
    and k (which reads outer.k) are built on first read, as are the outer
    code's G, H and k (make_expander), because at large N only the decoders
    run, and they read the block structure and the outer graph alone.
    validate=True reads k, and so forms the outer G.
    """
    if n0 < 2 or N % n0:
        raise ValueError(f"block length {n0} must divide N = {N}")
    outer, graph = make_expander(N // n0, c, d, seed)
    return CssCode(
        n=N,
        hx=_lifted_outer_checks,
        hz=_block_checks,
        k=_outer_k,
        n0=n0,
        outer=outer,
        graph=graph,
        field=GF2,
        provenance={"construction": "fast-family", "c": c, "d": d, "seed": seed},
        validate=validate,
    )


# The builders of a fast_family code's hx, hz and k (see CssCode)

def _lifted_outer_checks(q: CssCode) -> MatrixGF:
    return MatrixGF(GF2, np.repeat(q.outer.H.data, q.n0, axis=1))


def _block_checks(q: CssCode) -> MatrixGF:
    return kron(identity(GF2, q.n // q.n0), make_repetition(q.n0).H)


def _outer_k(q: CssCode) -> int:
    return q.outer.k


# ------------------------------------------------------------- enlargement

def _primitive_poly(deg: int) -> list[int]:
    order = (1 << deg) - 1
    primes = _prime_factors(order)
    for enc in range(1 << deg, 1 << (deg + 1)):
        coeffs = [(enc >> i) & 1 for i in range(deg + 1)]
        if coeffs[0] == 0 or not is_irreducible(coeffs, 2):
            continue
        f = FieldSpec(2, 1, deg, modulus=tuple(coeffs))
        if all(f.pow(2, order // p) != 1 for p in primes):
            return coeffs
    raise RuntimeError(f"no primitive polynomial of degree {deg}")


def _companion(field: FieldSpec, coeffs: list[int]) -> MatrixGF:
    deg = len(coeffs) - 1
    a = np.zeros((deg, deg), dtype=np.uint8)
    for i in range(1, deg):
        a[i, i - 1] = 1
    for i in range(deg):
        a[i, deg - 1] = coeffs[i] % field.p
    return MatrixGF(field, a)


def make_enlarged(c1: LinearCode, c2: LinearCode, seed: int = 0, attempts: int = 2000) -> StabilizerCode:
    """Enlarge the CSS code of a dual-containing c1 by the supercode cut out
    by c2's checks acting through H1.  Quotient generators are paired through
    a fixed-point-free companion matrix; a commuting coset-representative
    shift is searched for and the result verified numerically.
    """
    field = c1.field
    if field.size != 2:
        raise NotImplementedError("enlargement implemented over GF(2)")
    n1, k1 = c1.n, c1.k
    prod = mul(c1.H, c1.H.T)
    if prod.data.any():
        i = int(np.argwhere(prod.data)[0][0])
        witness = tuple(int(v) for v in c1.H.data[i])
        raise ValueError(f"not dual-containing, witness {witness}")
    if c2.n != n1 - k1:
        raise ValueError(f"second code length {c2.n} must equal {n1 - k1}")

    h3 = mul(c2.H, c1.H)
    rr3 = rref(h3)
    h3b = MatrixGF(field, rr3.matrix.data[: rr3.rank])
    k3 = n1 - rr3.rank
    kq = k3 - k1
    if kq < 2:
        raise ValueError(f"quotient dimension {kq} must exceed 1")

    g3 = nullspace(h3b)
    e_rows: list[np.ndarray] = []
    span = c1.G
    for row in g3.data:
        cand = vstack([span, MatrixGF(field, row.reshape(1, -1))])
        if rank(cand) > rank(span):
            e_rows.append(row)
            span = cand
        if len(e_rows) == kq:
            break
    if len(e_rows) < kq:
        raise RuntimeError("quotient basis extraction failed")
    e0 = np.array(e_rows, dtype=np.uint8)

    a_mat = _companion(field, _primitive_poly(kq))
    rng = np.random.default_rng(seed)
    e_cur = None
    for attempt in range(attempts):
        if attempt == 0:
            shifted = e0
        else:
            r = MatrixGF(field, rng.integers(0, 2, size=(kq, k1)).astype(np.uint8))
            shifted = e0 ^ mul(r, c1.G).data
        em = MatrixGF(field, shifted)
        m = mul(em, em.T)
        if mul(m, a_mat.T) != mul(a_mat, m):
            continue
        # a qubit missed by both the product checks and the paired rows
        # would admit an undetectable weight-1 error
        if not np.vstack([h3b.data, shifted]).any(axis=0).all():
            continue
        e_cur = em
        break
    if e_cur is None:
        raise RuntimeError(f"no admissible representative shift in {attempts} attempts")

    r3 = h3b.rows
    pad = zeros(field, r3, n1)
    gens = vstack(
        [
            hstack([h3b, pad]),
            hstack([pad, h3b]),
            hstack([e_cur, mul(a_mat, e_cur)]),
        ]
    )
    k = n1 - rank(gens)
    if k != 2 * k1 + kq - n1:
        raise RuntimeError(f"rank bookkeeping broke: k = {k}")
    return StabilizerCode(
        n=n1,
        gens=gens,
        k=k,
        provenance={"construction": "enlarged", "seed": seed},
    )


# ---------------------------------------------------------------- validity

@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    messages: tuple[str, ...] = ()


def _hz_products(a: np.ndarray, n0: int, add=np.bitwise_xor) -> np.ndarray:
    """a · hzᵀ for hz = I ⊗ [I | 1], without forming hz: the last column of
    each block of n0 columns added to the block's other n0 - 1 columns, in
    hz's row order.  For a stack of Z errors these are their syndromes; for
    hx it is the commutator.  add is the field's addition (XOR over GF(2))."""
    rows, blocks = a.shape[0], a.shape[1] // n0
    b = a.reshape(rows, blocks, n0)
    return add(b[:, :, : n0 - 1], b[:, :, n0 - 1 :]).reshape(rows, blocks * (n0 - 1))


def _check_block_hz(hz: MatrixGF, n0: int) -> None:
    """Raise unless hz is exactly I ⊗ [I | 1] with blocks of n0 columns,
    naming its first wrong row."""
    rows = hz.cols // n0 * (n0 - 1)
    j = np.arange(min(hz.rows, rows))
    first = j // (n0 - 1) * n0  # first column of each row's block
    d = hz.data[: j.size]
    ok = (np.count_nonzero(d, axis=1) == 2) & (d[j, first + j % (n0 - 1)] == 1)
    ok &= d[j, first + n0 - 1] == 1
    wrong = np.flatnonzero(~ok)
    if wrong.size:
        raise ValueError(f"hz row {wrong[0]} is not row {wrong[0]} of I (x) [I | 1] "
                         f"for n0 = {n0}")
    if hz.rows != rows:
        raise ValueError(f"hz has {hz.rows} rows; I (x) [I | 1] for n0 = {n0} has {rows}")


def check_valid(q: CssCode) -> ValidityReport:
    """Commutation, rank bookkeeping of k and its sign.  A code with n0 has
    hz = I ⊗ [I | 1] (CssCode enforces it), so hz is never formed: the
    commutator comes from _hz_products and rank(hz) is n/n0 · (n0 - 1).
    A code with n0 whose hx is built from outer.H (see CssCode) commutes by
    construction, and rank(hx) = rank(outer.H) = outer.n - outer.k, outer.G
    being a full-rank basis of the kernel of outer.H."""
    msgs = []
    if q.n0 is not None and q.outer is not None and q._hx_builder is not None:
        k_rank = q.n // q.n0 - (q.outer.n - q.outer.k)
    else:
        if q.n0 is None:
            comm, rank_hz = mul(q.hx, q.hz.T).data, rank(q.hz)
        else:
            add = np.bitwise_xor if q.field.size == 2 else _field_ops(q.field)[0]
            comm, rank_hz = _hz_products(q.hx.data, q.n0, add), q.n // q.n0 * (q.n0 - 1)
        bad = np.count_nonzero(comm)
        if bad:
            i, j = map(int, np.argwhere(comm)[0])
            msgs.append(f"commutator has {bad} nonzero entries, first at ({i},{j})")
        if q.n0 is not None and not bad:
            # every column of a block of hx is minus the block's last column
            k_rank = q.n // q.n0 - rank(MatrixGF(q.field, q.hx.data[:, :: q.n0]))
        else:
            k_rank = q.n - rank(q.hx) - rank_hz
    if q.k != k_rank:
        msgs.append(f"k = {q.k} but rank bookkeeping gives {k_rank}")
    if q.k < 0:
        msgs.append("negative logical dimension")
    return ValidityReport(ok=not msgs, messages=tuple(msgs))


def check_valid_stabilizer(s: StabilizerCode) -> ValidityReport:
    msgs = []
    x = MatrixGF(s.gens.field, s.gens.data[:, : s.n])
    z = MatrixGF(s.gens.field, s.gens.data[:, s.n :])
    bad = np.argwhere(mul(x, z.T).data != mul(z, x.T).data)
    if len(bad):
        i, j = map(int, bad[0])
        msgs.append(f"{len(bad)} anticommuting generator pairs, first at ({i},{j})")
    k_rank = s.n - rank(s.gens)
    if s.k != k_rank:
        msgs.append(f"k = {s.k} but rank bookkeeping gives {k_rank}")
    return ValidityReport(ok=not msgs, messages=tuple(msgs))


# --------------------------------------------------------- distance oracles

# Candidates per vectorised step of the enumeration; bounds its memory.
_BLOCK = 1 << 20


def _weights(v: np.ndarray, halves: int) -> np.ndarray:
    """Weights of packed rows; with halves=2 a row is (x words | z words)
    and its weight counts the positions where x or z is set."""
    if halves == 2:
        h = v.shape[1] // 2
        v = v[:, :h] | v[:, h:]
    return np.bitwise_count(v).sum(axis=1, dtype=np.int64)


def _min_weight_outside(basis: MatrixGF, exclude: MatrixGF, halves: int = 1) -> int | None:
    """Minimum weight over span(basis) minus rowspace(exclude), or None when
    the first lies inside the second; with halves=2 rows are symplectic
    (x | z) and the weight is the symplectic weight.

    The basis is row-reduced, so a combination of t rows has at least t ones
    on its pivot columns, hence weight at least ceil(t / halves). Each row is
    reduced once against rref(exclude): a combination lies in that row space
    exactly when the XOR of its rows' residuals is zero. Combinations are
    enumerated by size t = 1, 2, ... as XORs of packed words until the best
    weight found is at most the bound for t + 1 rows: a table of every
    s-subset sorted by its largest index (s as large as fits in _BLOCK) is
    XORed with each (t - s)-subset of larger indices.
    """
    rr = rref(basis)
    B = rr.matrix.data[: rr.rank]
    ex = rref(exclude)
    part = mul(MatrixGF(GF2, B[:, list(ex.pivots)]), MatrixGF(GF2, ex.matrix.data[: ex.rank]))
    residual = B ^ part.data
    if not residual.any():
        return None
    words = np.hstack([_pack_rows(half) for half in np.hsplit(B, halves)])
    res = _pack_rows(residual)
    k = len(words)
    table_w = np.zeros((1, words.shape[1]), dtype=np.uint64)  # the empty subset
    table_r = np.zeros((1, res.shape[1]), dtype=np.uint64)
    s = 0
    best = B.shape[1] + 1
    for t in range(1, k + 1):
        while s < t and math.comb(k, s + 1) <= _BLOCK:
            table_w = np.concatenate([table_w[: math.comb(j, s)] ^ words[j] for j in range(k)])
            table_r = np.concatenate([table_r[: math.comb(j, s)] ^ res[j] for j in range(k)])
            s += 1
        for top in itertools.combinations(range(k), t - s):
            size = math.comb(top[0] if top else k, s)
            if not size:
                continue
            rows = list(top)
            w = _weights(table_w[:size] ^ np.bitwise_xor.reduce(words[rows]), halves)
            low = np.flatnonzero(w < best)
            if low.size:
                hit = (table_r[low] ^ np.bitwise_xor.reduce(res[rows])).any(axis=1)
                if hit.any():
                    best = int(w[low[hit]].min())
        if best <= -(-(t + 1) // halves):
            break
    return best


def distance_css(q: CssCode, side: str, cap: int = 26) -> int:
    """Exact degenerate distance on one side: the minimum weight over
    null(a) minus rowspace(b), with (a, b) = (hx, hz) for side x.

    Combinations of t kernel basis rows are enumerated for t = 1, 2, ...,
    stopping once the best weight found is at most t + 1 (no combination of
    more rows can weigh less) or every combination has been seen. cap bounds
    the kernel dimension.
    """
    if q.field.size != 2:
        raise ValueError("distance oracle implemented over GF(2)")
    side = side.lower()
    if side == "x":
        a, b = q.hx, q.hz
    elif side == "z":
        a, b = q.hz, q.hx
    else:
        raise ValueError(f"side must be x or z, got {side!r}")
    basis = nullspace(a)
    if basis.rows > cap:
        raise ValueError(f"nullspace dimension {basis.rows} exceeds cap {cap}")
    best = _min_weight_outside(basis, b)
    if best is None:
        raise ValueError(f"no logical operator on side {side}")
    return best


def distance_stabilizer(s: StabilizerCode, cap: int = 12) -> int:
    """Minimum symplectic weight over the normalizer minus the stabilizer.

    Combinations of t normalizer basis rows are enumerated for t = 1, 2, ...,
    stopping once the best weight found is at most ceil((t + 1) / 2) or every
    combination has been seen. cap bounds n.
    """
    n = s.n
    if n > cap:
        raise ValueError(f"n = {n} exceeds cap {cap}")
    field = s.gens.field
    x = MatrixGF(field, s.gens.data[:, :n])
    z = MatrixGF(field, s.gens.data[:, n:])
    commute = hstack([z, x])  # error (x|z) commutes iff z·x_e + x·z_e = 0
    best = _min_weight_outside(nullspace(commute), s.gens, halves=2)
    if best is None:
        raise ValueError("normalizer equals the stabilizer group")
    return best


# --------------------------------------------------------- counting checks

def _counting_core(n1: int, kdim: int, f: int, m: int, lam: int, q: int):
    if not 1 <= f <= kdim:
        raise ValueError(f"f = {f} must lie in [1, {kdim}]")
    if m < 2:
        raise ValueError("m must be at least 2")
    if (n1 - f) % m:
        raise ValueError(f"m = {m} must divide n1 - f = {n1 - f}")
    s = sum((q - 1) ** j * math.comb(n1, j) for j in range(1, lam))
    ok = s**m < (q**m - 1) ** (kdim - f)
    margin = (kdim - f) / m * math.log(q**m - 1) - (math.log(s) if s else 0.0)
    return ok, margin


def counting_check(n1: int, k1: int, f_x: int, m: int, lam_x: int, q: int = 2):
    """Exact big-integer evaluation of the search-space counting inequality,
    returning its truth value and the log margin."""
    return _counting_core(n1, k1, f_x, m, lam_x, q)


def counting_check_enlarged(n1: int, r1: int, f_a: int, m: int, lam_a: int, q: int = 2):
    """Same inequality with the enlarged construction's row count in place
    of the code dimension."""
    return _counting_core(n1, r1, f_a, m, lam_a, q)


# ----------------------------------------------------------------- bundles

def css_to_text(q: CssCode) -> str:
    lines = [f"csscode {q.field.size} {q.n} {q.k}"]
    if q.n0 is not None:
        lines.append(f"n0 {q.n0}")
    name = q.provenance.get("construction")
    if name:
        lines.append(f"construction {name}")
    if q.d_x is not None:
        lines.append(f"dx {q.d_x} {q.d_method or 'uncertified'}")
    if q.d_z is not None:
        lines.append(f"dz {q.d_z} {q.d_method or 'uncertified'}")
    lines.append("hx")
    lines.append(mat_to_text(q.hx).rstrip("\n"))
    lines.append("hz")
    lines.append(mat_to_text(q.hz).rstrip("\n"))
    return "\n".join(lines) + "\n"


# the key lines a csscode bundle may carry, with the types of their values
_CSS_KEYS = {"n0": (int,), "construction": (str,), "dx": (int, str), "dz": (int, str)}


def css_from_text(text: str, validate: bool = True) -> CssCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _, n, k = bundle_header(lines, "csscode")
    n0 = None
    construction = None
    d_x = d_z = None
    d_method = None
    at = 1
    while bundle_line(lines, at, "the hx section") != "hx":
        key, values = bundle_key(lines, at, _CSS_KEYS)
        if key == "n0":
            (n0,) = values
        elif key == "construction":
            (construction,) = values
        elif key == "dx":
            d_x, d_method = values
        else:
            d_z, d_method = values
        at += 1
    hx, at = take_matrix(lines, at + 1, "hx")
    bundle_columns(hx, n, "hx")
    if bundle_line(lines, at, "the hz section") != "hz":
        raise ValueError(f"line {at + 1}: expected the hz section, got {lines[at]!r}")
    hz, _ = take_matrix(lines, at + 1, "hz")
    bundle_columns(hz, n, "hz")
    if n0 is not None and (n0 < 2 or n % n0):
        raise ValueError(f"n0 {n0} must be at least 2 and divide n = {n}")
    outer = _from_checks(MatrixGF(hx.field, hx.data[:, ::n0])) if n0 else None
    prov = {"construction": construction} if construction else {}
    return CssCode(
        n=n,
        hx=hx,
        hz=hz,
        k=k,
        n0=n0,
        outer=outer,
        d_x=d_x,
        d_z=d_z,
        d_method=d_method,
        provenance=prov,
        validate=validate,
    )


def stab_to_text(s: StabilizerCode) -> str:
    lines = [f"stabcode {s.gens.field.size} {s.n} {s.k}"]
    if s.d is not None:
        lines.append(f"d {s.d} {s.d_method or 'uncertified'}")
    lines.append("gens")
    lines.append(mat_to_text(s.gens).rstrip("\n"))
    return "\n".join(lines) + "\n"


def stab_from_text(text: str, validate: bool = True) -> StabilizerCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _, n, k = bundle_header(lines, "stabcode")
    d = None
    d_method = None
    at = 1
    while bundle_line(lines, at, "the gens section") != "gens":
        _, (d, d_method) = bundle_key(lines, at, {"d": (int, str)})
        at += 1
    gens, _ = take_matrix(lines, at + 1, "gens")
    bundle_columns(gens, 2 * n, "gens")
    return StabilizerCode(
        n=n, gens=gens, k=k, d=d, d_method=d_method, validate=validate
    )
