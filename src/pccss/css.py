"""Quantum code constructions: CSS pairs, the partially concatenated family,
Steane-style enlargement, validity reports, and brute-force degenerate
distance oracles, which run matgf's minimum-weight enumeration.

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

The css_ and stab_ text functions map a code to and from the parts of its
csscode or stabcode bundle; bundle reads and writes the text.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field as dc_field

import numpy as np

from .bundle import read_bundle, write_bundle
from .codes import LinearCode, _from_checks, _Lazy, make_expander, make_repetition
from .galois import GF2, FieldSpec, is_irreducible
from .matgf import (
    MatrixGF,
    _field_ops,
    _min_weight_outside,
    hstack,
    identity,
    kron,
    mul,
    nullspace,
    rank,
    rref,
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
    outer, _ = make_expander(N // n0, c, d, seed)
    return CssCode(
        n=N,
        hx=_lifted_outer_checks,
        hz=_block_checks,
        k=_outer_k,
        n0=n0,
        outer=outer,
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
    """The first binary primitive polynomial of degree deg >= 2, in the
    order of its bits: x (element 2) generates the field it defines."""
    for enc in range(1 << deg, 1 << (deg + 1)):
        coeffs = [(enc >> i) & 1 for i in range(deg + 1)]
        if coeffs[0] and is_irreducible(coeffs, 2) and FieldSpec(2, 1, deg, coeffs).generator == 2:
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

    # the rows of g3 that each enlarge the span of G1 and the rows picked
    # before them: the pivot columns past k1 of rref([G1; g3]ᵀ)
    g3 = nullspace(h3b)
    picked = [c - k1 for c in rref(vstack([c1.G, g3]).T).pivots if c >= k1][:kq]
    if len(picked) < kq:
        raise RuntimeError("quotient basis extraction failed")
    e0 = g3.data[picked]

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
    """Commutation, rank bookkeeping of k and its sign, and, when those
    hold on a code of n <= 26, each claimed distance (distance_css).  A
    code with n0 has hz = I ⊗ [I | 1] (CssCode enforces it), so hz is
    never formed: the commutator comes from _hz_products and rank(hz) is
    n/n0 · (n0 - 1).
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
    if not msgs and q.n <= 26:
        msgs += [f"claimed d_{side} = {claimed} fails re-verification"
                 for side, claimed in (("x", q.d_x), ("z", q.d_z))
                 if claimed is not None and distance_css(q, side) != claimed]
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

def distance_css(q: CssCode, side: str, cap: int = 26) -> int:
    """Exact degenerate distance on one side: the minimum weight over
    null(a) minus rowspace(b), with (a, b) = (hx, hz) for side x, by
    matgf._min_weight_outside.  cap bounds the kernel dimension."""
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
    """Minimum symplectic weight over the normalizer minus the stabilizer,
    by matgf._min_weight_outside.  cap bounds n."""
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

def counting_check(n1: int, k1: int, f_x: int, m: int, lam_x: int, q: int = 2):
    """Exact big-integer evaluation of the search-space counting inequality,
    returning its truth value and the log margin."""
    if not 1 <= f_x <= k1:
        raise ValueError(f"f = {f_x} must lie in [1, {k1}]")
    if m < 2:
        raise ValueError("m must be at least 2")
    if (n1 - f_x) % m:
        raise ValueError(f"m = {m} must divide n1 - f = {n1 - f_x}")
    s = sum((q - 1) ** j * math.comb(n1, j) for j in range(1, lam_x))
    ok = s**m < (q**m - 1) ** (k1 - f_x)
    margin = (k1 - f_x) / m * math.log(q**m - 1) - (math.log(s) if s else 0.0)
    return ok, margin


def counting_check_enlarged(n1: int, r1: int, f_a: int, m: int, lam_a: int, q: int = 2):
    """Same inequality with the enlarged construction's row count in place
    of the code dimension."""
    return counting_check(n1, r1, f_a, m, lam_a, q)


# ----------------------------------------------------------------- bundles

def css_to_text(q: CssCode) -> str:
    """q's csscode bundle (see bundle)."""
    keys = {}
    if q.n0 is not None:
        keys["n0"] = [q.n0]
    name = q.provenance.get("construction")
    if name:
        keys["construction"] = [name]
    method = q.d_method or "uncertified"
    if q.d_x is not None:
        keys["dx"] = [q.d_x, method]
    if q.d_z is not None:
        keys["dz"] = [q.d_z, method]
    return write_bundle("csscode", (q.field.size, q.n, q.k), keys, {"hx": q.hx, "hz": q.hz})


def css_from_text(text: str, validate: bool = True) -> CssCode:
    (_, n, k), keys, matrices, _ = read_bundle(text, "csscode")
    (n0,) = keys.get("n0", [None])
    (construction,) = keys.get("construction", [None])
    d_x, method_x = keys.get("dx", (None, None))
    d_z, method_z = keys.get("dz", (None, None))
    hx = matrices["hx"]
    if n0 is not None and (n0 < 2 or n % n0):
        raise ValueError(f"n0 {n0} must be at least 2 and divide n = {n}")
    outer = _from_checks(MatrixGF(hx.field, hx.data[:, ::n0])) if n0 else None
    prov = {"construction": construction} if construction else {}
    return CssCode(
        n=n,
        hx=hx,
        hz=matrices["hz"],
        k=k,
        n0=n0,
        outer=outer,
        d_x=d_x,
        d_z=d_z,
        d_method=method_x or method_z,
        provenance=prov,
        validate=validate,
    )


def stab_to_text(s: StabilizerCode) -> str:
    """s's stabcode bundle (see bundle)."""
    keys = {} if s.d is None else {"d": [s.d, s.d_method or "uncertified"]}
    return write_bundle("stabcode", (s.gens.field.size, s.n, s.k), keys, {"gens": s.gens})


def stab_from_text(text: str, validate: bool = True) -> StabilizerCode:
    (_, n, k), keys, matrices, _ = read_bundle(text, "stabcode")
    d, d_method = keys.get("d", (None, None))
    return StabilizerCode(n=n, gens=matrices["gens"], k=k, d=d, d_method=d_method, validate=validate)
