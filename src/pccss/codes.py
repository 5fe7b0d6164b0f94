"""Classical component codes: repetition, block lifts, GRS, alternant,
random GV-achieving, and expander codes, with exact-distance bookkeeping.

Distances are only ever recorded when certified (brute force or construction);
randomized evidence from probe_min_weight is reported separately and never
stored as d_certified.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bounds import vol_q
from .galois import FieldSpec, field_of_size
from .matgf import (
    MatrixGF,
    _span_chunks,
    bundle_columns,
    bundle_header,
    bundle_key,
    bundle_line,
    identity,
    kron,
    mat_to_text,
    mul,
    nullspace,
    rank,
    rref,
    take_matrix,
    transpose,
    zeros,
)

__all__ = [
    "ExpanderGraph",
    "GrsSpec",
    "LinearCode",
    "certify_distance",
    "code_from_text",
    "code_to_text",
    "dual",
    "lift_block",
    "make_alternant",
    "make_expander",
    "make_grs",
    "make_random_gv",
    "make_repetition",
    "min_weight",
    "probe_min_weight",
]


@dataclass(frozen=True, eq=False)
class LinearCode:
    field: FieldSpec
    n: int
    k: int
    G: MatrixGF
    H: MatrixGF
    d_certified: int | None = None
    d_method: str | None = None
    provenance: dict = dc_field(default_factory=dict)

    @property
    def q(self) -> int:
        return self.field.size


def _new_code(field, n, k, G, H, d=None, method=None, provenance=None, validate=True):
    code = LinearCode(field, n, k, G, H, d, method, provenance or {})
    if validate:
        if G.cols != n or H.cols != n:
            raise ValueError("generator/check length mismatch")
        if G.rows != k:
            raise ValueError("generator row count is not k")
        if mul(G, transpose(H)).data.any():
            raise ValueError("generator and check matrices do not annihilate")
        if rank(G) != k:
            raise ValueError("generator is rank-deficient")
        if rank(H) != n - k:
            raise ValueError(f"check matrix rank {rank(H)} != n - k = {n - k}")
    return code


def _from_checks(H: MatrixGF) -> LinearCode:
    """The code whose check matrix is H, as a bundle gives it: one
    elimination yields the generator, whose row count is k."""
    G = nullspace(H)
    return LinearCode(H.field, H.cols, G.rows, G, H, provenance={"origin": "bundle"})


# ------------------------------------------------------------ enumeration

def min_weight(G: MatrixGF, cap: int = 2**22) -> int:
    """Exact minimum weight of the row space: over GF(2) by the distance
    oracles' weight-bounded enumeration, otherwise over every codeword. cap
    bounds the codeword count either way."""
    field = G.field
    k, n = G.rows, G.cols
    if k == 0:
        raise ValueError("zero-dimensional code has no nonzero codeword")
    total = field.size**k
    if total > cap:
        raise ValueError(f"{total} codewords exceed enumeration cap {cap}")
    if field.size == 2:
        from .css import _min_weight_outside  # css builds on this module

        best = _min_weight_outside(G, zeros(field, 0, n))
        if best is None:
            raise ValueError("zero-dimensional code has no nonzero codeword")
        return best
    best = n + 1
    for cw in _span_chunks(G):
        weights = np.count_nonzero(cw, axis=1)
        best = min(best, int(weights[weights > 0].min(initial=best)))
    if best > n:
        raise ValueError("zero-dimensional code has no nonzero codeword")
    return best


def certify_distance(code: LinearCode, cap: int = 2**22) -> LinearCode:
    w = min_weight(code.G, cap)
    return dataclasses.replace(code, d_certified=w, d_method="exhaustive")


def probe_min_weight(code: LinearCode, trials: int = 100000, seed: int = 0) -> int:
    """Smallest codeword weight seen over randomized low-weight probes.

    An observed upper bound on the distance, useful as evidence that no very
    light codeword exists; never a certificate.
    """
    rng = np.random.default_rng(seed)
    k, n = code.k, code.n
    q = code.field.size
    best = min(int(np.count_nonzero(row)) for row in code.G.data)
    done = 0
    while done < trials:
        batch = min(trials - done, 4096)
        M = np.zeros((batch, k), dtype=np.uint8)
        weights = rng.integers(1, 4, size=batch)
        for i in range(batch):
            w = min(int(weights[i]), k)
            cols = rng.choice(k, size=w, replace=False)
            M[i, cols] = rng.integers(1, q, size=w)
        cw = mul(MatrixGF(code.field, M), code.G).data
        wts = np.count_nonzero(cw, axis=1)
        wts = wts[wts > 0]
        if wts.size:
            best = min(best, int(wts.min()))
        done += batch
    return best


# ------------------------------------------------------------ repetition

def make_repetition(n0: int) -> LinearCode:
    """[n0, 1, n0] binary repetition code; H = [I | all-ones column].  A new
    code on every call, over matrices validated once per n0."""
    if n0 < 2:
        raise ValueError(f"repetition length must be >= 2, got {n0}")
    code = _repetition_code(n0)
    return dataclasses.replace(code, provenance=dict(code.provenance))


@functools.lru_cache(maxsize=64)
def _repetition_code(n0: int) -> LinearCode:
    f2 = field_of_size(2)
    H = np.hstack([np.eye(n0 - 1, dtype=np.uint8), np.ones((n0 - 1, 1), dtype=np.uint8)])
    G = np.ones((1, n0), dtype=np.uint8)
    return _new_code(
        f2, n0, 1, MatrixGF(f2, G), MatrixGF(f2, H),
        d=n0, method="construction", provenance={"origin": "repetition", "n0": n0},
    )


def lift_block(inner: LinearCode, copies: int) -> LinearCode:
    """Direct sum of `copies` disjoint copies: H = I (x) H0, G = I (x) G0."""
    if copies < 1:
        raise ValueError("need at least one copy")
    if copies == 1:
        return inner
    eye = identity(inner.field, copies)
    return _new_code(
        inner.field,
        copies * inner.n,
        copies * inner.k,
        kron(eye, inner.G),
        kron(eye, inner.H),
        d=inner.d_certified,
        method=inner.d_method,
        provenance={"origin": "lift", "copies": copies, "inner": inner.provenance},
    )


# ------------------------------------------------------------------- GRS

@dataclass(frozen=True)
class GrsSpec:
    """Evaluation points a, column multipliers v, dimension k; y derived."""

    field: FieldSpec
    a: tuple[int, ...]
    v: tuple[int, ...]
    k: int
    y: tuple[int, ...] = dc_field(init=False)

    def __post_init__(self):
        f = self.field
        a = tuple(int(x) for x in self.a)
        v = tuple(int(x) for x in self.v)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)
        n = len(a)
        if len(v) != n:
            raise ValueError("points and multipliers differ in length")
        if len(set(a)) != n:
            raise ValueError("evaluation points must be pairwise distinct")
        if any(not 0 <= x < f.size for x in a + v):
            raise ValueError("entry out of field range")
        if any(x == 0 for x in v):
            raise ValueError("column multipliers must be nonzero")
        if not 1 <= self.k <= n - 1:
            raise ValueError(f"dimension {self.k} outside [1, {n - 1}]")
        y = []
        for i, ai in enumerate(a):
            prod = v[i]
            for j, aj in enumerate(a):
                if j != i:
                    prod = f.mul(prod, f.sub(ai, aj))
            y.append(f.inv(prod))
        object.__setattr__(self, "y", tuple(y))

    @property
    def n(self) -> int:
        return len(self.a)


def make_grs(spec: GrsSpec) -> LinearCode:
    """[n, k, n-k+1] MDS code: G rows v_i a_i^t, H rows y_i a_i^j."""
    f = spec.field
    n, k = spec.n, spec.k
    r = n - k
    G = np.zeros((k, n), dtype=np.int64)
    H = np.zeros((r, n), dtype=np.int64)
    for i in range(n):
        ai, vi, yi = spec.a[i], spec.v[i], spec.y[i]
        power = 1
        for t in range(max(k, r)):
            if t < k:
                G[t, i] = f.mul(vi, power)
            if t < r:
                H[t, i] = f.mul(yi, power)
            power = f.mul(power, ai)
    return _new_code(
        f, n, k, MatrixGF(f, G), MatrixGF(f, H),
        d=r + 1, method="mds",
        provenance={"origin": "grs", "a": spec.a, "v": spec.v, "y": spec.y, "k": k},
    )


# -------------------------------------------------------------- alternant

def make_alternant(field: FieldSpec, a, y, r: int) -> LinearCode:
    """Subfield subcode over GF(q) of the GRS code with parity rows y_i a_i^j.

    Each extension-field parity row expands to field.m rows of base-field
    coordinates in the polynomial basis. k >= n - m r; distance >= r + 1.
    """
    a = tuple(int(x) for x in a)
    y = tuple(int(x) for x in y)
    n = len(a)
    base = field.base_field()
    m = field.m
    if m < 2:
        raise ValueError("alternant construction needs a proper extension field")
    if len(set(a)) != n:
        raise ValueError("evaluation points must be pairwise distinct")
    if len(y) != n or any(x == 0 for x in y):
        raise ValueError("multipliers must be nonzero, one per point")
    if not 1 <= r < n:
        raise ValueError(f"redundancy {r} outside [1, {n - 1}]")
    expanded = np.zeros((m * r, n), dtype=np.int64)
    for i in range(n):
        power = y[i]
        for j in range(r):
            coords = field.to_base_coords(power)
            for l in range(m):
                expanded[j * m + l, i] = coords[l]
            power = field.mul(power, a[i])
    rr = rref(MatrixGF(base, expanded))
    H = MatrixGF(base, rr.matrix.data[: rr.rank])
    k = n - rr.rank
    assert k >= n - m * r
    G = nullspace(H)
    return _new_code(
        base, n, k, G, H,
        provenance={
            "origin": "alternant",
            "ext": field,
            "a": a,
            "y": y,
            "r": r,
            "d_lower": r + 1,
        },
    )


# -------------------------------------------------------------- random GV

def make_random_gv(n: int, k: int, seed: int, q: int = 2) -> LinearCode:
    """Random code resampled until it meets the GV distance target.

    Target: largest d with vol_q(n-1, d-2) < q^(n-k). Length capped at 28 so
    the certification stays a feasible brute force.
    """
    if n > 28:
        raise ValueError(f"length {n} exceeds the exact-certification cap of 28")
    if not 1 <= k <= n:
        raise ValueError(f"dimension {k} outside [1, {n}]")
    f = field_of_size(q)
    if k == n:
        return _new_code(
            f, n, k, identity(f, n), zeros(f, 0, n),
            d=1, method="construction", provenance={"origin": "random_gv", "seed": seed},
        )
    target = 1
    cand = 2
    while cand <= n and vol_q(n - 1, cand - 2, q) < q ** (n - k):
        target = cand
        cand += 1
    rng = np.random.default_rng(seed)
    for _ in range(5000):
        Gd = rng.integers(0, q, size=(k, n))
        G = MatrixGF(f, Gd)
        if rank(G) < k:
            continue
        w = min_weight(G)
        if w >= target:
            return _new_code(
                f, n, k, G, nullspace(G),
                d=w, method="exhaustive",
                provenance={"origin": "random_gv", "seed": seed, "gv_target": target},
            )
    raise RuntimeError(f"no [{n},{k}] code of distance {target} in 5000 samples")


# --------------------------------------------------------------- expander

@dataclass(frozen=True)
class ExpanderGraph:
    """Biregular bipartite graph: n bits of degree c, r checks of degree d."""

    n: int
    r: int
    c: int
    d: int
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    seed: int


# Matchings per expander graph before make_expander gives up, and the most
# stubs one block of matchings may hold; the cap bounds a block's memory.
_MATCHINGS = 1000
_BLOCK_STUBS = 1 << 16


def make_expander(n: int, c: int, d: int, seed: int) -> tuple[LinearCode, ExpanderGraph]:
    """Configuration-model (c, d)-biregular code; resamples until simple.

    Matchings are drawn in blocks: one rng.permuted call shuffles each row
    of a block of m copies of the n*c check stubs, drawing from the
    generator exactly as m successive rng.permutation(n*c) calls do, so
    row i is the stubs taken in the order of the i-th such permutation.
    A matching is simple when no bit holds two stubs of one check, tested
    for the whole block at once over the c(c-1)/2 stub pairs of each bit;
    the first simple one is kept. Blocks start at 16 matchings and double,
    capped at _BLOCK_STUBS stubs, and never draw past the budget of
    _MATCHINGS matchings, so a seed yields the graph, or the RuntimeError,
    that resampling one matching at a time would. Dense degree pairs with
    vanishing simple-graph probability are rejected rather than silently
    repaired; degrees below 1, and fewer checks than a bit's c (n < d),
    where no simple graph exists, are refused before any draw.
    """
    if c < 1 or d < 1:
        raise ValueError(f"degrees ({c},{d}) must both be >= 1")
    if n * c % d != 0:
        raise ValueError(f"degree accounting fails: {n}*{c} not divisible by {d}")
    r = n * c // d
    if r >= n:
        raise ValueError(f"{r} checks on {n} bits leaves no rate")
    # each bit needs c distinct checks, equivalently each check d distinct bits
    if r < c:
        raise ValueError(f"no simple ({c},{d}) graph on {n} bits: {r} checks, "
                         f"fewer than the {c} each bit needs")
    rng = np.random.default_rng(seed)
    left_nodes = np.repeat(np.arange(n), c)
    right_stubs = np.repeat(np.arange(r), d)
    drawn, m = 0, 16
    while drawn < _MATCHINGS:
        m = min(m, max(1, _BLOCK_STUBS // (n * c)), _MATCHINGS - drawn)
        block = np.tile(right_stubs, (m, 1))
        rng.permuted(block, axis=1, out=block)
        # block[i, b] lists the checks of bit b in the i-th matching
        block = block.reshape(m, n, c)
        clash = np.zeros((m, n), dtype=bool)
        for i, j in itertools.combinations(range(c), 2):
            clash |= block[:, :, i] == block[:, :, j]
        simple = np.flatnonzero(~clash.any(axis=1))
        if simple.size:
            # a copy, so that the block is freed before the dense work below
            assign = block[simple[0]].reshape(-1).copy()
            del block
            break
        drawn += m
        m *= 2
    else:
        raise RuntimeError(f"no simple ({c},{d}) graph on {n} bits in {_MATCHINGS} matchings")
    # row i lists the checks of bit i in order
    bit_checks = np.sort(assign.reshape(n, c), axis=1)
    f2 = field_of_size(2)
    Hd = np.zeros((r, n), dtype=np.uint8)
    Hd[assign, left_nodes] = 1
    # stubs sorted by (check, bit): row j lists the bits of check j in order
    right_bits = left_nodes[np.lexsort((left_nodes, assign))].reshape(r, d)
    left = tuple(map(tuple, bit_checks.tolist()))
    right = tuple(map(tuple, right_bits.tolist()))
    graph = ExpanderGraph(n, r, c, d, left, right, seed)
    H = MatrixGF(f2, Hd)
    G = nullspace(H)
    code = _new_code(
        f2, n, G.rows, G, H,
        provenance={"origin": "expander", "c": c, "d": d, "seed": seed},
        validate=False,
    )
    # G·Hᵀ from the graph: column j is the XOR of G's columns in right[j],
    # taken here over G's columns packed eight rows to a byte
    columns = np.ascontiguousarray(np.packbits(G.data, axis=0).T)
    assert not np.bitwise_xor.reduce(columns[right_bits], axis=1).any()
    return code, graph


# ------------------------------------------------------------------- dual

def dual(C: LinearCode) -> LinearCode:
    """Dual code: row spaces of G and H trade places.

    When H carries redundant rows (expander codes keep every check), the dual
    generator is a full-rank basis of the same row space.
    """
    f = C.field
    if C.H.rows == C.n - C.k:
        Hbasis = C.H
    else:
        rr = rref(C.H)
        Hbasis = MatrixGF(f, rr.matrix.data[: rr.rank])
    return _new_code(
        f, C.n, C.n - C.k, Hbasis, C.G,
        provenance={"origin": "dual", "of": C.provenance.get("origin")},
    )


# ---------------------------------------------------------------- bundles

def code_to_text(code: LinearCode, graph: ExpanderGraph | None = None) -> str:
    """Bundle: header, optional distance line, optional alternant recipe,
    G and H in the matrix text format, optional expander adjacency block."""
    parts = [f"linearcode {code.q} {code.n} {code.k}\n"]
    if code.d_certified is not None:
        parts.append(f"d {code.d_certified} {code.d_method}\n")
    if code.provenance.get("origin") == "alternant":
        ext: FieldSpec = code.provenance["ext"]
        parts.append(f"alternant {ext.p} {ext.m0} {ext.m} {code.provenance['r']}\n")
        parts.append("points " + " ".join(map(str, code.provenance["a"])) + "\n")
        parts.append("mults " + " ".join(map(str, code.provenance["y"])) + "\n")
    parts.append(mat_to_text(code.G))
    parts.append(mat_to_text(code.H))
    if graph is not None:
        parts.append(f"expander {graph.n} {graph.r} {graph.c} {graph.d} {graph.seed}\n")
        for nb in graph.left:
            parts.append(" ".join(map(str, nb)) + "\n")
        for nb in graph.right:
            parts.append(" ".join(map(str, nb)) + "\n")
    return "".join(parts)


def code_from_text(text: str) -> tuple[LinearCode, ExpanderGraph | None]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    q, n, k = bundle_header(lines, "linearcode")
    pos = 1
    d_val = None
    d_method = None
    provenance: dict = {}
    if pos < len(lines) and lines[pos].startswith("d "):
        _, (d_val, d_method) = bundle_key(lines, pos, {"d": (int, str)})
        pos += 1
    if pos < len(lines) and lines[pos].startswith("alternant "):
        _, (p, m0, m, r) = bundle_key(lines, pos, {"alternant": (int,) * 4})
        ext = FieldSpec(p, m0, m)
        _, pts = bundle_key(lines, pos + 1, {"points": (int,) * n})
        _, mults = bundle_key(lines, pos + 2, {"mults": (int,) * n})
        provenance = {
            "origin": "alternant", "ext": ext, "a": tuple(pts), "y": tuple(mults),
            "r": r, "d_lower": r + 1,
        }
        pos += 3
    G, pos = take_matrix(lines, pos, "G")
    bundle_columns(G, n, "G")
    if G.rows != k:
        raise ValueError(f"G has {G.rows} rows, expected {k} from the header")
    H, pos = take_matrix(lines, pos, "H")
    bundle_columns(H, n, "H")
    graph = None
    if pos < len(lines) and lines[pos].startswith("expander "):
        _, (gn, gr, gc, gd, gseed) = bundle_key(lines, pos, {"expander": (int,) * 5})
        adjacency = tuple(
            tuple(int(v) for v in bundle_line(lines, pos + 1 + i, f"adjacency row {i}").split())
            for i in range(gn + gr)
        )
        graph = ExpanderGraph(gn, gr, gc, gd, adjacency[:gn], adjacency[gn:], gseed)
        if not provenance:
            provenance = {"origin": "expander", "c": gc, "d": gd, "seed": gseed}
    field = field_of_size(q)
    code = LinearCode(field, n, k, G, H, d_val, d_method, provenance)
    return code, graph
