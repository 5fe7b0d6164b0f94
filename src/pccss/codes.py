"""Classical component codes: repetition, block lifts, GRS, alternant,
random GV-achieving, and expander codes, with exact-distance bookkeeping.

Distances are only ever recorded when certified (brute force or construction);
randomized evidence from probe_min_weight is reported separately and never
stored as d_certified.  A binary code's exact minimum weight comes from
matgf's enumeration, the one behind css's distance oracles.

An expander code is built as its Tanner graph alone: its dense H, its G
(one elimination) and its k are built on first read and then kept, so the
flip decoder and the Monte Carlo harness, which read only the graph, never
form them.  Every other code is built with its matrices.

code_to_text and code_from_text map a code to and from the parts of its
linearcode bundle; bundle reads and writes the text.
"""
from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bounds import vol_q
from .bundle import read_bundle, write_bundle
from .galois import FieldSpec, field_of_size
from .matgf import (
    MatrixGF,
    _min_weight_outside,
    _pack_rows,
    _span_chunks,
    identity,
    kron,
    mul,
    nullspace,
    rank,
    rref,
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


class _Lazy:
    """An attribute given as a value or as a builder, a function of the
    object.  A builder runs on the first read and its result is kept in
    _<name>; the builder stays in _<name>_builder, so setting _<name> back
    to None makes the next read build it again.  Builders take the object
    rather than closing over it, so an object holds no reference cycle and
    is freed as soon as it is dropped."""

    def __set_name__(self, owner, name):
        self.value, self.builder = f"_{name}", f"_{name}_builder"

    def __set__(self, obj, given):
        lazy = callable(given)
        obj.__dict__[self.builder] = given if lazy else None
        obj.__dict__[self.value] = None if lazy else given

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.value]
        if value is None:
            value = obj.__dict__[self.value] = obj.__dict__[self.builder](obj)
        return value


class LinearCode:
    """A linear code held as its dimension k, generator G and check matrix H.

    k, G and H may each be given as a value or as a builder, a function of
    the code run on first read (_Lazy): make_expander gives builders, so a
    code the decoders reach only through its Tanner graph never forms them.
    graph is that Tanner graph, set by make_expander; other codes have none.
    """

    k = _Lazy()
    G = _Lazy()
    H = _Lazy()
    graph = None

    def __init__(self, field: FieldSpec, n: int, k, G, H, d_certified: int | None = None,
                 d_method: str | None = None, provenance: dict | None = None):
        self.field = field
        self.n = n
        self.k, self.G, self.H = k, G, H
        self.d_certified = d_certified
        self.d_method = d_method
        self.provenance = {} if provenance is None else provenance

    @property
    def q(self) -> int:
        return self.field.size


def _new_code(field, n, k, G, H, d=None, method=None, provenance=None):
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
    return LinearCode(field, n, k, G, H, d, method, provenance or {})


def _from_checks(H: MatrixGF) -> LinearCode:
    """The code whose check matrix is H, as a bundle gives it: one
    elimination yields the generator, whose row count is k."""
    G = nullspace(H)
    return LinearCode(H.field, H.cols, G.rows, G, H, provenance={"origin": "bundle"})


# ------------------------------------------------------------ enumeration

def min_weight(G: MatrixGF, cap: int = 2**22) -> int:
    """Exact minimum weight of the row space: over GF(2) by matgf's
    weight-bounded enumeration, the one the distance oracles run, otherwise
    over every codeword. cap bounds the codeword count either way."""
    field = G.field
    k, n = G.rows, G.cols
    total = field.size**k
    if total > cap:
        raise ValueError(f"{total} codewords exceed enumeration cap {cap}")
    if field.size == 2:
        best = _min_weight_outside(G, zeros(field, 0, n)) or n + 1  # None: no such codeword
    else:
        best = n + 1
        for cw in _span_chunks(G):
            weights = np.count_nonzero(cw, axis=1)
            best = min(best, int(weights[weights > 0].min(initial=best)))
    if best > n:
        raise ValueError("zero-dimensional code has no nonzero codeword")
    return best


def certify_distance(code: LinearCode, cap: int = 2**22) -> LinearCode:
    certified = copy.copy(code)
    certified.d_certified, certified.d_method = min_weight(code.G, cap), "exhaustive"
    return certified


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
    code = copy.copy(_repetition_code(n0))
    code.provenance = dict(code.provenance)
    return code


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
    G = np.array(f.power_rows(spec.a, spec.v, k), dtype=np.int64)
    H = np.array(f.power_rows(spec.a, spec.y, r), dtype=np.int64)
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
    # coords[j, i, l] is coordinate l of y_i a_i^j, and row j m + l of the
    # expansion holds coordinate l of power row j
    coords = np.array([[field.to_base_coords(x) for x in row]
                       for row in field.power_rows(a, y, r)], dtype=np.int64)
    rr = rref(MatrixGF(base, coords.transpose(0, 2, 1).reshape(m * r, n)))
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


# The builders of an expander code's H, G and k (see LinearCode)

def _graph_checks(code: LinearCode) -> MatrixGF:
    """The dense check matrix of code's graph: row j is one at the bits of
    check j."""
    graph = code.graph
    H = np.zeros((graph.r, graph.n), dtype=np.uint8)
    H[np.arange(graph.r)[:, None], np.array(graph.right)] = 1
    return MatrixGF._wrap(code.field, H)


def _graph_generator(code: LinearCode) -> MatrixGF:
    """nullspace(code.H), checked against code's graph: column j of G·Hᵀ is
    the XOR of G's columns at graph.right[j], taken here over G's columns
    packed 64 rows to a word."""
    G = nullspace(code.H)
    columns = _pack_rows(G.data.T)
    assert not np.bitwise_xor.reduce(columns[np.array(code.graph.right)], axis=1).any()
    return G


def _generator_rows(code: LinearCode) -> int:
    return code.G.rows


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

    Only the graph is built here.  The code's H (from the graph's edges),
    G (nullspace(H), checked against the graph) and k = G.rows are built
    on first read, so a caller that decodes on the graph alone never pays
    for the dense elimination (at n = 2^16 its H alone is 2 GB).
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
            # a copy, so that the whole block is freed
            assign = block[simple[0]].reshape(-1).copy()
            del block
            break
        drawn += m
        m *= 2
    else:
        raise RuntimeError(f"no simple ({c},{d}) graph on {n} bits in {_MATCHINGS} matchings")
    # row i lists the checks of bit i in order
    bit_checks = np.sort(assign.reshape(n, c), axis=1)
    # stubs sorted by (check, bit): row j lists the bits of check j in order
    right_bits = left_nodes[np.lexsort((left_nodes, assign))].reshape(r, d)
    left = tuple(map(tuple, bit_checks.tolist()))
    right = tuple(map(tuple, right_bits.tolist()))
    graph = ExpanderGraph(n, r, c, d, left, right, seed)
    code = LinearCode(
        field_of_size(2), n, _generator_rows, _graph_generator, _graph_checks,
        provenance={"origin": "expander", "c": c, "d": d, "seed": seed},
    )
    code.graph = graph
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
    """code's linearcode bundle (see bundle): its certified distance, an
    alternant code's recipe, G, H and graph's adjacency block."""
    keys = {}
    if code.d_certified is not None:
        keys["d"] = [code.d_certified, code.d_method]
    prov = code.provenance
    if prov.get("origin") == "alternant":
        ext: FieldSpec = prov["ext"]
        keys.update(alternant=[ext.p, ext.m0, ext.m, prov["r"]], points=prov["a"], mults=prov["y"])
    expander = None if graph is None else (
        (graph.n, graph.r, graph.c, graph.d, graph.seed), graph.left, graph.right)
    return write_bundle("linearcode", (code.q, code.n, code.k), keys,
                        {"G": code.G, "H": code.H}, expander)


def code_from_text(text: str) -> tuple[LinearCode, ExpanderGraph | None]:
    (_, n, k), keys, matrices, expander = read_bundle(text, "linearcode")
    G = matrices["G"]
    if G.rows != k:
        raise ValueError(f"G has {G.rows} rows, expected {k} from the header")
    provenance: dict = {}
    if "alternant" in keys:
        p, m0, m, r = keys["alternant"]
        provenance = {
            "origin": "alternant", "ext": FieldSpec(p, m0, m), "a": tuple(keys["points"]),
            "y": tuple(keys["mults"]), "r": r, "d_lower": r + 1,
        }
    graph = None
    if expander is not None:
        (gn, gr, gc, gd, gseed), left, right = expander
        graph = ExpanderGraph(gn, gr, gc, gd, left, right, gseed)
        if not provenance:
            provenance = {"origin": "expander", "c": gc, "d": gd, "seed": gseed}
    d_val, d_method = keys.get("d", (None, None))
    return LinearCode(G.field, n, k, G, matrices["H"], d_val, d_method, provenance), graph
