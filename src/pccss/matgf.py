"""Dense matrices over GF(q): echelon forms, nullspaces, products, standard form.

Entries are stored as element indices in a numpy array (uint8 when q <= 256,
int64 above). Arithmetic takes one of two paths:

- GF(2) works on words: elimination runs bit-packed, 64 columns per machine
  word, clearing a word's columns per pass through 8-bit XOR tables,
  products are float32 BLAS products reduced to parity by an exact integer
  cast (the inner dimension is split into chunks below 2^24 terms, so every
  sum is an exact integer), and row-space reduction XORs rows.
- Every other field goes through one cached provider of elementwise
  (add, mul, neg, inv) over index arrays: q x q lookup tables up to q = 256,
  scalar FieldSpec calls above that (only small matrices live there).

Both paths return the reduced row echelon form, which a matrix has only
one of, so echelon forms are canonical and golden-file comparable.

The text format is a "q rows cols" header line followed by one line of
entries per row; the bundle readers share its block reader, take_matrix.
The writer emits one canonical layout (rows_to_text), which the reader
converts a chunk of rows at a time; any other spacing is read row by row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .galois import FieldSpec, field_of_size

__all__ = [
    "MatrixGF",
    "RrefResult",
    "bundle_columns",
    "bundle_header",
    "bundle_key",
    "bundle_line",
    "identity",
    "in_rowspace",
    "kron",
    "mat_from_text",
    "mat_to_text",
    "mul",
    "nullspace",
    "rank",
    "reduce_vector",
    "rows_to_text",
    "rref",
    "solve",
    "Solver",
    "solver",
    "standard_form",
    "take_matrix",
    "transpose",
    "vstack",
    "hstack",
]


def _dtype_for(q: int):
    return np.uint8 if q <= 256 else np.int64


class MatrixGF:
    """Immutable matrix of field-element indices."""

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, entries):
        data = np.asarray(entries, dtype=_dtype_for(field.size))
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        if data.size and int(data.max()) >= field.size:
            raise ValueError(f"entry {int(data.max())} out of range for {field}")
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)

    @classmethod
    def _wrap(cls, field: FieldSpec, data: np.ndarray) -> "MatrixGF":
        """Wrap data that is valid by construction (a fresh 2-D array of
        field's dtype and range, like a product's), skipping the checks."""
        data.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGF is immutable")

    @property
    def q(self) -> int:
        return self.field.size

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def T(self) -> "MatrixGF":
        return transpose(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
        )

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"MatrixGF({self.field}, {self.rows}x{self.cols})"


def identity(field: FieldSpec, n: int) -> MatrixGF:
    return MatrixGF(field, np.eye(n, dtype=_dtype_for(field.size)))

def zeros(field: FieldSpec, rows: int, cols: int) -> MatrixGF:
    return MatrixGF(field, np.zeros((rows, cols), dtype=_dtype_for(field.size)))


__all__.append("zeros")


# ----------------------------------------------------------- field ops

@functools.cache
def _field_ops(field: FieldSpec):
    """Elementwise (add, mul, neg, inv) over arrays of element indices.

    q x q lookup tables when q <= 256; above that, ufuncs calling the scalar
    FieldSpec methods on Python ints, returning int64 arrays.
    """
    q = field.size
    if q <= 256:
        elems = range(q)
        add = np.array([[field.add(a, b) for b in elems] for a in elems], dtype=np.uint8)
        mulo = np.array([[field.mul(a, b) for b in elems] for a in elems], dtype=np.uint8)
        neg = np.array([field.neg(a) for a in elems], dtype=np.uint8)
        inv = np.array([0] + [field.inv(a) for a in elems[1:]], dtype=np.uint8)

        def pair(table):
            flat = table.ravel()  # one flat gather beats a 2-D fancy index
            return lambda a, b: flat[np.multiply(a, q, dtype=np.intp) + b]

        return pair(add), pair(mulo), neg.__getitem__, inv.__getitem__

    def lift(fn, nin):
        ufunc = np.frompyfunc(fn, nin, 1)
        return lambda *xs: np.asarray(ufunc(*xs), dtype=np.int64)

    return lift(field.add, 2), lift(field.mul, 2), lift(field.neg, 1), lift(field.inv, 1)


# --------------------------------------------------------- bit packing

def _pack_rows(bits: np.ndarray) -> np.ndarray:
    r, c = bits.shape
    words = max(1, (c + 63) // 64)
    by = np.zeros((r, words * 8), dtype=np.uint8)
    by[:, : (c + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return by.view(np.uint64)


def _unpack_rows(packed: np.ndarray, cols: int) -> np.ndarray:
    r = packed.shape[0]
    by = np.ascontiguousarray(packed).view(np.uint8).reshape(r, -1)
    return np.unpackbits(by, axis=1, count=cols, bitorder="little")


# ----------------------------------------------------------------- rref

@dataclass(frozen=True)
class RrefResult:
    matrix: MatrixGF
    rank: int
    pivots: tuple[int, ...]


_WORD = (1 << 64) - 1


def _panel_basis(words: list[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Reduced echelon basis of the span of words, 64-bit panel words.

    Words are inserted in order into a basis whose leaders are their lowest
    set bits, until there are as many leaders as columns the words touch.
    A word that becomes a leader is a source; each basis word carries, in
    its bits from 64 on, a mask of the sources that XOR to it, numbered in
    the order they joined.  Back-substitution then clears every leader from
    the other basis words.  Returns, in increasing leader order, the leader
    bit positions, the reduced words and their source masks, and the
    positions in words of the sources.
    """
    touched = 0
    for v in words:
        touched |= v
    most = touched.bit_count()
    basis: dict[int, int] = {}  # leader bit -> source mask << 64 | word
    sources: list[int] = []
    for i, v in enumerate(words):
        if not v:
            continue
        v |= 1 << (64 + len(sources))
        while True:
            low = v & -v
            if low >> 64:  # the word reduced to zero
                break
            hit = basis.get(low)
            if hit is None:
                basis[low] = v
                sources.append(i)
                break
            v ^= hit
        if len(sources) == most:
            break
    lows = sorted(basis)
    reduced: dict[int, int] = {}
    for low in reversed(lows):
        v = basis[low]
        for high, hv in reduced.items():
            if v & high:
                v ^= hv
        reduced[low] = v
    return ([low.bit_length() - 1 for low in lows], [reduced[low] & _WORD for low in lows],
            [reduced[low] >> 64 for low in lows], sources)


def _xor_gather(out: np.ndarray, index_bytes: np.ndarray, rows: np.ndarray, groups) -> None:
    """out ^= the XOR of rows[8g + b] over the set bits b of byte g of the
    matching row of index_bytes, for each g in groups: one gather from a
    256-entry table of XORs per group of eight packed rows."""
    width = rows.shape[1]
    part = rows.reshape(-1, 8, width)[groups]
    T = np.zeros((len(groups), 256, width), dtype=np.uint64)
    for b in range(8):
        lo = 1 << b
        np.bitwise_xor(T[:, :lo], part[:, b, None], out=T[:, lo : 2 * lo])
    for table, g in zip(T, groups):
        out ^= table[index_bytes[:, g]]


def _rref_packed(bits: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """GF(2) reduced row echelon form on rows packed 64 columns to a word,
    by the Method of Four Russians (Albrecht, Bard and Pernet, 2011): one
    pass per word column (a panel) clears up to 64 pivot columns.

    1. The panel words of the rows from the current rank down go, as Python
       ints, into a reduced echelon basis (_panel_basis).  Left of the panel
       those rows are already zero, so its leaders are the panel's pivot
       columns, the leftmost independent ones.
    2. The full-width reduced pivot rows R are formed from the rows that
       became leaders (the sources), through 8-bit XOR tables over the
       sources' masks.  R is the identity on the pivot columns, so any row
       is cleared by XORing the rows of R at its own pivot-column bits: one
       table gather per group of eight pivots, indexed by the bytes of its
       panel word.  The sources lie in R's row space and are dropped.
    3. R moves up to the current rank.

    A matrix has one reduced row echelon form, so the result, rank and
    pivots are those of column-at-a-time elimination, whatever rows are
    combined on the way.  A matrix of at most 64 columns is one panel whose
    rows all go into the basis, so it is finished in Python ints.
    """
    r, c = bits.shape
    if r == 0 or c == 0:
        return bits.copy(), 0, ()
    P = _pack_rows(bits)
    words = P.shape[1]
    if words == 1:
        cols, rows, _, _ = _panel_basis(P[:, 0].tolist())
        out = np.zeros((r, 1), dtype=np.uint64)
        out[: len(rows), 0] = rows
        return _unpack_rows(out, c), len(rows), tuple(cols)
    pivots: list[int] = []
    cur = 0
    for w in range(words):
        if cur == r:
            break
        live = cur + np.flatnonzero(P[cur:, w])
        cols, _, masks, sources = _panel_basis(P[live, w].tolist())
        k = len(cols)
        if not k:
            continue
        src = live[sources]
        # reduced pivot rows over words w on (the words before are zero)
        groups = list(range((k + 7) // 8))
        S = np.zeros((8 * len(groups), words - w), dtype=np.uint64)
        S[:k] = P[src, w:]
        R = np.zeros((k, words - w), dtype=np.uint64)
        mask_bytes = np.array(masks, dtype=np.uint64).view(np.uint8).reshape(k, 8)
        _xor_gather(R, mask_bytes, S, groups)
        # the sources lie in R's row space, so they are dropped, not cleared
        clear = (P[:, w] & np.uint64(sum(1 << col for col in cols))) != 0
        clear[src] = False
        hit = np.flatnonzero(clear)
        if hit.size:
            at_bit = np.zeros((64, words - w), dtype=np.uint64)
            at_bit[cols] = R
            block = P[hit, w:]
            # a copy: the gathers below change the panel words
            panel_bytes = block[:, 0].copy().view(np.uint8).reshape(-1, 8)
            _xor_gather(block, panel_bytes, at_bit, sorted({col >> 3 for col in cols}))
            P[hit, w:] = block
        # rows cur..top-1 that are not sources move to the places of the
        # sources below them, and R takes rows cur..top-1
        top = cur + k
        taken = set(src.tolist())
        moved = [i for i in range(cur, top) if i not in taken]
        if moved:
            P[src[-len(moved):]] = P[moved]
        P[cur:top, w:] = R
        pivots.extend(64 * w + col for col in cols)
        cur = top
    return _unpack_rows(P, c), cur, tuple(pivots)


def _rref_generic(a: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, int, tuple[int, ...]]:
    add, mulf, neg, inv = _field_ops(field)
    R = a.copy()
    r, c = R.shape
    pivots: list[int] = []
    cur = 0
    for col in range(c):
        if cur == r:
            break
        nz = np.nonzero(R[cur:, col])[0]
        if nz.size == 0:
            continue
        piv = cur + int(nz[0])
        if piv != cur:
            R[[cur, piv]] = R[[piv, cur]]
        if R[cur, col] != 1:
            R[cur] = mulf(inv(R[cur, col]), R[cur])
        others = np.nonzero(R[:, col])[0]
        others = others[others != cur]
        if others.size:
            R[others] = add(R[others], mulf(neg(R[others, col])[:, None], R[cur][None, :]))
        pivots.append(col)
        cur += 1
    return R, cur, tuple(pivots)


def rref(M: MatrixGF) -> RrefResult:
    """Reduced row echelon form with rank and pivot columns: the packed
    kernel over GF(2), the field-ops kernel otherwise.  The field-ops
    kernel also runs on GF(2); it is the reference the packed kernel is
    tested against."""
    field = M.field
    if field.size == 2:
        R, rk, piv = _rref_packed(M.data)
    else:
        R, rk, piv = _rref_generic(M.data, field)
    return RrefResult(MatrixGF(field, R), rk, piv)


def rank(M: MatrixGF) -> int:
    return rref(M).rank


# ------------------------------------------------------------ nullspace

def nullspace(M: MatrixGF) -> MatrixGF:
    """Full-rank basis B of the right kernel: M B^T = 0, rows = cols - rank.

    Row j of B sets free (non-pivot) column f_j to 1 and each pivot column
    p_i to minus entry (i, f_j) of rref(M), the only kernel vector that is
    zero on the other free columns.  So B depends on rref(M) alone, which
    is unique, whichever kernel computed it.  B^T is built row by row, its
    pivot rows being the free columns of rref(M), and transposed in tiles.
    """
    field = M.field
    rr = rref(M)
    is_free = np.ones(M.cols, dtype=bool)
    is_free[list(rr.pivots)] = False
    free = np.flatnonzero(is_free)
    Bt = np.zeros((M.cols, free.size), dtype=_dtype_for(field.size))
    Bt[free, np.arange(free.size)] = 1
    if rr.rank and free.size:
        neg = (lambda a: a) if field.p == 2 else _field_ops(field)[2]
        Bt[list(rr.pivots)] = neg(np.take(rr.matrix.data[: rr.rank], free, axis=1))
    del rr  # freed before the transposed copy is made
    return MatrixGF(field, _transposed(Bt))


# tile side for _transposed: a tile pair fits in cache
_TILE = 256


def _transposed(a: np.ndarray) -> np.ndarray:
    """a.T as a contiguous array, copied one square tile at a time; one
    strided copy of a large matrix runs several times slower."""
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    for i in range(0, a.shape[0], _TILE):
        for j in range(0, a.shape[1], _TILE):
            out[j : j + _TILE, i : i + _TILE] = a[i : i + _TILE, j : j + _TILE].T
    return out


# ------------------------------------------------------------- products

# float32 holds every integer below 2^24 exactly, so a GF(2) product summed
# over at most this many inner terms has an exact integer value, which the
# cast to int32 keeps; its low bit is the parity
_F32_EXACT_TERMS = 2**24 - 1


def mul(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    field = A.field
    if B.field is not field and B.field != field:
        raise ValueError("matrix product across different fields")
    a, b = A.data, B.data
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    if field.size == 2:
        t = _F32_EXACT_TERMS
        if a.shape[1] <= t:
            parity = np.matmul(a, b, dtype=np.float32).astype(np.int32)
        else:  # one exact product per chunk of t inner terms, XORed
            parity = np.matmul(a[:, :t], b[:t], dtype=np.float32).astype(np.int32)
            for s in range(t, a.shape[1], t):
                part = np.matmul(a[:, s : s + t], b[s : s + t], dtype=np.float32)
                parity ^= part.astype(np.int32)
        parity &= 1
        return MatrixGF._wrap(field, parity.astype(np.uint8))
    add, mulf, _, _ = _field_ops(field)
    C = np.zeros((A.rows, B.cols), dtype=_dtype_for(field.size))
    for k in range(A.cols):
        C = add(C, mulf(A.data[:, k, None], B.data[None, k, :]))
    return MatrixGF._wrap(field, C)


_SPAN_CHUNK = 4096


def _span_chunks(G: MatrixGF):
    """Every vector of G's row space, as arrays of up to _SPAN_CHUNK rows:
    row i of the whole sequence is the combination of G's rows whose
    coefficients are the base-q digits of i, least significant first, so the
    zero vector comes first.  The caller bounds q^G.rows, the number of rows."""
    q = G.field.size
    total = q**G.rows
    pows = q ** np.arange(G.rows, dtype=np.int64)
    for lo in range(0, total, _SPAN_CHUNK):
        idx = np.arange(lo, min(lo + _SPAN_CHUNK, total), dtype=np.int64)
        msgs = ((idx[:, None] // pows[None, :]) % q).astype(G.data.dtype)
        yield mul(MatrixGF(G.field, msgs), G).data


def transpose(A: MatrixGF) -> MatrixGF:
    return MatrixGF(A.field, A.data.T)


def kron(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    if A.field != B.field:
        raise ValueError("kron across different fields")
    # one scaled copy of B per distinct entry of A, gathered into place
    vals, which = np.unique(A.data, return_inverse=True)
    blocks = _field_ops(A.field)[1](vals[:, None, None], B.data[None])[which.reshape(A.shape)]
    out = blocks.transpose(0, 2, 1, 3).reshape(A.rows * B.rows, A.cols * B.cols)
    return MatrixGF(A.field, out)


def hstack(mats: list[MatrixGF]) -> MatrixGF:
    field = mats[0].field
    if any(m.field != field for m in mats):
        raise ValueError("hstack across different fields")
    return MatrixGF(field, np.hstack([m.data for m in mats]))


def vstack(mats: list[MatrixGF]) -> MatrixGF:
    field = mats[0].field
    if any(m.field != field for m in mats):
        raise ValueError("vstack across different fields")
    return MatrixGF(field, np.vstack([m.data for m in mats]))


# -------------------------------------------------------- standard form

def standard_form(G: MatrixGF) -> tuple[MatrixGF, np.ndarray]:
    """Row-reduce and permute columns to [I | P]; returns the permutation used."""
    rr = rref(G)
    if rr.rank < G.rows:
        raise ValueError(f"standard form needs full row rank, got {rr.rank} < {G.rows}")
    piv = list(rr.pivots)
    pivset = set(piv)
    rest = [j for j in range(G.cols) if j not in pivset]
    perm = np.array(piv + rest, dtype=np.int64)
    return MatrixGF(G.field, rr.matrix.data[:, perm]), perm


# ----------------------------------------------------- solve / rowspace

def reduce_vector(rr: RrefResult, v: np.ndarray) -> np.ndarray:
    """Residual of v after removing its row-space component of rr.

    Because rr is fully reduced, the coefficient of row i is just v[pivots[i]],
    so the reduction is a single pass.
    """
    field = rr.matrix.field
    v = np.asarray(v)
    R = rr.matrix.data[: rr.rank]
    coeffs = v[list(rr.pivots)]
    if field.size == 2:
        return (v ^ np.bitwise_xor.reduce(R[coeffs == 1], axis=0)).astype(v.dtype)
    add, mulf, neg, _ = _field_ops(field)
    out = v
    for c, row in zip(coeffs, R):
        if c:
            out = add(out, mulf(neg(c), row))
    return out.astype(v.dtype)


def in_rowspace(rr: RrefResult, v: np.ndarray) -> bool:
    return not reduce_vector(rr, v).any()


def _column(field: FieldSpec, v) -> MatrixGF:
    """The vector v as a one-column matrix over field.  An entry outside
    [0, q) is refused before the cast to the field's dtype could wrap it;
    one max suffices when v already has that dtype."""
    v = np.asarray(v).reshape(-1)
    col = v.astype(_dtype_for(field.size))
    if v.size:
        hi = np.maximum.reduce(v)
        lo = 0 if v.dtype == col.dtype else np.minimum.reduce(v)
        if hi >= field.size or lo < 0:
            raise ValueError(f"entry {hi if hi >= field.size else lo} out of range for {field}")
    return MatrixGF._wrap(field, col[:, None])


@dataclass(frozen=True)
class Solver:
    """A factored once for repeated solves of A x = b.

    One rref of [A | I] gives an invertible T with T·A = rref(A): for b in
    A's column space the first rank entries of T·b are the pivot values of
    a solution, and b lies there exactly when the other entries are zero.
    transform is T's rows rearranged so that one product gives both: row j
    of its first cols rows is T's row for pivot column j (zero for a free
    column), and T's rows below the rank follow.
    """

    transform: MatrixGF
    cols: int

    def solve(self, b: np.ndarray):
        """One solution x of A x = b, or None if the system is inconsistent."""
        T = self.transform
        col = _column(T.field, b)
        if col.rows != T.cols:
            raise ValueError("right-hand side length mismatch")
        tb = mul(T, col).data[:, 0]
        if np.count_nonzero(tb[self.cols :]):
            return None
        return tb[: self.cols].copy()


def solver(A: MatrixGF) -> Solver:
    """Factor A once (see Solver)."""
    rr = rref(hstack([A, identity(A.field, A.rows)]))
    rank = sum(p < A.cols for p in rr.pivots)
    T = rr.matrix.data[:, A.cols :]
    rows = np.zeros((A.cols + A.rows - rank, A.rows), dtype=T.dtype)
    rows[list(rr.pivots[:rank])] = T[:rank]
    rows[A.cols :] = T[rank:]
    return Solver(MatrixGF._wrap(A.field, rows), A.cols)


def solve(A: MatrixGF, b: np.ndarray):
    """One solution x of A x = b, or None if the system is inconsistent:
    solver(A).solve(b), for a single right-hand side."""
    return solver(A).solve(b)


# ----------------------------------------------------------- text format

def rows_to_text(data: np.ndarray, q: int) -> str:
    """The canonical text of a stack of rows of GF(q) element indices: each
    row on its own line, entries in decimal one space apart, every line
    ending in a newline.

    With single-digit entries (q <= 10) the text is built as one byte array,
    entry + '0' in the even positions and a space or newline in the odd
    ones, and decoded once; wider entries are joined row by row.
    """
    rows, cols = data.shape
    if q > 10 or cols == 0:
        digits = [str(v) for v in range(q)]
        return "".join(" ".join(map(digits.__getitem__, row)) + "\n" for row in data.tolist())
    buf = np.empty((rows, 2 * cols), dtype=np.uint8)
    np.add(data, ord("0"), out=buf[:, ::2], casting="unsafe")
    buf[:, 1::2] = ord(" ")
    buf[:, -1] = ord("\n")
    return str(buf.data, "ascii")


def mat_to_text(M: MatrixGF) -> str:
    return f"{M.q} {M.rows} {M.cols}\n" + rows_to_text(M.data, M.q)


def bundle_line(lines: list[str], at: int, section: str) -> str:
    """lines[at], or a ValueError naming the section the text ends before.

    Line numbers in messages count the non-blank lines the readers keep.
    """
    if at >= len(lines):
        raise ValueError(f"text ends before {section} (line {at + 1})")
    return lines[at]


def bundle_key(lines: list[str], at: int, keys: dict) -> tuple[str, list]:
    """The key line lines[at], "key v1 ... vm", as (key, [v1, ..., vm]).

    keys maps each key the bundle allows to the types of its values; any
    other key, value count or value is a ValueError naming the line.
    """
    key, *values = bundle_line(lines, at, f"the {' or '.join(keys)} line").split()
    types = keys.get(key)
    if types is None:
        raise ValueError(f"line {at + 1}: unknown bundle key {key!r}")
    if len(values) != len(types):
        raise ValueError(f"line {at + 1}: expected {len(types)} value(s) after {key}, "
                         f"got {len(values)}")
    try:
        return key, [kind(v) for kind, v in zip(types, values)]
    except ValueError:
        raise ValueError(f"line {at + 1}: bad {key} line {lines[at]!r}") from None


def bundle_header(lines: list[str], tag: str) -> tuple[int, int, int]:
    """(q, n, k) from a bundle's first line, which must read "tag q n k"."""
    if bundle_line(lines, 0, f"the {tag} header").split()[0] != tag:
        raise ValueError(f"not a {tag} bundle: {lines[0]!r}")
    _, (q, n, k) = bundle_key(lines, 0, {tag: (int,) * 3})
    return q, n, k


def bundle_columns(M: MatrixGF, width: int, section: str) -> None:
    """ValueError unless M, read as section, has the width that the bundle
    header's length calls for."""
    if M.cols != width:
        raise ValueError(f"{section} has {M.cols} columns, expected {width} from the header")


# bytes of row text converted at once by take_matrix's canonical path, which
# bounds its transient memory
_TEXT_CHUNK_BYTES = 1 << 17


def take_matrix(lines: list[str], at: int, section: str) -> tuple[MatrixGF, int]:
    """Read the matrix block starting at lines[at]: a "q rows cols" header,
    then one line of entries per row. Returns the matrix and the index of
    the line after the block."""
    head = bundle_line(lines, at, f"the {section} header").split()
    try:
        q, rows, cols = map(int, head)
    except ValueError:
        raise ValueError(f"line {at + 1}: {section} header must read 'q rows cols', "
                         f"got {lines[at]!r}") from None
    if rows < 0 or cols < 0:
        raise ValueError(f"line {at + 1}: {section} has negative shape {rows} x {cols}")
    try:
        field = field_of_size(q)
    except ValueError as exc:
        raise ValueError(f"line {at + 1}: {section}: {exc}") from None
    try:
        data = np.empty((rows, cols), dtype=_dtype_for(q))
    except (MemoryError, ValueError):
        raise ValueError(f"line {at + 1}: {section} shape {rows} x {cols} is too large") from None
    # canonical rows (see rows_to_text) convert a chunk at a time; any other
    # chunk goes through the row-by-row reader, which also words every error
    canonical = q <= 10 and cols > 0
    step = max(1, _TEXT_CHUNK_BYTES // (2 * cols)) if canonical else max(1, rows)
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        block = lines[at + 1 + lo : at + 1 + hi]
        if not (canonical and _take_canonical(block, data[lo:hi], q)):
            _take_rows(lines, at, section, field, data, lo, hi)
    return MatrixGF(field, data), at + 1 + rows


def _take_canonical(block: list[str], out: np.ndarray, q: int) -> bool:
    """Convert block, one line per row of out, into out when every line is
    canonical: exactly 2 * cols - 1 characters, a space at each odd
    position and a digit below q at each even one.  Returns False, leaving
    out in an unspecified state, when any line is not."""
    rows, cols = out.shape
    width = 2 * cols - 1
    if len(block) != rows or any(len(line) != width for line in block):
        return False
    try:
        raw = "".join(block).encode("ascii")
    except UnicodeEncodeError:
        return False
    chars = np.frombuffer(raw, dtype=np.uint8).reshape(rows, width)
    if (chars[:, 1::2] != ord(" ")).any():
        return False
    # uint8 wraps below '0', so one bound test rejects every non-digit
    np.subtract(chars[:, ::2], ord("0"), out=out)
    return not (out >= q).any()


def _take_rows(lines: list[str], at: int, section: str, field: FieldSpec,
               data: np.ndarray, lo: int, hi: int) -> None:
    """Parse rows lo..hi of the block whose header is lines[at] into data,
    one line at a time, accepting any whitespace between entries."""
    q = field.size
    cols = data.shape[1]
    for i in range(lo, hi):
        text = bundle_line(lines, at + 1 + i, f"{section} row {i}")
        where = f"line {at + 2 + i}: {section} row {i}"
        # parse as int64 and range-check before narrowing to the storage dtype
        try:
            row = np.fromstring(text, dtype=np.int64, sep=" ")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if row.size != cols:
            raise ValueError(f"{where} has {row.size} entries, expected {cols}")
        bad = row[(row < 0) | (row >= q)]
        if bad.size:
            raise ValueError(f"{where}: entry {bad[0]} out of range for {field}")
        data[i] = row


def mat_from_text(text: str) -> MatrixGF:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    M, end = take_matrix(lines, 0, "matrix")
    if end != len(lines):
        raise ValueError(f"expected {M.rows} rows, found {len(lines) - 1}")
    return M
