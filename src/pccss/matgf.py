"""Dense matrices over GF(q): echelon forms, nullspaces, products, standard form.

Entries are stored as element indices in a numpy array (uint8 when q <= 256,
int64 above). Arithmetic takes one of two paths:

- GF(2) works on words: elimination runs bit-packed, 64 columns per machine
  word, products are float32 BLAS products reduced mod 2 (exact, since the
  inner dimension is split into chunks below 2^24), and row-space reduction
  XORs rows.
- Every other field goes through one cached provider of elementwise
  (add, mul, neg, inv) over index arrays: q x q lookup tables up to q = 256,
  scalar FieldSpec calls above that (only small matrices live there).

Pivot choice is leftmost column, topmost row, in both paths, so echelon
forms are canonical and golden-file comparable.

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


def _rref_packed(bits: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    r, c = bits.shape
    if r == 0 or c == 0:
        return bits.copy(), 0, ()
    P = _pack_rows(bits)
    one = np.uint64(1)
    pivots: list[int] = []
    cur = 0
    for col in range(c):
        if cur == r:
            break
        w = col >> 6
        b = np.uint64(col & 63)
        nz = np.nonzero((P[cur:, w] >> b) & one)[0]
        if nz.size == 0:
            continue
        piv = cur + int(nz[0])
        if piv != cur:
            P[[cur, piv]] = P[[piv, cur]]
        mask = ((P[:, w] >> b) & one).astype(bool)
        mask[cur] = False
        if mask.any():
            P[mask] ^= P[cur]
        pivots.append(col)
        cur += 1
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


def rref(M: MatrixGF, method: str = "auto") -> RrefResult:
    """Reduced row echelon form with rank and pivot columns.

    method="generic" forces the field-ops kernel on GF(2) too; it is the
    reference the packed kernel is tested against.
    """
    field = M.field
    if method not in ("auto", "packed", "generic"):
        raise ValueError(f"unknown rref method {method!r}")
    if method == "packed" and field.size != 2:
        raise ValueError("packed elimination only applies to GF(2)")
    if field.size == 2 and method != "generic":
        R, rk, piv = _rref_packed(M.data)
    else:
        R, rk, piv = _rref_generic(M.data, field)
    return RrefResult(MatrixGF(field, R), rk, piv)


def rank(M: MatrixGF) -> int:
    return rref(M).rank


# ------------------------------------------------------------ nullspace

def nullspace(M: MatrixGF) -> MatrixGF:
    """Full-rank basis B of the right kernel: M B^T = 0, rows = cols - rank."""
    field = M.field
    rr = rref(M)
    piv = list(rr.pivots)
    pivset = set(piv)
    free = [j for j in range(M.cols) if j not in pivset]
    B = np.zeros((len(free), M.cols), dtype=_dtype_for(field.size))
    if free:
        B[np.arange(len(free)), free] = 1
        if piv:
            # coefficients of the pivot variables, one row per free column
            block = rr.matrix.data[: rr.rank, free].T
            B[:, piv] = _field_ops(field)[2](block)
    return MatrixGF(field, B)


# ------------------------------------------------------------- products

# float32 holds every integer below 2^24 exactly, so a GF(2) product summed
# over at most this many inner terms has an exact integer value
_F32_EXACT_TERMS = 2**24 - 1


def mul(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    if A.field != B.field:
        raise ValueError("matrix product across different fields")
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    field = A.field
    if field.size == 2:
        C = np.zeros((A.rows, B.cols), dtype=np.uint8)
        for s in range(0, A.cols, _F32_EXACT_TERMS):
            t = s + _F32_EXACT_TERMS
            part = A.data[:, s:t].astype(np.float32) @ B.data[s:t].astype(np.float32)
            C ^= (part % 2).astype(np.uint8)
        return MatrixGF(field, C)
    add, mulf, _, _ = _field_ops(field)
    C = np.zeros((A.rows, B.cols), dtype=_dtype_for(field.size))
    for k in range(A.cols):
        C = add(C, mulf(A.data[:, k, None], B.data[None, k, :]))
    return MatrixGF(field, C)


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


@dataclass(frozen=True)
class Solver:
    """A factored once for repeated solves of A x = b.

    transform is the invertible T from one rref of [A | I]: the left block
    of that rref is T·A = rref(A), so for b in A's column space the first
    rank entries of T·b are the pivot values of a solution, and b lies there
    exactly when the other entries are zero.
    """

    transform: MatrixGF
    pivots: tuple[int, ...]
    cols: int

    def solve(self, b: np.ndarray):
        """One solution x of A x = b, or None if the system is inconsistent."""
        T = self.transform
        b = np.asarray(b).reshape(-1)
        if b.shape[0] != T.cols:
            raise ValueError("right-hand side length mismatch")
        tb = mul(T, MatrixGF(T.field, b.reshape(-1, 1).astype(T.data.dtype))).data[:, 0]
        rk = len(self.pivots)
        if tb[rk:].any():
            return None
        x = np.zeros(self.cols, dtype=T.data.dtype)
        x[list(self.pivots)] = tb[:rk]
        return x


def solver(A: MatrixGF) -> Solver:
    """Factor A once (see Solver)."""
    rr = rref(hstack([A, identity(A.field, A.rows)]))
    pivots = tuple(p for p in rr.pivots if p < A.cols)
    return Solver(MatrixGF(A.field, rr.matrix.data[:, A.cols :]), pivots, A.cols)


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
