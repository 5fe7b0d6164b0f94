"""Matrix algebra over GF(q), checked against brute-force enumeration oracles."""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccss import bundle, matgf
from pccss.bundle import mat_from_text, mat_to_text
from pccss.codes import make_expander
from pccss.decode import syndrome_of
from pccss.galois import GF2, FieldSpec, field_of_size
from pccss.matgf import (
    MatrixGF,
    identity,
    in_rowspace,
    kron,
    mul,
    nullspace,
    rank,
    reduce_vector,
    rref,
    solve,
    solver,
    standard_form,
    transpose,
    zeros,
)

GF4 = field_of_size(4)
GF5 = field_of_size(5)
# fields above the 256-element table limit: the scalar FieldSpec path
LARGE = [field_of_size(625), field_of_size(8192)]


def brute_nullspace_vectors(M: MatrixGF) -> set[tuple[int, ...]]:
    """All vectors v with M v^T = 0, by enumerating q^cols candidates."""
    f = M.field
    out = set()
    for cand in itertools.product(range(f.size), repeat=M.cols):
        ok = True
        for row in M.data:
            acc = 0
            for h, v in zip(row, cand):
                acc = f.add(acc, f.mul(int(h), v))
            if acc != 0:
                ok = False
                break
        if ok:
            out.add(cand)
    return out


def loop_product(f, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B by scalar field calls."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i, j in itertools.product(range(A.shape[0]), range(B.shape[1])):
        acc = 0
        for k in range(A.shape[1]):
            acc = f.add(acc, f.mul(int(A[i, k]), int(B[k, j])))
        out[i, j] = acc
    return out


def with_dependent_row(f, rng, rows: int, cols: int) -> np.ndarray:
    """Random matrix whose last row is a random combination of the others."""
    data = rng.integers(0, f.size, size=(rows, cols))
    coeffs = rng.integers(0, f.size, size=(1, rows - 1))
    data[-1] = loop_product(f, coeffs, data[:-1])[0]
    return data


def span(M: MatrixGF) -> set[tuple[int, ...]]:
    f = M.field
    out = set()
    for coeffs in itertools.product(range(f.size), repeat=M.rows):
        acc = [0] * M.cols
        for c, row in zip(coeffs, M.data):
            for j in range(M.cols):
                acc[j] = f.add(acc[j], f.mul(c, int(row[j])))
        out.add(tuple(acc))
    return out


# ---------------------------------------------------------------- rref

def test_rref_identity_full_rank():
    M = identity(GF2, 3)
    rr = rref(M)
    assert rr.rank == 3
    assert rr.pivots == (0, 1, 2)
    assert np.array_equal(rr.matrix.data, M.data)


def test_rref_duplicate_rows():
    M = MatrixGF(GF2, [[1, 1], [1, 1]])
    assert rref(M).rank == 1


def test_rref_gf5_dependent_rows():
    M = MatrixGF(GF5, [[1, 2], [2, 4]])
    rr = rref(M)
    assert rr.rank == 1
    assert rr.pivots == (0,)
    assert list(rr.matrix.data[0]) == [1, 2]


def test_rref_pivots_strictly_increasing_and_reduced():
    rng = np.random.default_rng(5)
    for field in (GF2, GF4, GF5):
        for _ in range(25):
            M = MatrixGF(field, rng.integers(0, field.size, size=(6, 9)))
            rr = rref(M)
            assert list(rr.pivots) == sorted(set(rr.pivots))
            R = rr.matrix.data
            for i, p in enumerate(rr.pivots):
                assert R[i, p] == 1
                col = R[:, p]
                assert col.sum() == 1  # reduced: pivot column is a unit vector
            assert not R[rr.rank:].any()


@pytest.mark.parametrize("q", [3, 9])
def test_rref_pivots_are_the_leftmost_independent_columns(q):
    field = field_of_size(q)
    rng = np.random.default_rng(q)
    for _ in range(5):
        data = with_dependent_row(field, rng, 3, 5)
        data[:, 1] = 0
        M = MatrixGF(field, data)
        rr = rref(M)
        # column j is a pivot exactly when it raises the rank of the columns before it
        sizes = [len(span(MatrixGF(field, data[:, :j]))) for j in range(6)]
        assert rr.pivots == tuple(j for j in range(5) if sizes[j + 1] > sizes[j])
        R = rr.matrix.data
        for i, p in enumerate(rr.pivots):
            assert not R[i, :p].any()
            assert R[:, p].tolist() == [int(i == r) for r in range(3)]
        assert not R[rr.rank:].any()
        assert span(rr.matrix) == span(M)


def test_rref_preserves_row_space():
    rng = np.random.default_rng(6)
    M = MatrixGF(GF4, rng.integers(0, 4, size=(3, 4)))
    assert span(M) == span(rref(M).matrix)


# ------------------------------------------------------------ nullspace

def test_nullspace_single_parity_row():
    M = MatrixGF(GF2, [[1, 1, 1]])
    B = nullspace(M)
    assert B.rows == 2
    assert span(B) == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_nullspace_identity_is_empty():
    B = nullspace(identity(GF2, 4))
    assert B.rows == 0 and B.cols == 4


def test_nullspace_zero_matrix_is_full():
    B = nullspace(zeros(GF2, 2, 3))
    assert B.rows == 3
    assert rank(B) == 3


@pytest.mark.parametrize("field", [GF2, GF4, GF5], ids=str)
def test_nullspace_annihilates_and_matches_enumeration(field):
    rng = np.random.default_rng(7)
    M = MatrixGF(field, rng.integers(0, field.size, size=(2, 4)))
    B = nullspace(M)
    prod = mul(M, transpose(B))
    assert not prod.data.any()
    assert span(B) == brute_nullspace_vectors(M)


@pytest.mark.parametrize("field", LARGE, ids=lambda f: f"q{f.size}")
def test_nullspace_over_large_fields_annihilates(field):
    rng = np.random.default_rng(field.size)
    M = MatrixGF(field, with_dependent_row(field, rng, 3, 5))
    B = nullspace(M)
    assert B.rows == 5 - rank(M) == 3
    assert rank(B) == B.rows
    assert not loop_product(field, M.data, B.data.T).any()


# ------------------------------------------------------- mul / transpose

def test_mul_repetition_check_annihilates_generator():
    H0 = MatrixGF(GF2, [[1, 0, 1], [0, 1, 1]])
    G0 = MatrixGF(GF2, [[1, 1, 1]])
    assert not mul(H0, transpose(G0)).data.any()


def test_mul_against_field_loops():
    rng = np.random.default_rng(8)
    for field in (GF2, GF4, GF5, FieldSpec(2, 1, 4), *LARGE):
        A = MatrixGF(field, rng.integers(0, field.size, size=(3, 4)))
        B = MatrixGF(field, rng.integers(0, field.size, size=(4, 2)))
        C = mul(A, B)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = field.add(acc, field.mul(int(A.data[i, k]), int(B.data[k, j])))
                assert C.data[i, j] == acc


def int64_product_mod2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A.astype(np.int64) @ B.astype(np.int64) % 2


GF2_SHAPES = [(0, 4, 3), (3, 4, 0), (3, 0, 5), (0, 0, 0), (1, 1, 1), (7, 64, 9), (33, 200, 17)]


@pytest.mark.parametrize("m,k,n", GF2_SHAPES)
def test_gf2_mul_matches_int64_reference(m, k, n):
    rng = np.random.default_rng(m * 1000 + k * 10 + n)
    A = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
    B = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    C = mul(MatrixGF(GF2, A), MatrixGF(GF2, B))
    assert C.data.dtype == np.uint8 and C.shape == (m, n)
    assert np.array_equal(C.data, int64_product_mod2(A, B))
    # a transposed (strided) right operand, as in G·Hᵀ
    Bt = MatrixGF(GF2, B.T.copy())
    assert np.array_equal(mul(MatrixGF(GF2, A), transpose(Bt)).data, C.data)


def test_gf2_mul_sums_inner_chunks(monkeypatch):
    """With the exact-term limit lowered, products split the inner dimension
    into several chunks and XOR their parities."""
    rng = np.random.default_rng(12)
    A = rng.integers(0, 2, size=(6, 50), dtype=np.uint8)
    B = rng.integers(0, 2, size=(50, 4), dtype=np.uint8)
    ones = np.ones((1, 50), dtype=np.uint8)
    for terms in (1, 3, 7, 49, 50):
        monkeypatch.setattr(matgf, "_F32_EXACT_TERMS", terms)
        assert np.array_equal(mul(MatrixGF(GF2, A), MatrixGF(GF2, B)).data,
                              int64_product_mod2(A, B))
        assert mul(MatrixGF(GF2, ones), MatrixGF(GF2, ones.T)).data.tolist() == [[0]]
        odd = MatrixGF(GF2, ones[:, :49])
        assert mul(odd, transpose(odd)).data.tolist() == [[1]]


# row i of A holds WIDE_SUMS[i] ones, so every entry of row i of A·ones is
# that sum: odd and even values on both sides of 255 and of 65535
WIDE_SUMS = [255, 256, 300, 301, 65535, 65536, 70000, 70001]


@pytest.mark.parametrize("terms", [None, 257, 65536, 70000])
def test_gf2_mul_parity_of_sums_beyond_a_byte(monkeypatch, terms):
    """Parity is taken from the exact chunk sums, not from a narrowed copy:
    a cast that saturates or wraps at 255 or 65535 gets some rows wrong."""
    if terms is not None:
        monkeypatch.setattr(matgf, "_F32_EXACT_TERMS", terms)
    k = max(WIDE_SUMS)
    A = (np.arange(k)[None, :] < np.array(WIDE_SUMS)[:, None]).astype(np.uint8)
    ones = np.ones((k, 3), dtype=np.uint8)
    C = mul(MatrixGF(GF2, A), MatrixGF(GF2, ones)).data
    assert np.array_equal(C, int64_product_mod2(A, ones))
    assert C[:, 0].tolist() == [s % 2 for s in WIDE_SUMS]
    full = MatrixGF(GF2, np.ones((2, 70001), dtype=np.uint8))
    assert mul(full, MatrixGF(GF2, np.ones((70001, 3), dtype=np.uint8))).data.tolist() == [[1] * 3] * 2


def test_transpose_involution():
    rng = np.random.default_rng(9)
    A = MatrixGF(GF4, rng.integers(0, 4, size=(3, 5)))
    assert transpose(transpose(A)) == A


# --------------------------------------------------------- standard form

def test_standard_form_single_row():
    S, perm = standard_form(MatrixGF(GF2, [[1, 1, 1]]))
    assert list(perm) == [0, 1, 2]
    assert list(S.data[0]) == [1, 1, 1]


def test_standard_form_shape_and_equivalence():
    rng = np.random.default_rng(10)
    for field in (GF2, GF4):
        while True:
            G = MatrixGF(field, rng.integers(0, field.size, size=(3, 6)))
            if rank(G) == 3:
                break
        S, perm = standard_form(G)
        assert np.array_equal(S.data[:, :3], identity(field, 3).data)
        # row space of S equals row space of G with columns permuted
        Gp = MatrixGF(field, G.data[:, perm])
        assert span(S) == span(Gp)


def test_standard_form_rejects_rank_deficient():
    with pytest.raises(ValueError):
        standard_form(MatrixGF(GF2, [[1, 1], [1, 1]]))


# ----------------------------------------------------------------- kron

def test_kron_block_structure():
    I2 = identity(GF2, 2)
    H0 = MatrixGF(GF2, [[1, 0, 1], [0, 1, 1]])
    K = kron(I2, H0)
    assert K.rows == 4 and K.cols == 6
    assert np.array_equal(K.data[:2, :3], H0.data)
    assert np.array_equal(K.data[2:, 3:], H0.data)
    assert not K.data[:2, 3:].any() and not K.data[2:, :3].any()


def test_kron_over_gf4_matches_loops():
    rng = np.random.default_rng(11)
    A = MatrixGF(GF4, rng.integers(0, 4, size=(2, 2)))
    B = MatrixGF(GF4, rng.integers(0, 4, size=(2, 3)))
    K = kron(A, B)
    for i, j, k, l in itertools.product(range(2), range(2), range(2), range(3)):
        assert K.data[i * 2 + k, j * 3 + l] == GF4.mul(int(A.data[i, j]), int(B.data[k, l]))


@pytest.mark.parametrize("field", LARGE, ids=lambda f: f"q{f.size}")
def test_kron_over_large_fields_matches_loops(field):
    rng = np.random.default_rng(field.size)
    A = MatrixGF(field, rng.integers(0, field.size, size=(2, 3)))
    B = MatrixGF(field, rng.integers(0, field.size, size=(2, 2)))
    K = kron(A, B)
    for i, j, k, l in itertools.product(range(2), range(3), range(2), range(2)):
        assert K.data[i * 2 + k, j * 2 + l] == field.mul(int(A.data[i, j]), int(B.data[k, l]))


# ------------------------------------------------------- solve / rowspace

def test_solve_consistent_and_inconsistent():
    A = MatrixGF(GF2, [[1, 1, 0], [0, 1, 1]])
    b = np.array([1, 0], dtype=np.uint8)
    x = solve(A, b)
    assert x is not None
    assert np.array_equal(mul(A, MatrixGF(GF2, x.reshape(-1, 1))).data.ravel(), b)
    A2 = MatrixGF(GF2, [[1, 1], [1, 1]])
    assert solve(A2, np.array([0, 1], dtype=np.uint8)) is None


def test_rowspace_membership():
    M = MatrixGF(GF2, [[1, 1, 0], [0, 0, 1]])
    rr = rref(M)
    assert in_rowspace(rr, np.array([1, 1, 1], dtype=np.uint8))
    assert not in_rowspace(rr, np.array([1, 0, 0], dtype=np.uint8))
    res = reduce_vector(rr, np.array([1, 1, 1], dtype=np.uint8))
    assert not res.any()


@pytest.mark.parametrize("field", LARGE, ids=lambda f: f"q{f.size}")
def test_solve_over_large_fields(field):
    rng = np.random.default_rng(field.size)
    A = MatrixGF(field, rng.integers(0, field.size, size=(3, 4)))
    b = loop_product(field, A.data, rng.integers(0, field.size, size=(4, 1)))[:, 0]
    x = solve(A, b)
    assert x is not None
    assert np.array_equal(loop_product(field, A.data, x.reshape(-1, 1))[:, 0], b)
    D = MatrixGF(field, with_dependent_row(field, rng, 3, 4))
    rhs = loop_product(field, D.data, rng.integers(0, field.size, size=(4, 1)))[:, 0]
    rhs[-1] = field.add(int(rhs[-1]), 1)
    assert solve(D, rhs) is None


def augmented_solve(A: MatrixGF, b: np.ndarray):
    """A x = b by one rref of [A | b]: None when b becomes a pivot column,
    else the pivot values read from the last column."""
    aug = MatrixGF(A.field, np.hstack([A.data, b.reshape(-1, 1).astype(A.data.dtype)]))
    rr = rref(aug)
    if A.cols in rr.pivots:
        return None
    x = np.zeros(A.cols, dtype=A.data.dtype)
    for i, p in enumerate(rr.pivots):
        x[p] = rr.matrix.data[i, A.cols]
    return x


@given(
    q=st.sampled_from([2, 3, 4, 5, 8, 625]),
    rows=st.integers(0, 5),
    cols=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_solver_matches_augmented_elimination(q, rows, cols, seed):
    """One factorisation of A gives, for every right-hand side, the solution
    (or None) that eliminating [A | b] gives; half the right-hand sides are
    in A's column space, and A gets a dependent row when it has two."""
    f = field_of_size(q)
    rng = np.random.default_rng(seed)
    data = with_dependent_row(f, rng, rows, cols) if rows > 1 else rng.integers(0, q, (rows, cols))
    A = MatrixGF(f, data)
    factored = solver(A)
    for t in range(6):
        if t % 2:
            b = rng.integers(0, q, size=rows)
        else:
            b = loop_product(f, A.data, rng.integers(0, q, size=(cols, 1)))[:, 0]
        b = b.astype(A.data.dtype)
        want = augmented_solve(A, b)
        for got in (factored.solve(b), solve(A, b)):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)
    with pytest.raises(ValueError):
        factored.solve(np.zeros(rows + 1, dtype=np.uint8))


@pytest.mark.parametrize("entry", [2, -1, 256])
def test_solve_and_syndrome_refuse_entries_outside_the_field(entry):
    """Checked before the cast to uint8, which would turn 256 into 0."""
    A = MatrixGF(GF2, [[1, 0, 1], [0, 1, 1]])
    b = np.array([1, entry], dtype=np.int64)
    for call in (lambda: solver(A).solve(b), lambda: syndrome_of(A.T, b)):
        with pytest.raises(ValueError, match=rf"entry {entry} out of range for GF\(2\)"):
            call()


@pytest.mark.parametrize("field", LARGE, ids=lambda f: f"q{f.size}")
def test_reduce_vector_over_large_fields_matches_loops(field):
    rng = np.random.default_rng(field.size)
    M = MatrixGF(field, with_dependent_row(field, rng, 3, 6))
    rr = rref(M)
    member = loop_product(field, rng.integers(0, field.size, size=(1, 3)), M.data)[0]
    assert in_rowspace(rr, member)
    v = rng.integers(0, field.size, size=6)
    want = [int(a) for a in v]
    for i, p in enumerate(rr.pivots):
        c = field.neg(int(v[p]))
        want = [field.add(w, field.mul(c, int(r))) for w, r in zip(want, rr.matrix.data[i])]
    res = reduce_vector(rr, v)
    assert res.tolist() == want
    assert not res[list(rr.pivots)].any()
    assert in_rowspace(rr, v) == (not any(want))


# --------------------------------------------------- packed path parity

def test_packed_and_generic_paths_agree_on_randomized_instances():
    rng = np.random.default_rng(512)
    for trial in range(1000):
        r = int(2 ** rng.uniform(0, 9.01))
        c = int(2 ** rng.uniform(0, 9.01))
        density = rng.uniform(0.05, 0.95)
        M = MatrixGF(GF2, (rng.random((r, c)) < density).astype(np.uint8))
        ga = matgf._rref_generic(M.data, GF2)
        pa = matgf._rref_packed(M.data)
        assert pa[1:] == ga[1:]
        assert np.array_equal(pa[0], ga[0])


@pytest.mark.parametrize("cols", [1, 63, 64, 65, 127, 128, 129, 200])
def test_packed_matches_generic_at_word_boundaries(cols):
    """Panels of 64 columns: shapes either side of a word boundary, from no
    rows to more rows than columns, on random, sparse, duplicate-row,
    all-zero and (shifted) identity matrices."""
    rng = np.random.default_rng(cols)
    for rows in sorted({0, 1, 2, 9, cols // 2, cols - 1, cols, cols + 5}):
        dense = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        half = dense[: (rows + 1) // 2]
        mats = [
            dense,
            (rng.random((rows, cols)) < 0.03).astype(np.uint8),
            np.vstack([half, half])[:rows],
            np.zeros((rows, cols), dtype=np.uint8),
            np.eye(rows, cols, dtype=np.uint8),
            np.eye(rows, cols, k=cols // 3, dtype=np.uint8)[::-1],
        ]
        for bits in mats:
            M = MatrixGF(GF2, bits)
            ga = matgf._rref_generic(M.data, GF2)
            pa = matgf._rref_packed(M.data)
            assert pa[1:] == ga[1:], (rows, cols)
            assert np.array_equal(pa[0], ga[0]), (rows, cols)


# sha256 of rref(H)'s matrix bytes, repr((rank, pivots)) and nullspace(H)'s
# bytes, first 16 hex digits, for H = make_expander(n, 3, 6, seed)[0].H; taken
# with column-at-a-time elimination
EXPANDER_RREF_DIGESTS = {
    (64, 0): "643fd6ed3612b210",
    (64, 1): "9c6557f9dc982bfa",
    (1024, 0): "3e3bcc7b313d0427",
    (1024, 1): "af6a772f0b177e79",
    (4096, 0): "be49644fb5e977bb",
    (4096, 1): "6ed8fc2ba4e893c1",
}


@pytest.mark.parametrize("n, seed", sorted(EXPANDER_RREF_DIGESTS))
def test_expander_rref_and_nullspace_digests(n, seed):
    H = make_expander(n, 3, 6, seed)[0].H
    rr = rref(H)
    h = hashlib.sha256(rr.matrix.data.tobytes())
    h.update(repr((rr.rank, rr.pivots)).encode())
    h.update(nullspace(H).data.tobytes())
    assert h.hexdigest()[:16] == EXPANDER_RREF_DIGESTS[n, seed]


# ---------------------------------------------------------- text format

def test_text_round_trip_bit_exact():
    rng = np.random.default_rng(12)
    for field in (GF2, GF4, field_of_size(8192)):
        M = MatrixGF(field, rng.integers(0, field.size, size=(3, 5)))
        text = mat_to_text(M)
        first = text.splitlines()[0].split()
        assert first == [str(field.size), "3", "5"]
        M2 = mat_from_text(text)
        assert M2 == M
        assert mat_to_text(M2) == text


def reference_mat_to_text(M: MatrixGF) -> str:
    """The writer before its byte-array path: one join per row."""
    lines = [f"{M.q} {M.rows} {M.cols}"]
    digits = [str(v) for v in range(M.q)]
    for row in M.data:
        lines.append(" ".join(map(digits.__getitem__, row.tolist())))
    return "\n".join(lines) + "\n"


def reference_take_matrix(lines: list[str], at: int, section: str):
    """The block reader before its canonical path: one parse per row."""
    head = bundle.bundle_line(lines, at, f"the {section} header").split()
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
        data = np.empty((rows, cols), dtype=np.uint8 if q <= 256 else np.int64)
    except (MemoryError, ValueError):
        raise ValueError(f"line {at + 1}: {section} shape {rows} x {cols} is too large") from None
    for i in range(rows):
        text = bundle.bundle_line(lines, at + 1 + i, f"{section} row {i}")
        where = f"line {at + 2 + i}: {section} row {i}"
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
    return MatrixGF(field, data), at + 1 + rows


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 625])
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0), (1, 1), (4, 7), (17, 33)])
def test_writer_matches_reference_join(q, shape):
    field = field_of_size(q)
    rng = np.random.default_rng(q * 100 + shape[0])
    M = MatrixGF(field, rng.integers(0, q, size=shape))
    assert mat_to_text(M) == reference_mat_to_text(M)


# Row layouts for the reader: the canonical one, other spacings the reader
# accepts, and broken rows.  Canonical rows are listed more than once so
# that most blocks have whole canonical chunks.
ROW_LAYOUTS = ["canonical"] * 4 + [
    "double spaces", "tabs", "trailing spaces", "leading spaces", "leading zero",
    "short", "extra entry", "entry q", "negative", "word", "digit separator",
]


def layout_row(entries: list[str], layout: str, q: int) -> str:
    if layout == "double spaces":
        return "  ".join(entries)
    if layout == "tabs":
        return "\t".join(entries)
    if layout == "trailing spaces":
        return " ".join(entries) + "  "
    if layout == "leading spaces":
        return "  " + " ".join(entries)
    if layout == "short":
        return " ".join(entries[:-1])
    if layout == "extra entry":
        return " ".join(entries + ["0"])
    if layout == "digit separator":
        # canonical width, but the first two entries run together
        return " ".join(entries)[:1] + "0" + " ".join(entries)[2:]
    if entries and layout != "canonical":
        swap = {"leading zero": "0" + entries[0], "entry q": str(q), "negative": "-1",
                "word": "x"}[layout]
        entries = [swap] + entries[1:]
    return " ".join(entries)


@st.composite
def matrix_blocks(draw):
    """(lines, chunk bytes): a matrix block, perhaps truncated and perhaps
    followed by another line, as the bundle readers pass it, and a chunk
    size for the canonical path."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 5))
    body = []
    for _ in range(rows):
        entries = [str(draw(st.integers(0, q - 1))) for _ in range(cols)]
        body.append(layout_row(entries, draw(st.sampled_from(ROW_LAYOUTS)), q))
    body = body[: draw(st.integers(0, rows))] if draw(st.booleans()) else body
    tail = ["hz"] if draw(st.booleans()) else []
    lines = [ln for ln in [f"{q} {rows} {cols}"] + body + tail if ln.strip()]
    return lines, draw(st.sampled_from([1, 2, 5, 12, 1 << 17]))


def read_or_message(reader, lines):
    try:
        M, end = reader(lines, 0, "hx")
    except ValueError as exc:
        return str(exc)
    return M.field, M.data.tolist(), end


@given(matrix_blocks())
@settings(max_examples=400, deadline=None)
def test_reader_matches_reference_loop(block):
    lines, chunk = block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bundle, "_TEXT_CHUNK_BYTES", chunk)
        got = read_or_message(bundle.take_matrix, lines)
    assert got == read_or_message(reference_take_matrix, lines)


def test_canonical_text_skips_the_row_reader(monkeypatch):
    rng = np.random.default_rng(5)
    M = MatrixGF(GF5, rng.integers(0, 5, size=(40, 9)))
    text = mat_to_text(M)

    def refuse(*args):
        raise AssertionError("canonical rows reached the row-by-row reader")

    monkeypatch.setattr(bundle, "_take_rows", refuse)
    monkeypatch.setattr(bundle, "_TEXT_CHUNK_BYTES", 40)
    assert mat_from_text(text) == M


# ------------------------------------------------------------ properties

@given(st.integers(0, 2**30 - 1), st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_gf2(seed, r, c):
    rng = np.random.default_rng(seed)
    M = MatrixGF(GF2, rng.integers(0, 2, size=(r, c)))
    assert rank(M) + nullspace(M).rows == c


@given(st.integers(0, 2**30 - 1), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_rank_nullity_gf4(seed, r, c):
    rng = np.random.default_rng(seed)
    M = MatrixGF(GF4, rng.integers(0, 4, size=(r, c)))
    B = nullspace(M)
    assert rank(M) + B.rows == c
    assert not mul(M, transpose(B)).data.any()
