"""CSS and stabilizer constructions, checked against independent brute-force
enumeration for the degenerate distances and plain numpy arithmetic for the
commutation identities.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccss.codes import (
    dual,
    lift_block,
    make_expander,
    make_random_gv,
    make_repetition,
    min_weight,
)
import pccss.css as css_module
from pccss.css import (
    CssCode,
    StabilizerCode,
    check_valid,
    counting_check,
    counting_check_enlarged,
    css_from_text,
    css_to_text,
    distance_css,
    distance_stabilizer,
    fast_family,
    make_css,
    make_enlarged,
    make_pccss,
    stab_from_text,
    stab_to_text,
)
from pccss.galois import FieldSpec, field_of_size
from pccss.matgf import MatrixGF, _field_ops, mul, nullspace, rank, rref, zeros


def hamming_code():
    from pccss.codes import make_alternant

    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    return make_alternant(f, a=alpha, y=alpha, r=1)


def brute_rowspace(M: np.ndarray) -> set[tuple]:
    rows = [tuple(r) for r in M % 2]
    out = set()
    for coeffs in itertools.product((0, 1), repeat=len(rows)):
        v = np.zeros(M.shape[1], dtype=np.int64)
        for c, r in zip(coeffs, rows):
            if c:
                v ^= np.array(r)
        out.add(tuple(v))
    return out


def brute_degenerate_distance(hx: np.ndarray, hz: np.ndarray) -> int:
    """Min weight over null(hx) minus rowspace(hz), by full enumeration."""
    n = hx.shape[1]
    span = brute_rowspace(hz)
    best = None
    for cand in itertools.product((0, 1), repeat=n):
        v = np.array(cand, dtype=np.int64)
        if (hx @ v % 2).any():
            continue
        if tuple(v) in span:
            continue
        w = int(v.sum())
        if w and (best is None or w < best):
            best = w
    return best


def symplectic_form(gens: np.ndarray, n: int) -> np.ndarray:
    x, z = gens[:, :n], gens[:, n:]
    return (x @ z.T + z @ x.T) % 2


# ---------------------------------------------------------------- make_css

def test_steane_code():
    ham = hamming_code()
    q = make_css(ham, ham)
    assert (q.n, q.k) == (7, 1)
    assert not mul(q.hx, q.hz.T).data.any()
    assert distance_css(q, "x") == 3
    assert distance_css(q, "z") == 3


def test_make_css_full_space_edge():
    full = make_random_gv(4, 4, seed=0)
    q = make_css(full, full)
    assert q.k == 4
    assert q.hx.rows == 0 and q.hz.rows == 0


def test_make_css_containment_witness():
    rep = make_repetition(3)
    with pytest.raises(ValueError, match="witness"):
        make_css(rep, rep)


# -------------------------------------------------------------- make_pccss

def shor_code() -> CssCode:
    return make_pccss(lift_block(make_repetition(3), 3), make_repetition(3))


def test_shor_check_matrices():
    q = shor_code()
    assert (q.n, q.k) == (9, 1)
    assert q.n0 == 3
    expect_hx = np.array(
        [[1, 1, 1, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 1, 1]], dtype=np.uint8
    )
    assert sorted(map(tuple, q.hx.data)) == sorted(map(tuple, expect_hx))
    assert all(r.sum() == 6 for r in q.hx.data)
    assert q.hz.rows == 6


def test_shor_degenerate_distances():
    q = shor_code()
    assert distance_css(q, "x") == 3
    assert distance_css(q, "z") == 3
    # the nondegenerate minimum is smaller: null(hx) holds weight-2 vectors
    from pccss.matgf import nullspace

    cx = nullspace(q.hx)
    w2 = min_weight(cx)
    assert w2 == 2


def test_shor_matches_brute_oracle():
    q = shor_code()
    assert brute_degenerate_distance(q.hx.data.astype(np.int64), q.hz.data.astype(np.int64)) == 3
    assert brute_degenerate_distance(q.hz.data.astype(np.int64), q.hx.data.astype(np.int64)) == 3


def test_pccss_dimension_mismatch():
    with pytest.raises(ValueError):
        make_pccss(lift_block(make_repetition(3), 3), make_repetition(4))


def test_pccss_empty_outer_checks():
    c1 = lift_block(make_repetition(3), 2)
    full = make_random_gv(2, 2, seed=1)
    q = make_pccss(c1, full)
    assert q.hx.rows == 0
    assert q.k == c1.k


def test_pccss_commutation_generic():
    c1 = lift_block(make_repetition(3), 4)
    c2 = make_random_gv(4, 2, seed=3)
    q = make_pccss(c1, c2)
    assert not mul(q.hx, q.hz.T).data.any()


# ------------------------------------------------------------- fast_family

def test_fast_family_structure():
    q = fast_family(64, 4, c=3, d=6, seed=2)
    assert (q.n, q.n0) == (64, 4)
    assert q.graph is not None
    outer_h = q.outer.H.data
    assert np.array_equal(q.hx.data, np.repeat(outer_h, 4, axis=1))
    ref_hz = lift_block(make_repetition(4), 16).H
    assert np.array_equal(q.hz.data, ref_hz.data)
    assert q.k == q.outer.k
    rep = check_valid(q)
    assert rep.ok


def test_fast_family_commutation_many_seeds():
    for seed in range(10):
        q = fast_family(48, 4, c=3, d=6, seed=seed)
        assert not mul(q.hx, q.hz.T).data.any()


def test_fast_family_divisibility():
    with pytest.raises(ValueError):
        fast_family(10, 3, c=3, d=6, seed=0)


def test_fast_family_lazy_matrices():
    q = fast_family(4096, 16, c=3, d=6, seed=0, validate=False)
    assert q._hx is None and q._hz is None
    assert q.k == q.outer.k
    assert q.hz.shape == (4096 - 256, 4096)
    assert q._hz is not None


# ------------------------------------------------------------ check_valid

def test_check_valid_detects_corruption():
    q = shor_code()
    bad_hx = q.hx.data.copy()
    bad_hx[0, 0] ^= 1
    bad = CssCode(
        n=9, hx=MatrixGF(q.hx.field, bad_hx), hz=q.hz, k=1, validate=False
    )
    rep = check_valid(bad)
    assert not rep.ok
    assert any("commut" in m for m in rep.messages)


def test_check_valid_rank_bookkeeping():
    for seed in range(5):
        q = fast_family(48, 4, c=3, d=6, seed=seed)
        assert check_valid(q).ok


@given(
    q=st.sampled_from([2, 3, 4]),
    n0=st.sampled_from([2, 3, 4, 5, 8]),
    blocks=st.integers(1, 6),
    rows=st.integers(0, 4),
    corruptions=st.integers(0, 3),
    k_offset=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_block_check_valid_matches_dense(q, n0, blocks, rows, corruptions, k_offset, seed):
    """check_valid on a code with n0 reads hx block by block; its report is
    byte-equal to the dense one on the same matrices without n0."""
    f = field_of_size(q)
    rng = np.random.default_rng(seed)
    h2 = rng.integers(0, q, size=(rows, blocks)).astype(np.uint8)
    hx = np.repeat(h2, n0, axis=1)
    hx[:, n0 - 1 :: n0] = _field_ops(f)[2](h2)  # each column plus the last is 0
    for _ in range(corruptions if rows else 0):
        hx[rng.integers(rows), rng.integers(blocks * n0)] = rng.integers(q)
    hx = MatrixGF(f, hx)
    hz = MatrixGF(f, lift_block(make_repetition(n0), blocks).H.data)
    k = blocks - rank(MatrixGF(f, h2)) + k_offset
    block = check_valid(CssCode(n=blocks * n0, hx=hx, hz=hz, k=k, n0=n0, validate=False))
    dense = check_valid(CssCode(n=blocks * n0, hx=hx, hz=hz, k=k, validate=False))
    assert block == dense


def test_validated_fast_family_never_forms_hz():
    q = fast_family(2**14, 16, 3, 6, 0)
    assert q._hz is None
    assert q.k == fast_family(2**14, 16, 3, 6, 0, validate=False).k


@pytest.mark.parametrize("k_offset", [0, 1, -1])
def test_block_code_built_from_outer_is_validated_without_hx(k_offset):
    """A code whose hx is built from outer.H is checked from the outer code
    alone, never building hx, with the report the dense hx would give."""
    q = fast_family(2**10, 16, 3, 6, 0)

    def unbuilt():
        raise AssertionError("hx was built")

    k = q.k + k_offset
    lazy = CssCode(n=q.n, hx=unbuilt, hz=q.hz, k=k, n0=16, outer=q.outer, validate=False)
    dense = CssCode(n=q.n, hx=q.hx, hz=q.hz, k=k, n0=16, outer=q.outer, validate=False)
    assert check_valid(lazy) == check_valid(dense)
    assert check_valid(lazy).ok == (k_offset == 0)


@pytest.mark.parametrize("row, xor_with", [(1, 0), (5, 2), (0, None)])
def test_block_hz_must_be_lifted_repetition_checks(row, xor_with):
    """A code with n0 refuses any hz but I (x) [I | 1], validated or not,
    even one with the same row space, naming the first wrong row."""
    q = shor_code()
    hz = q.hz.data.copy()
    hz[row] = hz[row] ^ hz[xor_with] if xor_with is not None else 0
    for validate in (True, False):
        with pytest.raises(ValueError, match=f"hz row {row} is not row {row}"):
            CssCode(n=9, hx=q.hx, hz=MatrixGF(q.hz.field, hz), k=1, n0=3, validate=validate)
    with pytest.raises(ValueError, match="hz has 5 rows"):
        CssCode(n=9, hx=q.hx, hz=MatrixGF(q.hz.field, q.hz.data[:5]), k=1, n0=3)


# ------------------------------------------------------------ distance_css

def test_distance_empty_hx_side():
    f = FieldSpec(2)
    rep = make_repetition(3)
    q = CssCode(n=3, hx=zeros(f, 0, 3), hz=rep.H, k=1, validate=False)
    assert distance_css(q, "x") == 1


def test_distance_cap():
    q = fast_family(64, 4, c=3, d=6, seed=2)
    with pytest.raises(ValueError):
        distance_css(q, "z", cap=10)


def test_csscode_rejects_wrong_claimed_distance():
    q = shor_code()
    with pytest.raises(ValueError):
        CssCode(n=9, hx=q.hx, hz=q.hz, k=1, d_x=2, d_method="exhaustive")


# ----------------------------------------------------------- make_enlarged

def test_enlarged_steane_extension():
    ham = hamming_code()
    spc = dual(make_repetition(3))
    s = make_enlarged(ham, spc)
    assert (s.n, s.k) == (7, 3)
    # independent symplectic commutation check
    assert not symplectic_form(s.gens.data.astype(np.int64), 7).any()
    # generator layout: paired x-only and z-only rows, then mixed rows
    r3 = 7 - 6  # rank of the product check matrix
    assert not s.gens.data[:r3, 7:].any()
    assert not s.gens.data[r3 : 2 * r3, :7].any()
    d = distance_stabilizer(s)
    c3_distance = 1
    bound = min(3, math.ceil(3 * c3_distance / 2))
    assert d >= bound
    assert d in (2, 3)


def test_enlarged_rejects_quotient_dimension_one():
    ham = hamming_code()
    with pytest.raises(ValueError):
        make_enlarged(ham, make_repetition(3))


def test_enlarged_rejects_non_dual_containing():
    rep = make_repetition(3)
    with pytest.raises(ValueError):
        make_enlarged(rep, dual(make_repetition(3)))


# ---------------------------------------------------- distance_stabilizer

def test_stabilizer_trivial_two_qubit():
    f = FieldSpec(2)
    gens = MatrixGF(f, np.array([[1, 0, 0, 0]], dtype=np.uint8))
    s = StabilizerCode(n=2, gens=gens, k=1)
    assert distance_stabilizer(s) == 1


def test_stabilizer_generators_commute_is_enforced():
    f = FieldSpec(2)
    # X1 and Z1 anticommute
    gens = MatrixGF(f, np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=np.uint8))
    with pytest.raises(ValueError):
        StabilizerCode(n=2, gens=gens, k=0)


def test_stabilizer_distance_cap():
    f = FieldSpec(2)
    gens = MatrixGF(f, np.eye(1, 26, dtype=np.uint8))
    with pytest.raises(ValueError):
        distance_stabilizer(StabilizerCode(n=13, gens=gens, k=12))


# ------------------------------------------- oracles against the Gray walk

def gray_min_weight(basis: np.ndarray, exclude: np.ndarray, weigh):
    """Reference: walk every nonzero combination of the basis rows in Gray
    order, reduce each against rref(exclude)'s pivot rows bit by bit, and
    keep the least weight of those left nonzero (None if there are none)."""
    def pack(row) -> int:
        return sum(1 << int(i) for i in np.flatnonzero(row))

    rr = rref(MatrixGF(FieldSpec(2), exclude))
    pivots = [(col, pack(rr.matrix.data[i])) for i, col in enumerate(rr.pivots)]
    rows = [pack(r) for r in basis]
    best = None
    v = 0
    for i in range(1, 1 << len(rows)):
        v ^= rows[(i & -i).bit_length() - 1]
        x = v
        for col, prow in pivots:
            if (x >> col) & 1:
                x ^= prow
        if x and (best is None or weigh(v) < best):
            best = weigh(v)
    return best


def gray_distance_css(q: CssCode, side: str):
    a, b = (q.hx, q.hz) if side == "x" else (q.hz, q.hx)
    return gray_min_weight(nullspace(a).data, b.data, int.bit_count)


def gray_distance_stabilizer(s: StabilizerCode):
    n = s.n
    commute = np.hstack([s.gens.data[:, n:], s.gens.data[:, :n]])
    mask = (1 << n) - 1
    return gray_min_weight(nullspace(MatrixGF(FieldSpec(2), commute)).data, s.gens.data,
                           lambda v: ((v & mask) | (v >> n)).bit_count())


def random_css(seed: int, max_n: int = 14) -> CssCode:
    """hx random, hz random combinations of null(hx) rows, so they commute."""
    rng = np.random.default_rng(seed)
    f = FieldSpec(2)
    n = int(rng.integers(2, max_n + 1))
    hx = MatrixGF(f, rng.integers(0, 2, size=(int(rng.integers(n // 3, n)), n)))
    null = nullspace(hx)
    coeffs = rng.integers(0, 2, size=(int(rng.integers(0, null.rows + 1)), null.rows))
    hz = mul(MatrixGF(f, coeffs), null)
    return CssCode(n=n, hx=hx, hz=hz)


def random_stabilizer(seed: int, max_n: int = 8) -> StabilizerCode:
    """Random symplectic rows kept while they commute with, and are
    independent of, the rows kept so far."""
    rng = np.random.default_rng(seed)
    f = FieldSpec(2)
    n = int(rng.integers(1, max_n + 1))
    want = int(rng.integers(n // 2, n + 1))
    gens = np.zeros((0, 2 * n), dtype=np.uint8)
    for _ in range(200):
        if len(gens) == want:
            break
        v = rng.integers(0, 2, size=2 * n).astype(np.uint8)
        if (symplectic_form(np.vstack([gens, v]).astype(np.int64), n)[-1]).any():
            continue
        if rank(MatrixGF(f, np.vstack([gens, v]))) > len(gens):
            gens = np.vstack([gens, v])
    return StabilizerCode(n=n, gens=MatrixGF(f, gens), k=n - len(gens))


def assert_matches_gray(oracle, reference):
    expect = reference()
    if expect is None:
        with pytest.raises(ValueError):
            oracle()
    else:
        assert oracle() == expect


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_css_matches_gray_walk(seed):
    q = random_css(seed)
    for side in "xz":
        assert_matches_gray(lambda: distance_css(q, side), lambda: gray_distance_css(q, side))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_stabilizer_matches_gray_walk(seed):
    s = random_stabilizer(seed)
    assert_matches_gray(lambda: distance_stabilizer(s), lambda: gray_distance_stabilizer(s))


def test_five_qubit_code_matches_gray_walk():
    # stabilizers XZZXI and its cyclic shifts (four independent ones)
    n = 5
    rows = []
    for shift in range(4):
        x = np.roll([1, 0, 0, 1, 0], shift)
        z = np.roll([0, 1, 1, 0, 0], shift)
        rows.append(np.concatenate([x, z]))
    s = StabilizerCode(n=n, gens=MatrixGF(FieldSpec(2), np.array(rows)), k=1)
    assert distance_stabilizer(s) == gray_distance_stabilizer(s) == 3


def rep_concatenated(n0: int) -> CssCode:
    return make_pccss(lift_block(make_repetition(n0), n0), make_repetition(n0))


def test_rep_concatenated_49_x_side_beyond_default_cap():
    q = rep_concatenated(7)
    with pytest.raises(ValueError, match="exceeds cap 26"):
        distance_css(q, "x")
    assert distance_css(q, "x", cap=43) == 7
    assert distance_css(q, "z") == 7


@pytest.mark.parametrize("block", [1, 7])
def test_blocked_enumeration_matches_one_block(block, monkeypatch):
    codes = [shor_code(), rep_concatenated(5)] + [random_css(seed) for seed in range(12)]
    stabs = [make_enlarged(hamming_code(), dual(make_repetition(3)))]
    stabs += [random_stabilizer(seed) for seed in range(8)]

    def outcomes():
        out = []
        for q in codes:
            for side in "xz":
                try:
                    out.append(distance_css(q, side))
                except ValueError as exc:
                    out.append(str(exc))
        for s in stabs:
            try:
                out.append(distance_stabilizer(s))
            except ValueError as exc:
                out.append(str(exc))
        return out

    whole = outcomes()
    monkeypatch.setattr(css_module, "_BLOCK", block)
    assert outcomes() == whole


# -------------------------------------------------------- counting checks

def literal_counting_inequality(n1, k1, f_x, m, lam_x, q):
    """The published form, compared after raising both sides to the m-th
    power so everything stays integral."""
    s = sum((q - 1) ** j * math.comb(n1, j) for j in range(1, lam_x))
    lhs = (q**m - 1) ** (m * k1 - (k1 - f_x)) * s**m
    rhs = (q**m - 1) ** (m * k1)
    return lhs < rhs


def test_counting_empty_sum_margin():
    ok, margin = counting_check(16, 8, f_x=4, m=2, lam_x=1)
    assert ok
    assert margin == pytest.approx((8 - 4) / 2 * math.log(2**2 - 1))


def test_counting_exact_example():
    ok, margin = counting_check(16, 8, f_x=4, m=2, lam_x=2)
    # S = 16, S^2 = 256 vs 3^4 = 81: the inequality fails here
    assert not ok
    assert margin == pytest.approx(2 * math.log(3) - math.log(16))
    assert margin < 0


def test_counting_monotone_in_lambda():
    margins = [counting_check(40, 20, 10, 2, lam, 2)[1] for lam in range(1, 7)]
    assert all(a >= b for a, b in zip(margins, margins[1:]))


def test_counting_preconditions():
    with pytest.raises(ValueError):
        counting_check(16, 8, f_x=0, m=2, lam_x=2)
    with pytest.raises(ValueError):
        counting_check(16, 8, f_x=4, m=1, lam_x=2)
    with pytest.raises(ValueError):
        counting_check(17, 8, f_x=4, m=2, lam_x=2)


@settings(max_examples=60, deadline=None)
@given(
    n1=st.integers(6, 60),
    k1=st.integers(2, 30),
    gap=st.integers(1, 10),
    m=st.integers(2, 4),
    lam=st.integers(1, 5),
)
def test_counting_matches_literal_form(n1, k1, gap, m, lam):
    k1 = min(k1, n1)
    f_x = max(1, k1 - gap)
    n1 = n1 - (n1 - f_x) % m  # satisfy the divisibility precondition
    if n1 < k1 or f_x > k1:
        return
    ok, _ = counting_check(n1, k1, f_x, m, lam)
    assert ok == literal_counting_inequality(n1, k1, f_x, m, lam, 2)


def test_counting_enlarged_mirror():
    ok1, m1 = counting_check_enlarged(16, 8, f_a=4, m=2, lam_a=2)
    ok2, m2 = counting_check(16, 8, f_x=4, m=2, lam_x=2)
    assert ok1 == ok2
    assert m1 == pytest.approx(m2)
    ok, margin = counting_check_enlarged(16, 8, f_a=4, m=2, lam_a=1)
    assert ok and margin > 0


# ----------------------------------------------------------------- bundles

def test_css_bundle_round_trip():
    q = shor_code()
    text = css_to_text(q)
    q2 = css_from_text(text)
    assert (q2.n, q2.k, q2.n0) == (9, 1, 3)
    assert np.array_equal(q2.hx.data, q.hx.data)
    assert np.array_equal(q2.hz.data, q.hz.data)
    assert css_to_text(q2) == text


def test_stab_bundle_round_trip():
    ham = hamming_code()
    s = make_enlarged(ham, dual(make_repetition(3)))
    text = stab_to_text(s)
    s2 = stab_from_text(text)
    assert (s2.n, s2.k) == (s.n, s.k)
    assert np.array_equal(s2.gens.data, s.gens.data)
    assert stab_to_text(s2) == text


def test_validated_fast_family_drops_the_hx_validation_built():
    """Validation reads a dense hx; the code does not keep it, and builds
    it again on demand."""
    q = fast_family(2**10, 16, 3, 6, 0)
    assert q._hx is None and q._hz is None
    assert np.array_equal(q.hx.data, np.repeat(q.outer.H.data, 16, axis=1))
