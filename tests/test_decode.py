"""Syndrome decoders, checked against exhaustive coset-leader search and
inject-and-recover trials.
"""
from __future__ import annotations

import gc
import heapq
import itertools
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccss import decode
from pccss.codes import LinearCode, make_alternant, make_expander, make_repetition
from pccss.css import fast_family
from pccss.decode import (
    DecodeOutcome,
    _FlipKernel,
    _flip_kernel,
    _per_code,
    bdd_alternant,
    exhaustive_decode,
    flip_decode,
    grs_syndrome,
    osmlg_block_decode,
    pccss_decode_x,
    pccss_decode_x_rows,
    pccss_decode_z,
    syndrome_of,
)
from pccss.galois import GF2, FieldSpec, field_of_size
from pccss.matgf import MatrixGF, _field_ops, _span_chunks, nullspace, solve


def brute_leader(H: MatrixGF, s: np.ndarray) -> np.ndarray | None:
    n = H.cols
    best = None
    for cand in itertools.product((0, 1), repeat=n):
        e = np.array(cand, dtype=np.uint8)
        if np.array_equal(syndrome_of(H, e), s):
            if best is None or (e.sum(), cand) < (best.sum(), tuple(best)):
                best = e
    return best


def hamming_code():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    return make_alternant(f, a=alpha, y=alpha, r=1)


# ------------------------------------------------------------- exhaustive

def test_exhaustive_zero_syndrome():
    c = make_repetition(3)
    out = exhaustive_decode(c, np.zeros(2, dtype=np.uint8))
    assert out.status == "corrected"
    assert not out.estimate.any()


def test_exhaustive_repetition_single_flip():
    c = make_repetition(3)
    e = np.array([1, 0, 0], dtype=np.uint8)
    out = exhaustive_decode(c, syndrome_of(c.H, e))
    assert out.status == "corrected"
    assert out.estimate.tolist() == [1, 0, 0]


def test_exhaustive_matches_brute_force_all_syndromes():
    c = make_repetition(4)
    for bits in itertools.product((0, 1), repeat=3):
        s = np.array(bits, dtype=np.uint8)
        out = exhaustive_decode(c, s)
        assert np.array_equal(out.estimate, brute_leader(c.H, s))
        assert np.array_equal(syndrome_of(c.H, out.estimate), s)


def test_exhaustive_hamming_singles_unique():
    ham = hamming_code()
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        out = exhaustive_decode(ham, syndrome_of(ham.H, e))
        assert out.estimate.tolist() == e.tolist()


def test_exhaustive_size_cap():
    big = make_repetition(25)
    with pytest.raises(ValueError):
        exhaustive_decode(big, np.zeros(24, dtype=np.uint8))


def reference_exhaustive(code, s) -> DecodeOutcome:
    """One solve, then every codeword of G added to its solution: the
    lightest, lexicographically smallest vector of the coset."""
    s = np.asarray(s).reshape(-1)
    x0 = solve(code.H, s)
    if x0 is None:
        return DecodeOutcome("detected-uncorrectable", np.zeros(code.n, dtype=np.uint8),
                             {"cosets": 0})
    if code.k == 0:
        return DecodeOutcome("corrected", x0, {"cosets": 1})
    coset = _field_ops(code.field)[0](np.vstack(list(_span_chunks(code.G))), x0[None, :])
    _, leader = min((int(np.count_nonzero(v)), tuple(v)) for v in coset)
    return DecodeOutcome("corrected", np.array(leader, dtype=x0.dtype),
                         {"cosets": code.field.size ** code.k})


def code_from_checks(q: int, H: np.ndarray) -> LinearCode:
    f = field_of_size(q)
    H = MatrixGF(f, H)
    G = nullspace(H)
    return LinearCode(field=f, n=H.cols, k=G.rows, G=G, H=H)


def exhaustive_cases():
    """(code, syndromes): random checks over GF(2), GF(3) and GF(4) with a
    redundant row (so some syndromes are inconsistent), k = 0, and codes
    with more than 4096 codewords, which are enumerated chunk by chunk."""
    rng = np.random.default_rng(4)
    for q, rows, n in ((2, 4, 9), (2, 5, 12), (3, 3, 6), (3, 4, 7), (4, 3, 5), (4, 2, 6)):
        H = rng.integers(0, q, size=(rows, n))
        H = np.vstack([H, _field_ops(field_of_size(q))[0](H[0], H[1])])
        yield code_from_checks(q, H)
    yield code_from_checks(2, np.eye(5, dtype=np.uint8))  # k = 0
    yield code_from_checks(3, np.vstack([np.eye(3, dtype=np.uint8)] * 2))  # k = 0, redundant
    yield code_from_checks(2, rng.integers(0, 2, size=(3, 17)))  # 2^14 codewords
    yield code_from_checks(3, rng.integers(0, 3, size=(2, 10)))  # 3^8 codewords


def test_exhaustive_matches_full_enumeration_reference():
    rng = np.random.default_rng(5)
    inconsistent = streamed = 0
    for code in exhaustive_cases():
        q = code.field.size
        streamed += q ** code.k > 4096
        syndromes = [rng.integers(0, q, size=code.H.rows) for _ in range(12)]
        for s in syndromes:
            got, want = exhaustive_decode(code, s), reference_exhaustive(code, s)
            assert (got.status, got.counters, got.residual) == (want.status, want.counters, None)
            assert got.estimate.dtype == want.estimate.dtype
            assert np.array_equal(got.estimate, want.estimate)
            inconsistent += got.status == "detected-uncorrectable"
    assert inconsistent and streamed == 2


def test_packed_scan_matches_reference_on_random_binary_codes():
    """The packed scan agrees with a full enumeration with lexicographic
    ties on random binary codes of every length from 8 to 24, the widest
    packed word; codes up to 12 bits decode every syndrome."""
    rng = np.random.default_rng(18)
    for n in range(8, 25):
        rows = n // 2 if n <= 12 else n - 8
        code = code_from_checks(2, rng.integers(0, 2, size=(rows, n)))
        if n <= 12:
            syndromes = itertools.product((0, 1), repeat=rows)
        else:
            syndromes = rng.integers(0, 2, size=(6, rows))
        for s in syndromes:
            s = np.array(s, dtype=np.uint8)
            got, want = exhaustive_decode(code, s), reference_exhaustive(code, s)
            assert (got.status, got.counters) == (want.status, want.counters), (n, s)
            assert got.estimate.dtype == want.estimate.dtype
            assert np.array_equal(got.estimate, want.estimate), (n, s)


def test_exhaustive_factors_each_code_once(monkeypatch):
    calls = []
    real = decode.solver
    monkeypatch.setattr(decode, "solver", lambda H: calls.append(H) or real(H))
    code = hamming_code()
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        assert exhaustive_decode(code, syndrome_of(code.H, e)).estimate.tolist() == e.tolist()
    assert len(calls) == 1


def test_exhaustive_cache_does_not_outlive_its_code():
    code = code_from_checks(2, np.array([[1, 1, 0, 0], [0, 1, 1, 1]], dtype=np.uint8))
    exhaustive_decode(code, np.array([1, 0], dtype=np.uint8))
    assert decode._exhaustive_tables in decode._MEMO[code]
    alive = weakref.ref(code)
    before = len(decode._MEMO)
    del code
    gc.collect()
    assert alive() is None
    assert len(decode._MEMO) == before - 1


def memo_holds(value) -> bool:
    """Whether any code's memo entries include value itself."""
    return any(v is value for entries in list(decode._MEMO.values()) for v in entries.values())


def exhaustive_case():
    code = code_from_checks(2, np.array([[1, 1, 0, 0], [0, 1, 1, 1]], dtype=np.uint8))
    return code, lambda: exhaustive_decode(code, np.array([1, 0], dtype=np.uint8))


def bdd_case():
    code = hamming_code()
    return code, lambda: bdd_alternant(code, [1])


def flip_case():
    code, _ = make_expander(64, 3, 6, seed=1)
    return code, lambda: flip_decode(code, np.zeros(code.H.rows, dtype=np.uint8))


@pytest.mark.parametrize("builder, case", [
    ("_exhaustive_tables", exhaustive_case),
    ("_bdd_context", bdd_case),
    ("_flip_kernel", flip_case),
])
def test_memo_builds_once_per_code_and_frees_with_it(monkeypatch, builder, case):
    # the counting wrapper is made once, so every lookup keys on it
    calls = []
    real = getattr(decode, builder)
    monkeypatch.setattr(decode, builder, lambda code: calls.append(code) or real(code))
    code, run = case()
    run()
    run()
    assert calls == [code]
    entry = decode._MEMO[code][getattr(decode, builder)]
    alive = weakref.ref(code)
    del code, run
    calls.clear()
    gc.collect()
    assert alive() is None
    assert not memo_holds(entry)
    # a new code gets an entry of its own
    other, run = case()
    run()
    assert len(calls) == 1 and decode._MEMO[other]


# ----------------------------------------------------------- bdd alternant

def test_bdd_zero_syndrome():
    ham = hamming_code()
    out = bdd_alternant(ham, [0])
    assert out.status == "corrected"
    assert not out.estimate.any()


def test_bdd_hamming_singles_match_exhaustive():
    ham = hamming_code()
    prov = ham.provenance
    f = prov["ext"]
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        s_ext = grs_syndrome(f, prov["a"], prov["y"], 1, e)
        assert s_ext[0] == f.mul(prov["y"][i], 1)  # hand value of the single row
        out = bdd_alternant(ham, s_ext)
        ref = exhaustive_decode(ham, syndrome_of(ham.H, e))
        assert out.status == "corrected"
        assert out.estimate.tolist() == ref.estimate.tolist()


def bch_15_instance():
    f = FieldSpec(2, 1, 4)
    alpha = [f.pow(2, i) for i in range(15)]
    return make_alternant(f, a=alpha, y=[1] * 15, r=4)


def test_bdd_weight_two_exhaustive_ball():
    code = bch_15_instance()
    prov = code.provenance
    f = prov["ext"]
    for supp in itertools.chain(
        itertools.combinations(range(15), 1), itertools.combinations(range(15), 2)
    ):
        e = np.zeros(15, dtype=np.uint8)
        e[list(supp)] = 1
        s = grs_syndrome(f, prov["a"], prov["y"], 4, e)
        out = bdd_alternant(code, s)
        assert out.status == "corrected", supp
        assert out.estimate.tolist() == e.tolist()


def test_bdd_random_weight_two_trials():
    code = bch_15_instance()
    prov = code.provenance
    f = prov["ext"]
    rng = np.random.default_rng(42)
    for _ in range(500):
        e = np.zeros(15, dtype=np.uint8)
        w = rng.integers(0, 3)
        if w:
            e[rng.choice(15, size=w, replace=False)] = 1
        s = grs_syndrome(f, prov["a"], prov["y"], 4, e)
        out = bdd_alternant(code, s)
        assert out.status == "corrected"
        assert out.estimate.tolist() == e.tolist()


def test_bdd_overweight_error_detected_somewhere():
    code = bch_15_instance()
    prov = code.provenance
    f = prov["ext"]
    detected = 0
    for supp in itertools.islice(itertools.combinations(range(15), 3), 30):
        e = np.zeros(15, dtype=np.uint8)
        e[list(supp)] = 1
        s = grs_syndrome(f, prov["a"], prov["y"], 4, e)
        out = bdd_alternant(code, s)
        if out.status == "detected-uncorrectable":
            detected += 1
        else:
            # a consistent lighter word is legal; its syndrome must still match
            assert grs_syndrome(f, prov["a"], prov["y"], 4, out.estimate) == list(s)
    assert detected > 0


def test_bdd_zero_evaluation_point():
    f = FieldSpec(2, 1, 4)
    a = [0] + [f.pow(2, i) for i in range(7)]
    code = make_alternant(f, a=a, y=[1] * 8, r=4)
    prov = code.provenance
    for supp in [(0,), (0, 3), (0, 7), (2, 5)]:
        e = np.zeros(8, dtype=np.uint8)
        e[list(supp)] = 1
        s = grs_syndrome(f, prov["a"], prov["y"], 4, e)
        out = bdd_alternant(code, s)
        assert out.status == "corrected", supp
        assert out.estimate.tolist() == e.tolist()


@pytest.mark.parametrize("bad", [16, -1])
def test_bdd_refuses_syndrome_entries_outside_the_field(bad):
    with pytest.raises(ValueError, match=rf"entry {bad} out of range for GF\(16\)"):
        bdd_alternant(bch_15_instance(), [bad, 0, 0, 0])


@pytest.mark.parametrize("p, m, n, r", [(2, 4, 15, 4), (2, 5, 24, 4), (3, 2, 8, 2)])
def test_bdd_agrees_with_exhaustive_up_to_half_the_designed_distance(p, m, n, r):
    """Every error of weight <= t = r/2, every nonzero base-field value:
    BDD corrects it to the exhaustive decoder's estimate.  GF(16) and
    GF(32) over GF(2), and GF(9) over GF(3), whose sums are not XORs."""
    f = FieldSpec(p, 1, m)
    code = make_alternant(f, a=range(1, n + 1), y=[1] * n, r=r)
    prov = code.provenance
    t = r // 2
    for w in range(t + 1):
        for supp in itertools.combinations(range(n), w):
            for vals in itertools.product(range(1, p), repeat=w):
                e = np.zeros(n, dtype=np.uint8)
                e[list(supp)] = vals
                out = bdd_alternant(code, grs_syndrome(f, prov["a"], prov["y"], r, e))
                ref = exhaustive_decode(code, syndrome_of(code.H, e))
                assert out.status == ref.status == "corrected", supp
                assert out.estimate.tolist() == ref.estimate.tolist() == e.tolist(), supp


# ------------------------------------------------------------------ flip

def test_flip_zero_syndrome_zero_flips():
    code, _ = make_expander(24, 2, 4, seed=0)
    out = flip_decode(code, np.zeros(code.H.rows, dtype=np.uint8))
    assert out.status == "corrected"
    assert out.counters["flips"] == 0
    assert not out.estimate.any()


def test_flip_single_bit_always_corrected():
    # degree-4 bits cannot lose a strict majority to a neighbor sharing
    # two checks, so every single-bit error must be recovered
    code, _ = make_expander(1000, 4, 5, seed=7)
    for i in range(0, 1000, 7):
        e = np.zeros(1000, dtype=np.uint8)
        e[i] = 1
        out = flip_decode(code, syndrome_of(code.H, e))
        assert out.status == "corrected"
        assert out.estimate.tolist() == e.tolist()


def test_flip_random_weight_five_mostly_corrected():
    code, _ = make_expander(1000, 4, 5, seed=7)
    rng = np.random.default_rng(1)
    ok = 0
    trials = 1000
    for _ in range(trials):
        e = np.zeros(1000, dtype=np.uint8)
        e[rng.choice(1000, size=5, replace=False)] = 1
        s = syndrome_of(code.H, e)
        out = flip_decode(code, s)
        if out.status == "corrected":
            ok += 1
            assert np.array_equal(syndrome_of(code.H, out.estimate), s)
            assert out.counters["flips"] <= 5 * 4 * 4
    assert ok / trials >= 0.99


def test_flip_parallel_agrees_on_syndrome_contract():
    code, _ = make_expander(1000, 4, 5, seed=7)
    rng = np.random.default_rng(2)
    corrected = 0
    for _ in range(50):
        e = np.zeros(1000, dtype=np.uint8)
        e[rng.choice(1000, size=4, replace=False)] = 1
        s = syndrome_of(code.H, e)
        seq = flip_decode(code, s)
        par = flip_decode(code, s, parallel=True)
        for out in (seq, par):
            if out.status == "corrected":
                assert np.array_equal(syndrome_of(code.H, out.estimate), s)
                assert out.residual is None
            else:
                assert out.residual is not None
        corrected += seq.status == "corrected" and par.status == "corrected"
    assert corrected >= 48


def test_flip_stall_reports_residual():
    code, _ = make_expander(24, 2, 4, seed=0)
    s = np.zeros(code.H.rows, dtype=np.uint8)
    s[0] = 1  # every bit on this check sees 1 unsat vs 1 sat: no strict majority
    out = flip_decode(code, s)
    assert out.status == "detected-uncorrectable"
    assert out.residual is not None and out.residual.any()


def reference_flip(H: MatrixGF, s: np.ndarray, max_rounds: int = 100):
    """The sequential flip search written plainly: a heap that may hold a
    bit many times, numpy incidence lookups, the same flip rule."""
    data = H.data != 0
    unsat = s.astype(np.uint8).copy()
    est = np.zeros(H.cols, dtype=np.uint8)
    checks_of_bit = [np.flatnonzero(data[:, i]) for i in range(H.cols)]
    bits_of_check = [np.flatnonzero(data[j]) for j in range(H.rows)]
    heap = sorted({int(b) for j in np.flatnonzero(unsat) for b in bits_of_check[j]})
    flips = 0
    while heap and flips < max_rounds * H.cols:
        i = heapq.heappop(heap)
        incident = checks_of_bit[i]
        if 2 * int(unsat[incident].sum()) <= len(incident):
            continue
        est[i] ^= 1
        flips += 1
        unsat[incident] ^= 1
        for j in incident:
            for b in bits_of_check[j]:
                heapq.heappush(heap, int(b))
    return est, flips, unsat


def test_flip_matches_reference_search():
    code, _ = make_expander(64, 3, 6, seed=1)
    rng = np.random.default_rng(5)
    for trial in range(300):
        if trial % 2:
            s = rng.integers(0, 2, size=code.H.rows).astype(np.uint8)
        else:
            e = np.zeros(64, dtype=np.uint8)
            e[rng.choice(64, size=1 + trial % 6, replace=False)] = 1
            s = syndrome_of(code.H, e)
        for max_rounds in (100, 1 / 64, 3 / 64):  # budgets of 6400, 1 and 3 flips
            est, flips, unsat = reference_flip(code.H, s, max_rounds)
            out = flip_decode(code, s, max_rounds=max_rounds)
            assert out.estimate.tolist() == est.tolist()
            assert out.counters == {"flips": flips}
            assert out.status == ("detected-uncorrectable" if unsat.any() else "corrected")
            if unsat.any():
                assert out.residual.tolist() == unsat.tolist()


@pytest.mark.parametrize("n, c, d, seed", [(64, 3, 6, 1), (1000, 4, 5, 7)])
def test_flip_rows_matches_reference_search_row_by_row(n, c, d, seed):
    code, _ = make_expander(n, c, d, seed=seed)
    rng = np.random.default_rng(9)
    rows = []
    for i in range(48):
        if i % 4 == 0:
            s = np.zeros(code.H.rows, dtype=np.uint8)
        elif i % 4 == 1:
            s = rng.integers(0, 2, size=code.H.rows).astype(np.uint8)
        else:
            e = np.zeros(n, dtype=np.uint8)
            e[rng.choice(n, size=1 + i % 8, replace=False)] = 1
            s = syndrome_of(code.H, e)
        rows.append(s)
    S = np.array(rows)
    for max_rounds in (6400 / n, 1 / n, 3 / n):  # budgets of 6400, 1 and 3 flips
        est, flips, unsat = _FlipKernel(code.H.data.astype(np.float32))(S, max_rounds * n)
        assert est.shape == (len(S), n) and unsat.shape == S.shape
        for i, s in enumerate(S):
            ref_est, ref_flips, ref_unsat = reference_flip(code.H, s, max_rounds)
            assert est[i].tolist() == ref_est.tolist()
            assert flips[i] == ref_flips
            assert unsat[i].tolist() == ref_unsat.tolist()


def mixed_syndromes(code, count: int, seed: int) -> np.ndarray:
    """count syndromes of code: zero ones, random ones and those of errors
    of weight 1 to 8, in turn."""
    rng = np.random.default_rng(seed)
    n = code.H.cols
    rows = []
    for i in range(count):
        if i % 4 == 0:
            s = np.zeros(code.H.rows, dtype=np.uint8)
        elif i % 4 == 1:
            s = rng.integers(0, 2, size=code.H.rows).astype(np.uint8)
        else:
            e = np.zeros(n, dtype=np.uint8)
            e[rng.choice(n, size=min(n, 1 + i % 8), replace=False)] = 1
            s = syndrome_of(code.H, e)
        rows.append(s)
    return np.array(rows, dtype=np.uint8).reshape(count, code.H.rows)


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])
def test_flip_lanes_match_reference_search_across_word_edges(rows):
    # 64 syndromes share a word: stacks one short of, at and past a word
    code, _ = make_expander(64, 3, 6, seed=1)
    S = mixed_syndromes(code, rows, seed=rows)
    for max_rounds in (100, 1 / 64, 3 / 64):  # budgets of 6400, 1 and 3 flips
        est, flips, unsat = _FlipKernel(code.H.data)(S, max_rounds * 64)
        assert est.shape == (rows, 64) and flips.shape == (rows,) and unsat.shape == S.shape
        for i, s in enumerate(S):
            ref_est, ref_flips, ref_unsat = reference_flip(code.H, s, max_rounds)
            assert est[i].tolist() == ref_est.tolist()
            assert flips[i] == ref_flips
            assert unsat[i].tolist() == ref_unsat.tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flip_lanes_match_reference_search_on_irregular_graphs(data):
    # small random H: bits of degree 0, of even and of odd degree side by side
    r = data.draw(st.integers(1, 7), label="checks")
    n = data.draw(st.integers(1, 10), label="bits")
    entries = data.draw(st.lists(st.integers(0, 1), min_size=r * n, max_size=r * n))
    H = MatrixGF(GF2, np.array(entries, dtype=np.uint8).reshape(r, n))
    rows = data.draw(st.integers(1, 70), label="rows")
    S = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
        0, 2, size=(rows, r)).astype(np.uint8)
    kernel = _FlipKernel(H.data)
    for budget in (1, 3, 6400):
        est, flips, unsat = kernel(S, budget / n * n)
        for i, s in enumerate(S):
            ref_est, ref_flips, ref_unsat = reference_flip(H, s, budget / n)
            assert est[i].tolist() == ref_est.tolist()
            assert flips[i] == ref_flips
            assert unsat[i].tolist() == ref_unsat.tolist()


def reference_parallel_flip(H: MatrixGF, s: np.ndarray, max_rounds: int = 100):
    """Parallel flip decoding written on numpy edge lists: every bit whose
    unsatisfied checks form a strict majority flips in each round."""
    data = H.data != 0
    bit_edges, check_edges = np.nonzero(data.T)
    degree = data.sum(axis=0)
    unsat = s.astype(np.uint8).copy()
    est = np.zeros(H.cols, dtype=np.uint8)
    flips = rounds = 0
    while rounds < max_rounds and unsat.any():
        ucount = np.bincount(bit_edges, weights=unsat[check_edges], minlength=H.cols)
        flip_mask = 2 * ucount > degree
        if not flip_mask.any():
            break
        est ^= flip_mask.astype(np.uint8)
        touched = check_edges[flip_mask[bit_edges]]
        unsat ^= (np.bincount(touched, minlength=H.rows) % 2).astype(np.uint8)
        flips += int(flip_mask.sum())
        rounds += 1
    return est, flips, rounds, unsat


@pytest.mark.parametrize("n, c, d, seed", [(64, 3, 6, 1), (1000, 4, 5, 7)])
def test_parallel_flip_matches_reference_loop(n, c, d, seed):
    code, _ = make_expander(n, c, d, seed=seed)
    S = mixed_syndromes(code, 70, seed=3)
    for max_rounds in (100, 1, 3):
        est, flips, rounds, unsat = _flip_kernel(code).run(S, max_rounds, parallel=True)
        for i, s in enumerate(S):
            ref_est, ref_flips, ref_rounds, ref_unsat = reference_parallel_flip(code.H, s, max_rounds)
            assert (est[i].tolist(), flips[i], rounds[i], unsat[i].tolist()) == (
                ref_est.tolist(), ref_flips, ref_rounds, ref_unsat.tolist())
            out = flip_decode(code, s, max_rounds=max_rounds, parallel=True)
            assert out.estimate.tolist() == ref_est.tolist()
            assert out.counters == {"flips": ref_flips, "rounds": ref_rounds}
            assert out.status == ("detected-uncorrectable" if ref_unsat.any() else "corrected")
            if ref_unsat.any():
                assert out.residual.tolist() == ref_unsat.tolist()


def test_flip_kernel_builds_and_runs_without_a_dense_copy_of_the_graph():
    # the outer graph is held as edge arrays: a dense copy of H, even one
    # byte per entry, would take H.size bytes (512 checks by 1024 bits).
    # A run keeps a few words per bit, however many steps it takes: 64
    # random syndromes run for about 200 steps.
    H = fast_family(2**14, 16, 3, 6, 0, validate=False).outer.H.data
    S = np.random.default_rng(0).integers(0, 2, size=(64, H.shape[0])).astype(np.uint8)
    peaks = []
    tracemalloc.start()
    try:
        kernel = decode._FlipKernel(H)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        _, flips, _ = kernel(S, 6400 * H.shape[1])
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert flips.max() > 100
    assert max(peaks) < H.size


def test_flip_kernel_is_built_once_per_code():
    code, _ = make_expander(64, 3, 6, seed=1)
    kernel = _per_code(code, _flip_kernel)
    assert _per_code(code, _flip_kernel) is kernel
    # decoding a bare check matrix keeps nothing
    flip_decode(code.H, np.zeros(code.H.rows, dtype=np.uint8))
    assert all(key is not code.H for key in decode._MEMO.keys())
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None
    assert not memo_holds(kernel)


def test_flip_counts_rounds_only_in_parallel_mode():
    code, _ = make_expander(1000, 4, 5, seed=7)
    e = np.zeros(1000, dtype=np.uint8)
    e[[3, 500]] = 1
    s = syndrome_of(code.H, e)
    seq = flip_decode(code, s)
    par = flip_decode(code, s, parallel=True)
    assert set(seq.counters) == {"flips"}
    assert seq.counters["flips"] == 2
    assert set(par.counters) == {"flips", "rounds"}
    assert par.counters["rounds"] >= 1


# ----------------------------------------------------------------- osmlg

def test_osmlg_hand_examples():
    assert osmlg_block_decode(5, np.array([0, 1, 1, 1], dtype=np.uint8)).tolist() == [1, 0, 0, 0, 1]
    assert osmlg_block_decode(3, np.array([0, 1], dtype=np.uint8)).tolist() == [0, 1, 0]
    assert osmlg_block_decode(7, np.zeros(6, dtype=np.uint8)).tolist() == [0] * 7


@pytest.mark.parametrize("n0", [3, 5, 7, 9])
def test_osmlg_exact_on_correctable_ball(n0):
    d0 = (n0 - 1) // 2
    ones = np.ones(n0 - 1, dtype=np.uint8)
    for cand in itertools.product((0, 1), repeat=n0):
        e = np.array(cand, dtype=np.uint8)
        if e.sum() > d0:
            continue
        s = e[:-1] ^ (e[-1] * ones)
        assert osmlg_block_decode(n0, s).tolist() == e.tolist()


def test_osmlg_miscorrects_beyond_bound():
    e = np.array([1, 1, 1, 0, 0], dtype=np.uint8)
    s = e[:-1] ^ (e[-1] * np.ones(4, dtype=np.uint8))
    decoded = osmlg_block_decode(5, s)
    assert decoded.tolist() != e.tolist()
    # but the decoded block still explains the syndrome
    s2 = decoded[:-1] ^ (decoded[-1] * np.ones(4, dtype=np.uint8))
    assert np.array_equal(s2, s)


# ----------------------------------------------------- composite decoders

def shor_like_context():
    outer = make_repetition(3)
    return SimpleNamespace(n=9, n0=3, outer=outer)


def test_pccss_x_zero():
    q = shor_like_context()
    out = pccss_decode_x(q, np.zeros(2, dtype=np.uint8))
    assert out.status == "corrected"
    assert not out.estimate.any()


def test_pccss_x_single_error_degenerate_match():
    q = shor_like_context()
    for pos in range(9):
        e = np.zeros(9, dtype=np.uint8)
        e[pos] = 1
        block_sums = (e.reshape(3, 3).sum(axis=1) % 2).astype(np.uint8)
        s_x = syndrome_of(q.outer.H, block_sums)
        out = pccss_decode_x(q, s_x)
        assert out.status == "corrected"
        # syndrome contract holds everywhere
        est_sums = (out.estimate.reshape(3, 3).sum(axis=1) % 2).astype(np.uint8)
        assert np.array_equal(syndrome_of(q.outer.H, est_sums), s_x)
        # estimate places bits only on block representatives
        assert not out.estimate.reshape(3, 3)[:, 1:].any()
        if pos < 3:
            # degeneracy certificate for the first block (the outer check
            # matrix has degree-1 columns, so later blocks can land on the
            # complementary coset representative)
            resid = (e ^ out.estimate).reshape(3, 3).sum(axis=1) % 2
            assert not resid.any()


def test_pccss_x_thousand_qubit_family_certificate():
    outer, _ = make_expander(200, 4, 5, seed=11)
    q = SimpleNamespace(n=1000, n0=5, outer=outer)

    def certificate_holds(e):
        bs = (e.reshape(200, 5).sum(axis=1) % 2).astype(np.uint8)
        out = pccss_decode_x(q, syndrome_of(outer.H, bs))
        if out.status != "corrected":
            return False
        return not ((e ^ out.estimate).reshape(200, 5).sum(axis=1) % 2).any()

    # every single-qubit X error, deterministically
    for pos in range(0, 1000, 3):
        e = np.zeros(1000, dtype=np.uint8)
        e[pos] = 1
        assert certificate_holds(e)

    # low-weight random errors; two block parities sharing two outer checks
    # stall the flip decoder, so the certificate is statistical here
    rng = np.random.default_rng(123)
    bad = 0
    trials = 2000
    for _ in range(trials):
        e = np.zeros(1000, dtype=np.uint8)
        e[rng.choice(1000, size=1 + rng.integers(0, 3), replace=False)] = 1
        bad += not certificate_holds(e)
    assert bad / trials <= 0.03


def test_pccss_x_rows_match_flip_decode_row_by_row():
    """The stacked X decoder gives every row flip_decode's outcome on the
    outer code, with the block parities lifted to the representatives."""
    outer, _ = make_expander(64, 3, 6, seed=5)
    q = SimpleNamespace(n=256, n0=4, outer=outer)
    rng = np.random.default_rng(17)
    parities = (rng.random((40, 64)) < 0.05).astype(np.uint8)
    S = np.array([syndrome_of(outer.H, b) for b in parities])
    S[::5] = rng.integers(0, 2, size=S[::5].shape)  # mostly not correctable
    outs = pccss_decode_x_rows(q, S, max_rounds=3)
    assert len(outs) == len(S)
    statuses = set()
    for s, out in zip(S, outs):
        ref = flip_decode(outer, s, max_rounds=3)
        lifted = np.zeros(256, dtype=np.uint8)
        lifted[np.flatnonzero(ref.estimate) * 4] = 1
        assert (out.status, out.counters) == (ref.status, ref.counters)
        assert out.estimate.tolist() == lifted.tolist()
        if ref.residual is None:
            assert out.residual is None
        else:
            assert out.residual.tolist() == ref.residual.tolist()
        statuses.add(out.status)
    assert statuses == {"corrected", "detected-uncorrectable"}
    single = pccss_decode_x(q, S[0], max_rounds=3)
    assert single.estimate.tolist() == outs[0].estimate.tolist()


def test_pccss_z_weight_one_per_block_exhaustive():
    q = SimpleNamespace(n=9, n0=3, outer=None)
    for positions in itertools.product(range(3), repeat=3):
        e = np.zeros((3, 3), dtype=np.uint8)
        for b, p in enumerate(positions):
            e[b, p] = 1
        s = (e[:, :-1] ^ e[:, -1:]).reshape(-1)
        out = pccss_decode_z(q, s)
        assert out.status == "corrected"
        assert out.estimate.tolist() == e.reshape(-1).tolist()


def test_pccss_z_miscorrection_above_bound():
    q = SimpleNamespace(n=25, n0=5, outer=None)
    e = np.zeros((5, 5), dtype=np.uint8)
    e[2, :3] = 1  # weight 3 in one block exceeds floor(4/2)
    s = (e[:, :-1] ^ e[:, -1:]).reshape(-1)
    out = pccss_decode_z(q, s)
    assert out.estimate.tolist() != e.reshape(-1).tolist()


def test_pccss_z_partitioned_bitwise_identical():
    # the finest contiguous partition: every block decoded on its own
    q = SimpleNamespace(n=60, n0=5, outer=None)
    rng = np.random.default_rng(3)
    for _ in range(60):
        s = rng.integers(0, 2, size=48).astype(np.uint8)
        blocks = [osmlg_block_decode(5, b) for b in s.reshape(12, 4)]
        assert pccss_decode_z(q, s).estimate.tolist() == np.concatenate(blocks).tolist()


def test_pccss_z_wrong_length_names_expected_bits():
    q = SimpleNamespace(n=9, n0=3, outer=None)
    with pytest.raises(ValueError, match=r"length 3 does not match 6 bits \(3 blocks of 2\)"):
        pccss_decode_z(q, np.zeros(3, dtype=np.uint8))


def test_outcome_carries_work_counters():
    q = shor_like_context()
    out = pccss_decode_x(q, np.array([1, 0], dtype=np.uint8))
    assert "flips" in out.counters
    z = pccss_decode_z(SimpleNamespace(n=9, n0=3, outer=None), np.zeros(6, dtype=np.uint8))
    assert z.counters["block_decodes"] == 3


@pytest.mark.parametrize("decoder", ["auto", "exhaustive", "flip"])
def test_outer_decoder_returns_residual_syndromes(decoder):
    # rank-2 checks: the syndrome 1 0 0 has no solution, so exhaustive
    # refuses it and leaves it as its own residual
    f = field_of_size(2)
    H = MatrixGF(f, np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    outer = LinearCode(f, 3, 1, MatrixGF(f, np.ones((1, 3), dtype=np.uint8)), H)
    S = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.uint8)
    est, flips, residual = decode._outer_decoder(SimpleNamespace(outer=outer), decoder, 5)(S)
    assert ((est @ H.data.T + residual) % 2 == S).all()
    assert residual[[0, 2]].tolist() == [[0, 0, 0], [0, 0, 0]]
    if decoder != "flip":
        assert est[1].tolist() == [0, 0, 0] and residual[1].tolist() == [1, 0, 0]
        assert flips.tolist() == [0, 0, 0]
