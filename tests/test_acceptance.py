"""Acceptance suite: one test per criterion, each ending in a single
PASS/FAIL line (visible with pytest -s) at the stated tolerance.

The slow entries are the Monte Carlo bound validation (criterion 7,
~10^5 trials) and the decode timing scan up to N = 2^16 (criterion 11);
both stay in the minutes range.
"""

import itertools
import math
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from pccss.bounds import gv_css_rate, max_hashing_gap, pz_upper_bound, solve_threshold
from pccss.channel import make_channel, sample_error
from pccss.codes import dual, lift_block, make_alternant, make_repetition
from pccss.css import (
    check_valid,
    check_valid_stabilizer,
    counting_check,
    counting_check_enlarged,
    distance_css,
    distance_stabilizer,
    fast_family,
    make_enlarged,
    make_pccss,
)
from pccss.decode import (
    bdd_alternant,
    exhaustive_decode,
    grs_syndrome,
    osmlg_block_decode,
    pccss_decode_z,
    syndrome_of,
)
from pccss.galois import FieldSpec
from pccss.harness import ExperimentConfig, run_trials, timing_scaling, wilson_upper
from pccss.matgf import in_rowspace, mul, nullspace, rref
from pccss.stabcirc import build_encoder, verify_encoder


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def hamming_as_alternant():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    return make_alternant(f, a=alpha, y=alpha, r=1)


def test_criterion_01_shor_code_recovery():
    t0 = time.perf_counter()
    rep3 = make_repetition(3)
    q = make_pccss(lift_block(rep3, 3), rep3)
    d_x = distance_css(q, "x")
    d_z = distance_css(q, "z")
    elapsed = time.perf_counter() - t0

    pair = np.zeros(9, dtype=np.uint8)
    pair[[0, 1]] = 1
    in_null = not syndrome_of(q.hx, pair).any()
    degenerate = in_rowspace(rref(q.hz), pair)

    ok = (
        (q.n, q.k) == (9, 1)
        and d_x == 3
        and d_z == 3
        and in_null
        and degenerate
        and elapsed < 1.0
    )
    report(1, ok, f"[[{q.n},{q.k}]] d_x={d_x} d_z={d_z}, "
                  f"weight-2 null(hx) vector excluded as degenerate, {elapsed:.3f}s")


def test_criterion_02_commutation_identity():
    built = violations = skipped = 0
    for big_n in (64, 256, 1024):
        n0 = big_n // 16
        count, seed = 0, 0
        while count < 100:
            try:
                q = fast_family(big_n, n0, 3, 6, seed)
            except RuntimeError:
                # graph sampling exhausted its matching budget for this seed;
                # no code instance exists to check
                skipped += 1
                seed += 1
                continue
            seed += 1
            count += 1
            built += 1
            if mul(q.hx, q.hz.T).data.any() or not check_valid(q).ok:
                violations += 1
    ok = built == 300 and violations == 0
    report(2, ok, f"{built} instances at N in (64,256,1024), "
                  f"{violations} commutation violations ({skipped} seeds unbuildable)")


def test_criterion_03_osmlg_exactness():
    total = failures = 0
    for n0 in (3, 5, 7, 9):
        h = make_repetition(n0).H
        t = (n0 - 1) // 2
        for w in range(t + 1):
            for supp in itertools.combinations(range(n0), w):
                e = np.zeros(n0, dtype=np.uint8)
                e[list(supp)] = 1
                est = osmlg_block_decode(n0, syndrome_of(h, e))
                total += 1
                if est.tolist() != e.tolist():
                    failures += 1
    ok = failures == 0
    report(3, ok, f"{total} block Z-patterns of weight <= (n0-1)/2, "
                  f"{failures} miscorrections")


def test_criterion_04_alternant_bounded_distance():
    ham = hamming_as_alternant()
    prov = ham.provenance
    f3 = prov["ext"]
    singles = 0
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        out = bdd_alternant(ham, grs_syndrome(f3, prov["a"], prov["y"], 1, e))
        ref = exhaustive_decode(ham, syndrome_of(ham.H, e))
        if out.status == "corrected" and out.estimate.tolist() == ref.estimate.tolist():
            singles += 1

    f4 = FieldSpec(2, 1, 4)
    alpha = [f4.pow(2, i) for i in range(15)]
    code = make_alternant(f4, a=alpha, y=[1] * 15, r=4)
    prov = code.provenance
    rng = np.random.default_rng(2026)
    agreed = 0
    for _ in range(500):
        e = np.zeros(15, dtype=np.uint8)
        w = int(rng.integers(0, 3))
        if w:
            e[rng.choice(15, size=w, replace=False)] = 1
        out = bdd_alternant(code, grs_syndrome(f4, prov["a"], prov["y"], 4, e))
        ref = exhaustive_decode(code, syndrome_of(code.H, e))
        if (
            out.status == "corrected"
            and out.estimate.tolist() == e.tolist()
            and ref.estimate.tolist() == e.tolist()
        ):
            agreed += 1
    ok = singles == 7 and agreed == 500
    report(4, ok, f"hamming singles {singles}/7, "
                  f"n=15 r=4 weight<=2 oracle agreement {agreed}/500")


def test_criterion_05_rate_gap_reproduction():
    gap100 = max_hashing_gap(100.0, pmax=0.15, step=1e-4)
    gap1000 = max_hashing_gap(1000.0, pmax=0.15, step=1e-4)
    ok = gap100 < 3e-2 and gap1000 < 4e-3
    report(5, ok, f"max hashing gap {gap100:.5f} at zeta=100 (< 0.03), "
                  f"{gap1000:.6f} at zeta=1000 (< 0.004)")


def test_criterion_06_gv_landmark_point():
    root = solve_threshold(lambda delta: gv_css_rate(delta), 0.01, 0.3, tol=1e-9)
    ok = abs(root - 0.110) <= 5e-4
    report(6, ok, f"zero of 1 - 2 H2 at delta = {root:.6f} (0.110 +/- 5e-4)")


def test_criterion_07_block_failure_bound():
    bound = pz_upper_bound(1024, 16, 0.05)
    closed_form = 64 * 2**15 * 0.05**8
    code = fast_family(1024, 16, 3, 6, 0, validate=False)
    cfg = ExperimentConfig(
        p=0.05, zeta=math.inf, trials=200_000, n=1024, n0=16, seed=0
    )
    _, summary = run_trials(cfg, code=code)
    upper = wilson_upper(summary["z_failures"], cfg.trials)
    ok = bound == closed_form and upper <= bound and summary["x_failures"] == 0
    report(7, ok, f"{summary['z_failures']} uncorrectable-Z in {cfg.trials} trials, "
                  f"95% upper limit {upper:.3g} <= bound {bound:.4g}")


def test_criterion_08_encoder_verification():
    checked = 0
    ok = True
    for big_n, n0 in ((24, 4), (48, 8), (32, 2), (64, 4)):
        for seed in range(20):
            q = fast_family(big_n, n0, 3, 6, seed)
            circuit = build_encoder(q)
            meta = circuit.meta
            good = (
                meta["stage_two_cnots"] == big_n - big_n // n0
                and meta["depth"] <= q.outer.k + n0
                and verify_encoder(q, circuit).ok
            )
            ok = ok and good
            checked += 1
    report(8, ok, f"{checked} encoders tableau-verified, "
                  f"stage II CNOT counts exact, depth within k2 + n0")


def test_criterion_09_enlarged_construction():
    ham = hamming_as_alternant()
    spc = dual(make_repetition(3))
    s = make_enlarged(ham, spc)

    x = s.gens.data[:, :7].astype(np.int64)
    z = s.gens.data[:, 7:].astype(np.int64)
    commute = not ((x @ z.T + z @ x.T) % 2).any()

    h3 = mul(spc.H, ham.H)
    basis = nullspace(h3).data
    d3 = min(
        int((sum(row for row, pick in zip(basis, picks) if pick) % 2).sum())
        for picks in itertools.product((0, 1), repeat=basis.shape[0])
        if any(picks)
    )
    bound = min(3, math.ceil(3 * d3 / 2))
    d = distance_stabilizer(s)

    ok = (
        (s.n, s.k) == (7, 3)
        and commute
        and check_valid_stabilizer(s).ok
        and d >= bound
    )
    report(9, ok, f"[[{s.n},{s.k}]] symplectic-exact, "
                  f"distance {d} >= min(3, ceil(3*{d3}/2)) = {bound}")


@st.composite
def counting_params(draw):
    q = draw(st.sampled_from((2, 3, 4)))
    m = draw(st.integers(2, 5))
    f = draw(st.integers(1, 8))
    n1 = f + m * draw(st.integers(1, 12))
    k = draw(st.integers(f, f + 20))
    lam = draw(st.integers(1, n1))
    return n1, k, f, m, lam, q


def test_criterion_10_counting_inequalities():
    @settings(max_examples=200, deadline=None)
    @given(counting_params())
    def properties(params):
        n1, k, f, m, lam, q = params

        ok1, margin1 = counting_check(n1, k, f, m, 1, q)
        assert ok1
        assert margin1 >= 0.0

        s = sum((q - 1) ** j * math.comb(n1, j) for j in range(1, lam))
        got_ok, got_margin = counting_check(n1, k, f, m, lam, q)
        assert got_ok == (s**m < (q**m - 1) ** (k - f))

        ok_next, margin_next = counting_check(n1, k, f, m, min(lam + 1, n1), q)
        assert margin_next <= got_margin + 1e-12

        _, margin_k = counting_check(n1, k + 1, f, m, lam, q)
        assert margin_k >= got_margin - 1e-12

        assert counting_check_enlarged(n1, k, f, m, lam, q) == (got_ok, got_margin)

    ok = True
    detail = "empty-sum truth, big-integer exactness, and margin monotonicity hold"
    try:
        properties()
    except Exception as exc:  # hypothesis reports the shrunk example
        ok = False
        detail = f"property failed: {exc}"
    report(10, ok, detail)


def test_criterion_11_decoder_linearity():
    codes = [fast_family(2**e, 16, 3, 6, 0, validate=False) for e in range(10, 17)]
    scan = timing_scaling(codes, trials=32, p=0.05, seed=0, repeats=3)

    # the finest contiguous partition: each repetition block decoded alone,
    # the independence the parallel decoder rests on
    q = codes[2]
    ch = make_channel(0.08, math.inf)
    identical = True
    for trial in range(16):
        e = sample_error(ch, q.n, seed=77, trial=trial)
        s_z = syndrome_of(q.hz, e.z)
        whole = pccss_decode_z(q, s_z)
        blocks = [osmlg_block_decode(q.n0, b) for b in s_z.reshape(-1, q.n0 - 1)]
        if whole.estimate.tolist() != np.concatenate(blocks).tolist():
            identical = False

    worst = max(scan.ratios)
    ok = scan.ok and identical
    report(11, ok, f"serial decode ratio per doubling <= {worst:.2f} "
                   f"(threshold 2.5) over N = 2^10..2^16; "
                   f"Z-decode bit-identical to block-by-block: {identical}")
