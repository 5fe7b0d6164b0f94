import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from pccss import decode, harness
from pccss.bounds import pz_upper_bound
from pccss.channel import PauliError, make_channel, sample_error
from pccss.codes import lift_block, make_alternant, make_repetition
from pccss.css import fast_family, make_css, make_pccss
from pccss.decode import (
    CORRECTED,
    exhaustive_decode,
    pccss_decode_x,
    pccss_decode_z,
    syndrome_of,
)
from pccss.galois import FieldSpec
from pccss.harness import (
    ExperimentConfig,
    TrialRecord,
    _block_size,
    adversarial_sweep,
    logical_check,
    run_trials,
    timing_scaling,
    wilson_interval,
    wilson_upper,
)


def shor_like_code():
    return make_pccss(lift_block(make_repetition(3), 3), make_repetition(3))


def steane_like_code():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    ham = make_alternant(f, a=alpha, y=alpha, r=1)
    return make_css(ham, ham)


def brute_rowspace_ints(M) -> set[int]:
    rows = [int("".join(str(int(v)) for v in r), 2) for r in M.data]
    out = {0}
    for r in rows:
        out |= {r ^ s for s in out}
    return out


def vec_int(v) -> int:
    return int("".join(str(int(b)) for b in v), 2)


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-15)
    z = 1.6448536269514722
    up = wilson_upper(0, 100)
    assert up == pytest.approx(z * z / (100 + z * z), rel=1e-12)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_wilson_needs_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_logical_check_zero_residual():
    q = shor_like_code()
    zero = np.zeros(9, dtype=np.uint8)
    assert logical_check(q, PauliError(9, zero, zero)) == (False, False)


def test_logical_check_degenerate_pair_is_not_failure():
    q = shor_like_code()
    v = np.zeros(9, dtype=np.uint8)
    v[[0, 2]] = 1  # one block repetition check
    assert logical_check(q, PauliError(9, v, np.zeros(9, dtype=np.uint8)))[0] is False


def test_logical_check_weight_three_logical_fails():
    q = shor_like_code()
    v = np.zeros(9, dtype=np.uint8)
    v[[0, 3, 6]] = 1  # odd parity in every block, outer codeword
    assert logical_check(q, PauliError(9, v, np.zeros(9, dtype=np.uint8)))[0] is True


def test_logical_check_matches_exhaustive_enumeration():
    q = shor_like_code()
    hx_space = brute_rowspace_ints(q.hx)
    hz_space = brute_rowspace_ints(q.hz)
    hx = q.hx.data
    hz = q.hz.data
    zero = np.zeros(9, dtype=np.uint8)
    for bits in range(512):
        v = np.array([(bits >> i) & 1 for i in range(9)], dtype=np.uint8)
        expect_x = not (hx @ v % 2).any() and vec_int(v) not in hz_space and bits
        expect_z = not (hz @ v % 2).any() and vec_int(v) not in hx_space and bits
        got_x, _ = logical_check(q, PauliError(9, v, zero))
        _, got_z = logical_check(q, PauliError(9, zero, v))
        assert got_x == bool(expect_x), bits
        assert got_z == bool(expect_z), bits


def test_logical_check_generic_code_matches_enumeration():
    q = steane_like_code()
    hx_space = brute_rowspace_ints(q.hx)
    hz_space = brute_rowspace_ints(q.hz)
    zero = np.zeros(7, dtype=np.uint8)
    for bits in range(128):
        v = np.array([(bits >> i) & 1 for i in range(7)], dtype=np.uint8)
        expect_x = not (q.hx.data @ v % 2).any() and vec_int(v) not in hz_space and bits
        expect_z = not (q.hz.data @ v % 2).any() and vec_int(v) not in hx_space and bits
        got_x, _ = logical_check(q, PauliError(7, v, zero))
        _, got_z = logical_check(q, PauliError(7, zero, v))
        assert got_x == bool(expect_x), bits
        assert got_z == bool(expect_z), bits


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(p=0.1, zeta=1.0, trials=0, n=64, n0=4)
    with pytest.raises(ValueError):
        ExperimentConfig(p=0.1, zeta=1.0, trials=1, n=64, n0=4, decoder="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(p=0.1, zeta=1.0, trials=1)
    with pytest.raises(ValueError):
        ExperimentConfig(p=0.1, zeta=1.0, trials=1, bundle="/nonexistent/path.txt")


def test_resolved_partitions_is_one_whatever_the_environment(monkeypatch):
    cfg = ExperimentConfig(p=0.1, zeta=1.0, trials=1, n=64, n0=4)
    assert cfg.resolved_partitions() == 1
    monkeypatch.setenv("PCCSS_WORKERS", "3")
    assert cfg.resolved_partitions() == 1


def test_run_trials_noiseless_channel_never_fails():
    cfg = ExperimentConfig(p=0.0, zeta=2.0, trials=40, n=64, n0=4, code_seed=0)
    records, summary = run_trials(cfg)
    assert len(records) == 40
    assert summary["x_failures"] == 0 and summary["z_failures"] == 0
    assert all(r.wt_x == 0 and r.wt_z == 0 for r in records)


def _strip_seconds(records):
    return [dataclasses.replace(r, decode_seconds=0.0) for r in records]


def test_run_trials_records_recompute_from_keys():
    base = dict(p=0.05, zeta=5.0, trials=25, n=64, n0=4, code_seed=1, seed=4)
    records, _ = run_trials(ExperimentConfig(**base))
    again, _ = run_trials(ExperimentConfig(**base))
    assert _strip_seconds(records) == _strip_seconds(again)


def oracle_records(q, cfg):
    """run_trials written one trial at a time through the public per-trial
    calls, with decode_seconds zeroed."""
    ch = make_channel(cfg.p, cfg.zeta)
    records = []
    for t in range(cfg.trials):
        e = sample_error(ch, q.n, cfg.seed, trial=t)
        s_x = syndrome_of(q.hx, e.x)
        if cfg.decoder == "flip":
            out_x = pccss_decode_x(q, s_x, max_rounds=cfg.max_rounds)
        else:
            out_x = exhaustive_decode(q.outer, s_x)
            est = np.zeros(q.n, dtype=np.uint8)
            est[np.flatnonzero(out_x.estimate) * q.n0] = 1
            out_x.estimate = est
        out_z = pccss_decode_z(q, syndrome_of(q.hz, e.z))
        residual = PauliError(q.n, e.x ^ out_x.estimate, e.z ^ out_z.estimate)
        x_logical, z_logical = logical_check(q, residual)
        records.append(TrialRecord(
            trial=t,
            wt_x=int(e.x.sum()),
            wt_z=int(e.z.sum()),
            status_x=out_x.status,
            status_z=out_z.status,
            x_failed=bool(x_logical or out_x.status != CORRECTED),
            z_failed=bool(z_logical or out_z.status != CORRECTED),
            flips=int(out_x.counters.get("flips", 0)),
            block_decodes=int(out_z.counters["block_decodes"]),
            decode_seconds=0.0,
        ))
    return records


@pytest.mark.parametrize("code_seed", [0, 1])
@pytest.mark.parametrize("p, zeta, seed", [(0.05, math.inf, 0), (0.02, 10.0, 4)])
def test_run_trials_matches_per_trial_oracle(code_seed, p, zeta, seed):
    q = fast_family(1024, 16, 3, 6, code_seed, validate=False)
    cfg = ExperimentConfig(p=p, zeta=zeta, trials=300, n=1024, n0=16, seed=seed)
    assert cfg.trials % _block_size(q.n) != 0  # a last, partial block
    records, summary = run_trials(cfg, code=q)
    assert _strip_seconds(records) == oracle_records(q, cfg)
    assert summary["z_failures"] == sum(r.z_failed for r in records)
    if zeta == 10.0:
        assert any(r.flips for r in records)
        assert any(r.status_x != CORRECTED for r in records)


@pytest.mark.parametrize("trials", [63, 64, 65, 130])
@pytest.mark.parametrize("p, zeta, seed", [(0.05, math.inf, 0), (0.02, 10.0, 4)])
def test_run_trials_matches_oracle_across_decode_groups(monkeypatch, trials, p, zeta, seed):
    # 4096 bits per block: sampling blocks of 4 trials, decode groups of 64
    monkeypatch.setattr(harness, "_BLOCK_BITS", 4096)
    q = fast_family(1024, 16, 3, 6, 1, validate=False)
    groups = list(harness._groups(q, trials))
    assert groups[0][0] == (0, 4)
    assert [(g[0][0], g[-1][1]) for g in groups] == [
        (lo, min(lo + 64, trials)) for lo in range(0, trials, 64)]
    cfg = ExperimentConfig(p=p, zeta=zeta, trials=trials, n=1024, n0=16, seed=seed)
    records, _ = run_trials(cfg, code=q)
    assert _strip_seconds(records) == oracle_records(q, cfg)
    # decode_seconds is each trial's share of its group's time
    for lo in range(0, trials, 64):
        assert len({r.decode_seconds for r in records[lo : lo + 64]}) == 1


# n0 = 256 puts up to 256 ones in a block, past a uint8 block weight (p = 1
# at zeta = inf fills every block); n0 = 5 is an odd block length
@pytest.mark.parametrize("n, n0", [(4096, 256), (320, 5)])
@pytest.mark.parametrize("p, zeta", [(0.05, math.inf), (0.02, 10.0), (0.5, 1.0), (1.0, math.inf)])
def test_run_trials_matches_oracle_on_long_and_odd_blocks(n, n0, p, zeta):
    q = fast_family(n, n0, 3, 6, 0, validate=False)
    cfg = ExperimentConfig(p=p, zeta=zeta, trials=34, n=n, n0=n0, seed=6)
    assert _strip_seconds(run_trials(cfg, code=q)[0]) == oracle_records(q, cfg)


# Z (or X) weights of a block can pass 255 only with n0 above 255.  At p = 1
# every block of a zeta = inf run is all Z, and at zeta = 1 a block of 512
# carries about 341 X and as many Z; at p = 0.9, zeta = 1 a block carries
# about 0.6 n0 of each, below 256.
@pytest.mark.parametrize("n0, p, zeta", [(257, 0.9, 1.0), (300, 0.9, 1.0),
                                         (300, 1.0, math.inf), (512, 1.0, 1.0)])
def test_run_trials_weights_match_the_sampled_errors_on_long_blocks(n0, p, zeta):
    q = fast_family(8 * n0, n0, 3, 6, 0, validate=False)
    cfg = ExperimentConfig(p=p, zeta=zeta, trials=5, n=q.n, n0=n0, seed=9)
    ch = make_channel(p, zeta)
    heaviest = 0
    for r in run_trials(cfg, code=q)[0]:
        e = sample_error(ch, q.n, cfg.seed, trial=r.trial)
        assert (r.wt_x, r.wt_z) == (int(e.x.sum()), int(e.z.sum()))
        assert type(r.wt_x) is type(r.wt_z) is int
        heaviest = max(heaviest, *(int(v.reshape(-1, n0).sum(axis=1).max()) for v in (e.x, e.z)))
    assert (heaviest > 255) == (p == 1.0)


def test_run_trials_records_are_the_records_their_constructor_builds():
    cfg = ExperimentConfig(p=0.05, zeta=10.0, trials=30, n=64, n0=4, seed=3)
    for r in run_trials(cfg)[0]:
        built = TrialRecord(*(getattr(r, f.name) for f in dataclasses.fields(TrialRecord)))
        assert r == built and hash(r) == hash(built) and repr(r) == repr(built)
        assert vars(r) == vars(built) and list(vars(r)) == list(vars(built))
        assert dataclasses.replace(r, flips=r.flips + 1) == dataclasses.replace(
            built, flips=built.flips + 1)
        assert dataclasses.replace(r) == r
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.wt_x = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.flips


def test_run_trials_matches_oracle_below_one_block():
    q = fast_family(64, 4, 3, 6, 1, validate=False)
    cfg = ExperimentConfig(p=0.08, zeta=3.0, trials=7, n=64, n0=4, seed=2**64 - 1)
    assert _strip_seconds(run_trials(cfg, code=q)[0]) == oracle_records(q, cfg)


def test_run_trials_exhaustive_decoder_matches_oracle():
    q = shor_like_code()
    cfg = ExperimentConfig(p=0.15, zeta=1.0, trials=300, n=9, n0=3,
                           decoder="exhaustive", seed=3)
    records, _ = run_trials(cfg, code=q)
    assert _strip_seconds(records) == oracle_records(q, cfg)
    assert any(r.x_failed for r in records)


def test_run_trials_refuses_exhaustive_decoder_on_large_outer_code():
    cfg = ExperimentConfig(p=0.05, zeta=math.inf, trials=3, n=1024, n0=16,
                           decoder="exhaustive")
    with pytest.raises(ValueError, match="capped at n = 24"):
        run_trials(cfg)


def test_run_trials_status_split_matches_records():
    q = fast_family(1024, 16, 3, 6, 0, validate=False)
    cfg = ExperimentConfig(p=0.05, zeta=10.0, trials=200, n=1024, n0=16, seed=1)
    records, summary = run_trials(cfg, code=q)
    for side in "xz":
        status = [getattr(r, f"status_{side}") for r in records]
        failed = [getattr(r, f"{side}_failed") for r in records]
        counts = [summary[f"{side}_{kind}"] for kind in
                  ("corrected", "detected_uncorrectable", "silent_miscorrections")]
        assert sum(counts) == cfg.trials
        assert counts == [
            sum(st == CORRECTED and not f for st, f in zip(status, failed)),
            sum(st != CORRECTED for st in status),
            sum(st == CORRECTED and f for st, f in zip(status, failed)),
        ]
        assert counts[1] + counts[2] == summary[f"{side}_failures"]
    assert summary["x_detected_uncorrectable"] > 0


# run_trials' summary keys in order, with the type of each value
SUMMARY_TYPES = {
    "n": int, "n0": int, "p": float, "zeta": float, "trials": int,
    "x_failures": int, "z_failures": int,
    "x_corrected": int, "x_detected_uncorrectable": int, "x_silent_miscorrections": int,
    "z_corrected": int, "z_detected_uncorrectable": int, "z_silent_miscorrections": int,
    "x_rate": float, "z_rate": float, "x_wilson_upper95": float, "z_wilson_upper95": float,
    "pz_bound": float, "pz_bound_tight": float,
}


def test_run_trials_outputs_are_python_scalars_in_fixed_order():
    # callers print the summary in order and hash the records' repr, so
    # numpy scalars or a new key order would change their output
    cfg = ExperimentConfig(p=0.05, zeta=10.0, trials=200, n=1024, n0=16, seed=1)
    records, summary = run_trials(cfg, code=fast_family(1024, 16, 3, 6, 0, validate=False))
    field_types = {"status_x": str, "status_z": str, "x_failed": bool, "z_failed": bool,
                   "decode_seconds": float}
    for r in records:
        for f in dataclasses.fields(r):
            assert type(getattr(r, f.name)) is field_types.get(f.name, int), (f.name, r)
    assert any(r.x_failed for r in records) and any(r.status_x != CORRECTED for r in records)
    assert list(summary) == list(SUMMARY_TYPES)
    for key, value in summary.items():
        assert type(value) is SUMMARY_TYPES[key], key


@pytest.mark.parametrize("n0", [2, 3, 4, 5, 6])
def test_z_residual_threshold_matches_majority_decoding_on_every_block(n0):
    """The one-compare rule gives, for every block pattern, the residual
    that pccss_decode_z's estimate leaves: all ones exactly when flagged,
    all zeros otherwise."""
    q = make_pccss(lift_block(make_repetition(n0), 3), make_repetition(3))
    patterns = np.array([[(v >> j) & 1 for j in range(n0)] for v in range(2**n0)],
                        dtype=np.uint8)
    weight = patterns.sum(axis=1).astype(np.min_scalar_type(n0))
    flags = harness._z_residual(weight.copy(), patterns[:, -1], n0)
    for e, flag in zip(patterns, flags):
        error = np.tile(e, 3)
        residual = error ^ pccss_decode_z(q, syndrome_of(q.hz, error)).estimate
        assert residual.tolist() == [int(flag)] * q.n, e
    # the ties of an even block: half its bits set, the last one set or clear
    if n0 % 2 == 0:
        half = n0 // 2
        tie_last_clear = np.array([1] * half + [0] * half, dtype=np.uint8)
        tie_last_set = tie_last_clear[::-1]
        for tie, expected in ((tie_last_clear, True), (tie_last_set, False)):
            w = np.array([half], dtype=np.uint8)
            assert harness._z_residual(w, tie[-1:], n0).tolist() == [expected]


def test_run_trials_draws_every_block_through_one_sampler(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_BITS", 256)  # blocks of 4 trials at n = 64
    made = []

    class Counted(harness._Sampler):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(harness, "_Sampler", Counted)
    q = fast_family(64, 4, 3, 6, 1, validate=False)
    for zeta in (math.inf, 3.0):
        cfg = ExperimentConfig(p=0.08, zeta=zeta, trials=11, n=64, n0=4, seed=2)
        assert _strip_seconds(run_trials(cfg, code=q)[0]) == oracle_records(q, cfg)
    assert len(made) == 2 and all(args[3] == 4 for args in made)


def test_run_trials_decode_seconds_share_their_block():
    cfg = ExperimentConfig(p=0.05, zeta=10.0, trials=20, n=64, n0=4, seed=6)
    records, _ = run_trials(cfg)
    assert len({r.decode_seconds for r in records}) == 1
    assert records[0].decode_seconds > 0


def test_config_rejects_keys_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(p=0.1, zeta=1.0, trials=1, n=64, n0=4, seed=seed)
    ExperimentConfig(p=0.1, zeta=1.0, trials=1, n=64, n0=4, seed=2**64 - 1)


def test_run_trials_writes_csv(tmp_path):
    out = tmp_path / "trials.csv"
    cfg = ExperimentConfig(p=0.02, zeta=3.0, trials=10, n=64, n0=4, out=str(out))
    records, summary = run_trials(cfg)
    text = out.read_text().splitlines()
    assert text[0].startswith("trial,wt_x,wt_z,status_x")
    assert len([ln for ln in text if not ln.startswith("#")]) == 11
    assert any(ln.startswith("# pz_bound ") for ln in text)


def test_run_trials_requires_block_structure():
    cfg = ExperimentConfig(p=0.1, zeta=1.0, trials=1, n=7, n0=7)
    with pytest.raises(ValueError):
        run_trials(cfg, code=steane_like_code())


def test_run_trials_exhaustive_decoder_on_small_instance():
    from pccss.channel import make_channel

    cfg = ExperimentConfig(p=0.15, zeta=1.0, trials=200, n=9, n0=3,
                           decoder="exhaustive", seed=3)
    records, summary = run_trials(cfg, code=shor_like_code())
    assert summary["trials"] == 200
    assert 0 <= summary["x_rate"] <= 1 and 0 <= summary["z_rate"] <= 1
    ch = make_channel(cfg.p, cfg.zeta)
    pz = ch.p_z + ch.p_y  # a qubit's Z part is set by Z and by Y errors
    assert summary["pz_bound"] == pytest.approx(3 * 4 * pz**2, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pz_bounds_hold_at_finite_zeta(seed):
    # the sampler sets a qubit's Z part on a Z or a Y error, so the summary's
    # block-failure bounds take p_Z + p_Y; at p_Z alone they would be 0.027
    # and 0.036, far under this point's Z failure rate of about 0.099
    cfg = ExperimentConfig(p=0.05, zeta=1.0, trials=20000, n=96, n0=3, seed=seed)
    _, summary = run_trials(cfg)
    ch = make_channel(cfg.p, cfg.zeta)
    assert summary["pz_bound"] == pz_upper_bound(96, 3, ch.p_z + ch.p_y)
    assert summary["pz_bound_tight"] == pz_upper_bound(96, 3, ch.p_z + ch.p_y, tight=True)
    low, _ = wilson_interval(summary["z_failures"], cfg.trials)
    assert low <= summary["pz_bound_tight"] <= summary["pz_bound"]


def test_sweep_shor_single_x_errors_all_corrected():
    q = shor_like_code()
    (row,) = adversarial_sweep(q, "x", [1])
    assert row.exhaustive and row.trials == 9
    assert row.successes == 9
    assert row.rate == 1.0


def test_sweep_z_guarantee_below_half_block_distance():
    q = fast_family(40, 5, c=3, d=6, seed=0)
    rows = adversarial_sweep(q, "z", [1, 2, 3])
    assert rows[0].exhaustive and rows[0].rate == 1.0
    assert rows[1].exhaustive and rows[1].rate == 1.0
    # weight 3 can exceed floor((n0-1)/2) = 2 in one block; recorded only
    assert rows[2].trials == math.comb(40, 3)
    assert rows[2].rate <= 1.0


def test_sweep_sampled_above_enumeration_cap():
    q = fast_family(40, 5, c=3, d=6, seed=0)
    (row,) = adversarial_sweep(q, "z", [4], samples=25, seed=1)
    assert not row.exhaustive
    assert row.trials == 25


@pytest.mark.parametrize("side", ["x", "z"])
def test_sweep_matches_per_pattern_oracle(side):
    # weight 0 is its one empty pattern; weight 9 is sampled
    q = fast_family(1024, 16, 3, 6, 0, validate=False)
    rows = adversarial_sweep(q, side, [0, 9], samples=150, seed=2)
    rng = np.random.default_rng(2)
    zero = np.zeros(q.n, dtype=np.uint8)
    patterns = {0: [[]], 9: [np.sort(rng.choice(q.n, size=9, replace=False)) for _ in range(150)]}
    for row, w in zip(rows, (0, 9)):
        good = 0
        for pos in patterns[w]:
            vec = zero.copy()
            vec[pos] = 1
            if side == "x":
                out = pccss_decode_x(q, syndrome_of(q.hx, vec))
                failed = logical_check(q, PauliError(q.n, vec ^ out.estimate, zero))[0]
            else:
                out = pccss_decode_z(q, syndrome_of(q.hz, vec))
                failed = logical_check(q, PauliError(q.n, zero, vec ^ out.estimate))[1]
            good += out.status == CORRECTED and not failed
        assert (row.weight, row.trials, row.successes, row.exhaustive) == (
            w, len(patterns[w]), good, w == 0)


@pytest.mark.parametrize("code_seed", [0, 1])
def test_sweep_x_low_weights_match_per_pattern_oracle(code_seed):
    # weight 1 is enumerated (1024 patterns), weights 2 and 3 are sampled
    q = fast_family(1024, 16, 3, 6, code_seed, validate=False)
    rows = adversarial_sweep(q, "x", [1, 2, 3], samples=200)
    rng = np.random.default_rng(0)
    zero = np.zeros(q.n, dtype=np.uint8)
    patterns = {1: [[i] for i in range(q.n)]}
    for w in (2, 3):
        patterns[w] = [np.sort(rng.choice(q.n, size=w, replace=False)) for _ in range(200)]
    for row, w in zip(rows, (1, 2, 3)):
        good = 0
        for pos in patterns[w]:
            vec = zero.copy()
            vec[pos] = 1
            out = pccss_decode_x(q, syndrome_of(q.hx, vec))
            failed = logical_check(q, PauliError(q.n, vec ^ out.estimate, zero))[0]
            good += out.status == CORRECTED and not failed
        assert (row.weight, row.trials, row.successes) == (w, len(patterns[w]), good)
        assert row.exhaustive == (w == 1)
    assert rows[0].rate < 1  # the shipped flip rule misses some weight-1 errors


def test_sweep_z_side_ignores_x_decoder_choice():
    q = fast_family(1024, 16, 3, 6, 0, validate=False)
    rows = adversarial_sweep(q, "z", [9], samples=20, seed=2, decoder="exhaustive")
    assert rows == adversarial_sweep(q, "z", [9], samples=20, seed=2, decoder="flip")


def test_sweep_validation():
    q = shor_like_code()
    with pytest.raises(ValueError):
        adversarial_sweep(q, "y", [1])
    with pytest.raises(ValueError):
        adversarial_sweep(q, "x", [10])


@pytest.mark.parametrize("n", [64, 1024])
def test_sweep_refuses_an_unknown_decoder(n):
    # once, every name but auto and flip fell through to exhaustive search
    q = fast_family(n, 4, 3, 6, 1, validate=False)
    with pytest.raises(ValueError, match="unknown decoder 'bposd'"):
        adversarial_sweep(q, "x", [1], decoder="bposd")


def test_z_sweep_refuses_an_unknown_decoder():
    # a Z sweep never runs the outer decoder, yet it names the same decoders
    q = fast_family(64, 4, 3, 6, 1)
    with pytest.raises(ValueError, match="unknown decoder 'bposd'"):
        adversarial_sweep(q, "z", [1], decoder="bposd")
    assert adversarial_sweep(q, "z", [1], decoder="flip") == adversarial_sweep(q, "z", [1])


def test_monte_carlo_path_never_forms_the_outer_g_h_or_k():
    """The outer code of fast_family is reached through its graph alone:
    building forms nothing, and with the G and dense-H builders made to
    raise, choosing the decoder ("auto" reads n > 24 before k) and a run of
    trials still form neither G nor H, nor so k."""
    q = fast_family(2**16, 16, 3, 6, 0, validate=False)
    outer = q.outer
    assert (outer._G, outer._H, outer._k, q._k) == (None, None, None, None)

    def unbuilt(code):
        raise AssertionError("a dense outer matrix was formed")

    outer._G_builder = outer._H_builder = unbuilt
    assert harness._outer_decoder(q, "auto", 100) is not None
    cfg = ExperimentConfig(p=0.01, zeta=10.0, trials=64, n=2**16, n0=16, seed=3)
    records, summary = run_trials(cfg, code=q)
    assert len(records) == 64 and summary["x_failures"] > 0
    assert (outer._G, outer._H, outer._k, q._k) == (None, None, None, None)
    with pytest.raises(AssertionError, match="dense outer matrix"):
        q.k


def test_run_trials_and_config_refuse_an_unknown_decoder():
    with pytest.raises(ValueError, match="unknown decoder 'bposd'"):
        ExperimentConfig(p=0.1, zeta=1.0, trials=3, n=9, n0=3, decoder="bposd")
    cfg = ExperimentConfig(p=0.1, zeta=1.0, trials=3, n=9, n0=3)
    cfg.decoder = "bposd"
    with pytest.raises(ValueError, match="unknown decoder 'bposd'"):
        run_trials(cfg, code=shor_like_code())


@pytest.mark.parametrize("rounds", [0, -3])
def test_library_refuses_a_round_cap_below_one(rounds):
    # once, max_rounds=0 ran every X syndrome undecoded: 167 of 200 trials
    # failed against 108 at the default cap, and a -3 sweep corrected nothing
    message = f"round cap must be >= 1, got {rounds}"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(p=0.02, zeta=10, trials=200, n=1024, n0=16, max_rounds=rounds)
    cfg = ExperimentConfig(p=0.02, zeta=10, trials=8, n=64, n0=4)
    cfg.max_rounds = rounds
    q = fast_family(64, 4, 3, 6, 1)
    with pytest.raises(ValueError, match=message):
        run_trials(cfg, code=q)
    with pytest.raises(ValueError, match=message):
        adversarial_sweep(q, "x", [1], decoder="flip", max_rounds=rounds)
    s = np.zeros(q.outer.graph.r, dtype=np.uint8)
    with pytest.raises(ValueError, match=message):
        decode.flip_decode(q.outer, s, max_rounds=rounds)
    with pytest.raises(ValueError, match=message):
        decode.pccss_decode_x_rows(q, s[None, :], max_rounds=rounds)


def block_logical_z(q):
    """A Z residual, all ones on the first block, whose check needs the
    rref of the outer code's checks."""
    z = np.zeros(q.n, dtype=np.uint8)
    z[: q.n0] = 1
    return PauliError(q.n, np.zeros(q.n, dtype=np.uint8), z)


def css_logical_x(q):
    """An X residual, a row of hz, whose check needs the rref of hz."""
    return PauliError(q.n, q.hz.data[0].copy(), np.zeros(q.n, dtype=np.uint8))


@pytest.mark.parametrize("make, builder, residual", [
    (shor_like_code, "_check_rref", block_logical_z),
    (steane_like_code, "_css_rrefs", css_logical_x),
])
def test_check_rrefs_are_built_once_per_code_and_freed_with_it(monkeypatch, make, builder,
                                                               residual):
    calls = []
    real = getattr(harness, builder)
    monkeypatch.setattr(harness, builder, lambda code: calls.append(code) or real(code))
    q = make()
    attrs = set(vars(q))
    logical_check(q, residual(q))
    logical_check(q, residual(q))
    if q.n0:
        run_trials(ExperimentConfig(p=0.3, zeta=math.inf, trials=64, n=9, n0=3), code=q)
    key = q.outer if q.n0 else q
    assert calls == [key]
    assert set(vars(q)) == attrs  # nothing is cached on the code itself
    entry = decode._MEMO[key][getattr(harness, builder)]
    alive = weakref.ref(key)
    del q, key
    calls.clear()
    gc.collect()
    assert alive() is None
    assert not any(v is entry for entries in list(decode._MEMO.values())
                   for v in entries.values())


@pytest.mark.parametrize("samples", [0, -1])
def test_sweep_refuses_no_samples_only_for_a_sampled_weight(samples):
    q = fast_family(128, 16, 3, 6, 0, validate=False)
    with pytest.raises(ValueError, match=f"sample count >= 1, got {samples}"):
        adversarial_sweep(q, "x", [1, 5], samples=samples)
    # C(128, 2) = 8128 patterns: enumerated, so no sample count is needed
    assert adversarial_sweep(q, "z", [1, 2], samples=samples) == adversarial_sweep(
        q, "z", [1, 2])


def test_timing_report_mechanics():
    codes = [fast_family(512, 16, c=3, d=6, seed=0, validate=False),
             fast_family(1024, 16, c=3, d=6, seed=0, validate=False)]
    report = timing_scaling(codes, trials=8, repeats=2)
    assert len(report.rows) == 2
    assert len(report.ratios) == 1
    text = report.csv_text()
    assert text.startswith("n,serial_seconds\n512,")
    assert "# ok" in text


def test_timing_gate_fails_a_quadratic_decoder(monkeypatch):
    # a stand-in Z decoder whose CPU time grows as n^2: timing whole passes
    # over sections of at least 50 ms must not hide it from the gate
    real = harness.pccss_decode_z

    def quadratic(q, s_z):
        sum(range(8 * q.n * q.n))
        return real(q, s_z)

    monkeypatch.setattr(harness, "pccss_decode_z", quadratic)
    codes = [fast_family(n, 4, 3, 6, 0, validate=False) for n in (64, 128, 256)]
    report = timing_scaling(codes, trials=2, repeats=3)
    assert len(report.ratios) == 2
    assert not report.ok, report.ratios


def test_timing_grid_must_be_sorted():
    codes = [fast_family(1024, 16, c=3, d=6, seed=0, validate=False),
             fast_family(512, 16, c=3, d=6, seed=0, validate=False)]
    with pytest.raises(ValueError):
        timing_scaling(codes, trials=2)


def test_timing_smoke_on_tiny_instance():
    report = timing_scaling([shor_like_code()], trials=4, repeats=1)
    assert report.rows[0].n == 9
    assert report.rows[0].serial_seconds < 0.5
    assert report.ok  # no doublings, vacuous
