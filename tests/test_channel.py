import math

import numpy as np
import pytest

from pccss.channel import _Sampler, make_channel, sample_error, sample_errors


def test_symmetric_channel_splits_evenly():
    ch = make_channel(0.3, 1.0)
    assert ch.p_x == ch.p_y == pytest.approx(0.1, abs=1e-15)
    assert ch.p_z == pytest.approx(0.1, abs=1e-15)


def test_biased_channel_matches_closed_form():
    ch = make_channel(0.3, 100.0)
    assert ch.p_x == pytest.approx(0.3 / 201, abs=1e-15)
    assert ch.p_z == pytest.approx(0.3 * 199 / 201, abs=1e-12)


def test_probabilities_sum_and_ratio():
    for p, zeta in ((0.1, 1.0), (0.3, 100.0), (0.05, 10.0), (1.0, 2.0), (0.7, 3.5)):
        ch = make_channel(p, zeta)
        assert ch.p_x + ch.p_y + ch.p_z == pytest.approx(p, abs=1e-12)
        assert (ch.p_z + ch.p_y) / (ch.p_x + ch.p_y) == pytest.approx(zeta, rel=1e-9)
        assert ch.p_i == pytest.approx(1 - p, abs=1e-12)


def test_infinite_asymmetry_is_pure_z():
    ch = make_channel(0.05, math.inf)
    assert ch.p_x == 0.0 and ch.p_y == 0.0
    assert ch.p_z == 0.05
    e = sample_error(ch, 2000, seed=1)
    assert not e.x.any()
    assert e.z.any()


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_channel(-0.1, 1.0)
    with pytest.raises(ValueError):
        make_channel(1.1, 1.0)
    with pytest.raises(ValueError):
        make_channel(0.1, 0.5)
    with pytest.raises(ValueError):
        make_channel(0.1, math.nan)


def test_zero_rate_channel_is_silent():
    ch = make_channel(0.0, 5.0)
    e = sample_error(ch, 500, seed=3)
    assert not e.x.any() and not e.z.any()


def test_sampling_is_deterministic_per_key():
    ch = make_channel(0.2, 4.0)
    a = sample_error(ch, 100, seed=7, trial=5)
    b = sample_error(ch, 100, seed=7, trial=5)
    assert (a.x == b.x).all() and (a.z == b.z).all()
    c = sample_error(ch, 100, seed=7, trial=6)
    assert (a.x != c.x).any() or (a.z != c.z).any()
    d = sample_error(ch, 100, seed=8, trial=5)
    assert (a.x != d.x).any() or (a.z != d.z).any()


def test_trial_keying_is_schedule_independent():
    ch = make_channel(0.15, 2.0)
    forward = [sample_error(ch, 50, seed=11, trial=t) for t in range(8)]
    backward = [sample_error(ch, 50, seed=11, trial=t) for t in reversed(range(8))]
    for t in range(8):
        assert (forward[t].x == backward[7 - t].x).all()
        assert (forward[t].z == backward[7 - t].z).all()


def test_block_sampling_equals_per_trial_sampling():
    for p, zeta in ((0.05, math.inf), (0.02, 10.0), (0.3, 1.0)):
        ch = make_channel(p, zeta)
        trials = [9, 0, 3, 2**64 - 1, 3]
        block = sample_errors(ch, 70, seed=2**63 + 5, trials=trials)
        assert block.x.shape == block.z.shape == (len(trials), 70)
        for row, t in enumerate(trials):
            one = sample_error(ch, 70, seed=2**63 + 5, trial=t)
            assert block.x[row].tolist() == one.x.tolist()
            assert block.z[row].tolist() == one.z.tolist()


def test_block_sampling_matches_a_fresh_keyed_generator():
    ch = make_channel(0.2, 4.0)
    block = sample_errors(ch, 33, seed=12, trials=range(4))
    for t in range(4):
        key = np.array([12, t], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(33)
        assert block.x[t].tolist() == (u < ch.p_x + ch.p_y).astype(np.uint8).tolist()
        assert block.z[t].tolist() == ((u >= ch.p_x) & (u < ch.p)).astype(np.uint8).tolist()


def test_keys_outside_64_bits_are_rejected():
    ch = make_channel(0.1, 2.0)
    for seed, trial in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(ValueError, match="2\\^64"):
            sample_error(ch, 10, seed=seed, trial=trial)


@pytest.mark.parametrize("bad", [-1, 2**64])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_block_sampling_refuses_a_key_outside_64_bits_anywhere(bad, where):
    trials = [0, 2**64 - 1, 3, 0, 2**64 - 1]
    trials[where] = bad
    with pytest.raises(ValueError, match=f"trial index {bad} outside \\[0, 2\\^64\\)"):
        sample_errors(make_channel(0.1, 2.0), 10, seed=0, trials=trials)


def test_block_sampling_names_the_first_key_outside_64_bits():
    for trials, first in (([5, 2**64, -1], 2**64), ([5, -1, 2**64], -1)):
        with pytest.raises(ValueError, match=f"trial index {first} outside"):
            sample_errors(make_channel(0.1, 2.0), 10, seed=0, trials=trials)


def test_block_sampling_takes_both_ends_of_the_key_range_and_no_trials():
    ch = make_channel(0.3, 1.0)
    trials = [2**64 - 1, 0, 0, 2**64 - 1]
    block = sample_errors(ch, 40, seed=1, trials=trials)
    for row, t in enumerate(trials):
        one = sample_error(ch, 40, seed=1, trial=t)
        assert block.x[row].tolist() == one.x.tolist()
        assert block.z[row].tolist() == one.z.tolist()
    for empty in ([], range(0)):
        none = sample_errors(ch, 7, seed=1, trials=empty)
        assert none.x.shape == none.z.shape == (0, 7)
        assert none.x.dtype == none.z.dtype == np.uint8


def test_saturated_symmetric_channel_splits_three_ways():
    ch = make_channel(1.0, 1.0)
    e = sample_error(ch, 100_000, seed=2)
    assert (e.x | e.z).all()
    n_y = int((e.x & e.z).sum())
    n_x = int(e.x.sum()) - n_y
    n_z = int(e.z.sum()) - n_y
    sigma = math.sqrt(100_000 * (1 / 3) * (2 / 3))
    for count in (n_x, n_y, n_z):
        assert abs(count - 100_000 / 3) < 3 * sigma


def test_empirical_marginals_match_channel():
    n = 1_000_000
    for i, (p, zeta) in enumerate(
        ((0.1, 1.0), (0.3, 100.0), (0.05, 10.0), (1.0, 2.0), (0.5, math.inf))
    ):
        ch = make_channel(p, zeta)
        e = sample_error(ch, n, seed=100 + i)
        n_y = int((e.x & e.z).sum())
        n_x = int(e.x.sum()) - n_y
        n_z = int(e.z.sum()) - n_y
        n_i = n - n_x - n_y - n_z
        for count, prob in ((n_i, ch.p_i), (n_x, ch.p_x), (n_y, ch.p_y), (n_z, ch.p_z)):
            band = 4 * math.sqrt(n * prob * (1 - prob))
            assert abs(count - n * prob) <= band, (p, zeta, count, n * prob, band)


def test_lag_one_correlation_consistent_with_zero():
    ch = make_channel(0.2, 3.0)
    e = sample_error(ch, 1_000_000, seed=42)
    err = (e.x | e.z).astype(np.float64)
    a, b = err[:-1] - err.mean(), err[1:] - err.mean()
    corr = float((a * b).mean() / err.var())
    assert abs(corr) < 4 / math.sqrt(err.size)


EDGE_PS = (0.0, 2.0**-53, 3 * 2.0**-52, 0.5, 1 - 2.0**-53, 1.0)


@pytest.mark.parametrize("p", EDGE_PS)
@pytest.mark.parametrize("zeta", [1.0, 10.0, math.inf])
@pytest.mark.parametrize("n", [1, 3, 33, 1024])
def test_sampling_at_edge_probabilities_matches_a_fresh_keyed_generator(p, zeta, n):
    ch = make_channel(p, zeta)
    trials = (0, 1, 7, 2**64 - 1)
    block = sample_errors(ch, n, seed=5, trials=trials)
    assert block.x.dtype == block.z.dtype == np.uint8
    for row, t in enumerate(trials):
        key = np.array([5, t], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(n)
        assert block.x[row].tolist() == (u < ch.p_x + ch.p_y).astype(np.uint8).tolist()
        assert block.z[row].tolist() == ((u >= ch.p_x) & (u < ch.p)).astype(np.uint8).tolist()


@pytest.mark.parametrize("a", EDGE_PS + (0.05 / 21, 0.02))
def test_raw_word_threshold_is_exact_at_its_bound(a):
    # random draws almost never land next to a threshold, so check the words
    # that do: u = (raw >> 11) * 2^-53 is numpy's double from a raw word
    from pccss.channel import _below, _raw_bound

    bound = _raw_bound(a)
    near = {0, 2**11, 2**64 - 1} | {bound + k for k in (-2049, -2048, -1, 0, 1, 2047, 2048)}
    raw = np.array(sorted(w for w in near if 0 <= w < 2**64), dtype=np.uint64)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert _below(raw, bound).tolist() == (u < a).tolist()
    assert _below(raw, _raw_bound(0.0)).sum() == 0
    assert _below(raw, _raw_bound(1.0)).all()


@pytest.mark.parametrize("p, zeta", [(0.1, math.inf), (0.1, 10.0), (0.3, 1.0), (1.0, math.inf)])
def test_sampler_reused_over_blocks_draws_what_fresh_calls_draw(p, zeta):
    """One sampler drawing a full block, a partial one and a full one again
    gives each block the stacks a fresh sample_errors call gives."""
    ch = make_channel(p, zeta)
    sampler = _Sampler(ch, 33, seed=5, rows=8)
    for trials in (range(0, 8), range(8, 11), [2**64 - 1, 0, 7, 7, 1, 2, 3, 4], []):
        x, z = sampler.draw(trials)
        fresh = sample_errors(ch, 33, seed=5, trials=trials)
        assert z.dtype == np.uint8 and z.tolist() == fresh.z.tolist()
        if math.isinf(zeta):
            assert x is None and not fresh.x.any()
        else:
            assert x.dtype == np.uint8 and x.tolist() == fresh.x.tolist()


def test_sample_errors_results_own_their_arrays():
    for zeta in (3.0, math.inf):
        ch = make_channel(0.2, zeta)
        a = sample_errors(ch, 50, seed=1, trials=range(4))
        b = sample_errors(ch, 50, seed=1, trials=range(4))
        arrays = (a.x, a.z, b.x, b.z)
        for i, u in enumerate(arrays):
            for v in arrays[i + 1:]:
                assert not np.shares_memory(u, v)
        assert a.z.tolist() == b.z.tolist()
