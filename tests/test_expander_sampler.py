"""Pins of the expander sampler: the graphs make_expander draws, the seeds
it rejects, its matching budget, its block cap, and the generator stream
that drawing matchings in blocks relies on.

Every digest and seed set below was computed with the sampler that drew one
matching at a time, so any change to which matching is accepted shows here.
"""

import hashlib

import numpy as np
import pytest

from pccss import codes
from pccss.codes import code_to_text, make_expander


def bundle_digest(n: int, seed: int) -> str | None:
    """Digest of the (3, 6) code bundle with its graph, or None if the seed
    exhausts the matching budget."""
    try:
        code, graph = make_expander(n, 3, 6, seed)
    except RuntimeError as exc:
        assert str(exc) == f"no simple (3,6) graph on {n} bits in 1000 matchings"
        return None
    return hashlib.sha256(code_to_text(code, graph).encode()).hexdigest()[:16]


# n -> digests of make_expander(n, 3, 6, s) for s = 0..19
SMALL_GOLDEN = {
    6: (
        "8ea01573118b9f9f", "d43e1173b5849768", "d1a6d4b8807298dd", "3b6d0fae9bd1f621",
        "cb38caeaf40a5a4c", "5fa62039d9d6f685", "b909f7941bf4cd81", "1ca7c3982646e452",
        "582d3b701f8d3a91", "e5f98d506f6cfbd6", "bdd5bdd3554b7c5d", "fcb6c8310b946860",
        "de0b321a344f757e", "c033a2d2659a5385", "44b0bd5da0a59d91", "48b820c37833272b",
        "db39c336eb5d9eae", "1817b1bc88543681", "275bdb207a85e158", "268473cc290effdb",
    ),
    8: (
        "35f07a39dd672582", "9063057e17e548b6", "ad8bc6955ffc317a", "5e07c80de8105cdd",
        None, "e7dd32f0fd9ea978", "e68b2d90841672b9", "2f9063730e80237a",
        "83487d0ead791096", "511efbbe096d639d", "9c53311572c54026", "e44f2f6ffca7ea47",
        "7a0cbb3f2f9c6088", "87325db64cb373a4", "c96c60721a004fe6", "9888a4653a193e53",
        "a129c9c4d541767d", None, "829834f1b7fe1f81", "48211971cdfd75d6",
    ),
    16: (
        "2a5cfc86dbcefd0b", "f8c7ae549cb588d1", "f113c00fa04ccc56", "97da50eeb8997fe3",
        "919c47d1feaf7b2b", "0b8b61ae87ff1013", "904de56c4238f20f", "439fd9d3525fe3e2",
        "8925ddf165bc2c31", "1a18ea1b17d20fa3", "e25cd0a6bc9c7015", "f1df2734b511cbaf",
        "d8e31f3210dc0f8a", "662e3ccdcfaf7450", "c47fda25eb6faba3", "b992fa8da3ebee45",
        "50c7f3a9a5b72d9a", "748ca6b0b3d72124", "cade537adda6882d", "99ddea4590f091d1",
    ),
}

# (n, seed) -> digest for seeds whose first simple matching is the 1000th,
# the last one the budget allows
LAST_MATCHING = {
    (6, 13200): "79c3723ec70ecf4f",
    (6, 15563): "5d86c13b96fdac62",
    (8, 420): "cbd091f7ba85908f",
}

# (n, seeds below) -> the seeds in range(below) that exhaust the budget
REJECTED = {
    (64, 300): {91, 284},
    (8, 50): {4, 17, 20, 22, 32, 40, 46},
}

# (n, seed) for seeds rejected although their first simple matching comes
# only just past the budget: the 1005th, the 1002nd and the 1001st
JUST_PAST_BUDGET = ((6, 179), (6, 3738), (8, 146))


def pinned_cases() -> dict[tuple[int, int], str | None]:
    """(n, seed) -> pinned digest, None where the seed is rejected."""
    cases = {(n, s): v for n, row in SMALL_GOLDEN.items() for s, v in enumerate(row)}
    cases.update(LAST_MATCHING)
    cases.update(dict.fromkeys(JUST_PAST_BUDGET))
    return cases


@pytest.mark.parametrize("n", sorted(SMALL_GOLDEN))
def test_small_graphs_match_pinned_digests(n):
    assert tuple(bundle_digest(n, s) for s in range(20)) == SMALL_GOLDEN[n]


@pytest.mark.parametrize("n, below", sorted(REJECTED))
def test_rejected_seeds_are_pinned(n, below):
    rejected = {s for s in range(below) if bundle_digest(n, s) is None}
    assert rejected == REJECTED[n, below]


def test_budget_edge_seeds():
    """The 1000th matching is still accepted; no later one is."""
    for (n, s), digest in LAST_MATCHING.items():
        assert bundle_digest(n, s) == digest, (n, s)
    for n, s in JUST_PAST_BUDGET:
        assert bundle_digest(n, s) is None, (n, s)


@pytest.mark.parametrize("per_block", [1, 7])
def test_block_size_does_not_change_the_graph(monkeypatch, per_block):
    """Blocks of 1 or 7 matchings accept the same matching and reject the
    same seeds as the default blocks."""
    cases = pinned_cases()
    cases.update({(64, s): None for s in REJECTED[64, 300]})
    cases.update({(8, s): None for s in REJECTED[8, 50]})
    for (n, s), digest in sorted(cases.items()):
        monkeypatch.setattr(codes, "_BLOCK_STUBS", per_block * n * 3)
        assert bundle_digest(n, s) == digest, (n, s)


@pytest.mark.parametrize("stubs", [18, 48, 3072])
def test_permuted_rows_are_successive_permutations(stubs):
    """make_expander draws a block of matchings with one in-place
    Generator.permuted call and relies on its rows being the successive
    Generator.permutation draws, so that a seed keeps its graph."""
    right = np.repeat(np.arange(stubs // 6), 6)
    for seed in range(5):
        block_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        block = np.tile(np.arange(stubs), (5, 1))
        block_rng.permuted(block, axis=1, out=block)
        loop = np.stack([loop_rng.permutation(stubs) for _ in range(5)])
        assert np.array_equal(block, loop), (
            "Generator.permuted(np.tile(...), axis=1) no longer draws its rows as "
            "successive Generator.permutation calls; make_expander's graphs would change")
        assert block_rng.integers(1 << 62) == loop_rng.integers(1 << 62), (
            "Generator.permuted consumed the stream differently from Generator.permutation")
        # shuffling the check stubs themselves moves them as the permutation says
        checks = np.tile(right, (5, 1))
        np.random.default_rng(seed).permuted(checks, axis=1, out=checks)
        assert np.array_equal(checks, right[loop])
