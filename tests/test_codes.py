"""Classical component code constructions.

Oracles: direct polynomial-evaluation enumeration for GRS codewords,
exhaustive membership filtration for subfield subcodes, and brute-force
weight enumeration for distances.
"""
from __future__ import annotations

import hashlib
import itertools
import weakref

import numpy as np
import pytest

from pccss import codes
from pccss.codes import (
    ExpanderGraph,
    GrsSpec,
    LinearCode,
    certify_distance,
    code_from_text,
    code_to_text,
    dual,
    lift_block,
    make_alternant,
    make_expander,
    make_grs,
    make_random_gv,
    make_repetition,
    min_weight,
    probe_min_weight,
)
from pccss.galois import GF2, FieldSpec, field_of_size
from pccss.matgf import MatrixGF, in_rowspace, mul, rank, rref, transpose

GF4 = field_of_size(4)
GF8 = field_of_size(8)


def codeword_set(code: LinearCode) -> set[tuple[int, ...]]:
    f = code.field
    out = set()
    for coeffs in itertools.product(range(f.size), repeat=code.k):
        acc = [0] * code.n
        for c, row in zip(coeffs, code.G.data):
            for j in range(code.n):
                acc[j] = f.add(acc[j], f.mul(c, int(row[j])))
        out.add(tuple(acc))
    return out


# ------------------------------------------------------------- repetition

def test_repetition_3():
    c = make_repetition(3)
    assert (c.n, c.k, c.d_certified) == (3, 1, 3)
    assert c.H.data.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert c.G.data.tolist() == [[1, 1, 1]]


def test_repetition_2_and_5():
    c2 = make_repetition(2)
    assert c2.H.data.tolist() == [[1, 1]]
    assert c2.G.data.tolist() == [[1, 1]]
    assert make_repetition(5).d_certified == 5
    with pytest.raises(ValueError):
        make_repetition(1)


def test_repetition_validates_once_per_length(monkeypatch):
    """Each call returns a new code, but _new_code's rank checks on G and H
    run once per n0."""
    calls = []
    real = codes.rank
    monkeypatch.setattr(codes, "rank", lambda M: calls.append(M) or real(M))
    codes._repetition_code.cache_clear()
    first, second = make_repetition(6), make_repetition(6)
    assert first is not second and first.provenance is not second.provenance
    assert (first.G, first.H, first.provenance) == (second.G, second.H, second.provenance)
    assert len(calls) == 2
    make_repetition(7)
    assert len(calls) == 4


def test_repetition_distance_brute_force_agrees():
    for n0 in (2, 3, 5, 7):
        c = make_repetition(n0)
        assert min_weight(c.G) == c.d_certified


# ------------------------------------------------------------------ lift

def test_lift_block_diagonal():
    c = lift_block(make_repetition(3), 3)
    assert (c.n, c.k, c.d_certified) == (9, 3, 3)
    H = c.H.data
    assert H.shape == (6, 9)
    assert H[:2, :3].tolist() == [[1, 0, 1], [0, 1, 1]]
    assert not H[:2, 3:].any()
    assert H[4:, 6:].tolist() == [[1, 0, 1], [0, 1, 1]]


def test_lift_identity_copy():
    inner = make_repetition(4)
    assert lift_block(inner, 1).H == inner.H


def test_lift_rep2_twice():
    c = lift_block(make_repetition(2), 2)
    assert (c.n, c.k) == (4, 2)
    assert min_weight(c.G) == 2 == c.d_certified


def test_min_weight_skips_zero_from_dependent_rows():
    # a repeated generator row makes the zero word a combination of rows;
    # it is not a nonzero codeword, so the minimum stays that of the code
    G = make_repetition(5).G
    assert min_weight(MatrixGF(GF2, np.vstack([G.data, G.data]))) == 5
    f3 = field_of_size(3)
    G3 = MatrixGF(f3, [[1, 2, 0, 1], [0, 1, 1, 1]])
    assert min_weight(MatrixGF(f3, np.vstack([G3.data, G3.data]))) == min_weight(G3)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_min_weight_refuses_all_zero_rows(q):
    # every row combination is the zero word: no nonzero codeword to weigh
    for rows in (1, 2):
        G = MatrixGF(field_of_size(q), np.zeros((rows, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="no nonzero codeword"):
            min_weight(G)


# ------------------------------------------------------------------- GRS

def oracle_grs_codewords(field, a, v, k) -> set[tuple[int, ...]]:
    """Evaluate every polynomial of degree < k at the points, times multipliers."""
    out = set()
    for coeffs in itertools.product(range(field.size), repeat=k):
        cw = []
        for ai, vi in zip(a, v):
            acc = 0
            for c in reversed(coeffs):  # Horner
                acc = field.add(field.mul(acc, ai), c)
            cw.append(field.mul(vi, acc))
        out.add(tuple(cw))
    return out


def test_grs_gf4_full_support():
    spec = GrsSpec(GF4, a=(0, 1, 2, 3), v=(1, 1, 1, 1), k=2)
    code = make_grs(spec)
    assert (code.n, code.k, code.d_certified) == (4, 2, 3)
    assert codeword_set(code) == oracle_grs_codewords(GF4, spec.a, spec.v, 2)
    assert min_weight(code.G) == 3


def test_grs_single_parity():
    spec = GrsSpec(GF8, a=tuple(range(8)), v=(1,) * 8, k=7)
    code = make_grs(spec)
    assert code.d_certified == 2
    assert code.H.rows == 1


def test_grs_mds_brute_force():
    spec = GrsSpec(GF8, a=tuple(range(1, 8)), v=(1,) * 7, k=2)
    code = make_grs(spec)
    assert min_weight(code.G) == 6 == code.n - code.k + 1


def test_grs_dual_is_grs_with_y_multipliers():
    spec = GrsSpec(GF8, a=tuple(range(8)), v=(3, 1, 4, 1, 5, 2, 6, 5), k=3)
    code = make_grs(spec)
    dual_spec = GrsSpec(GF8, a=spec.a, v=spec.y, k=code.n - spec.k)
    dual_code = make_grs(dual_spec)
    assert rref(code.H).matrix == rref(dual_code.G).matrix


def test_grs_annihilation_and_spec_validation():
    spec = GrsSpec(GF8, a=(1, 2, 3, 4, 5), v=(1, 1, 2, 3, 7), k=2)
    code = make_grs(spec)
    assert not mul(code.G, transpose(code.H)).data.any()
    with pytest.raises(ValueError):
        GrsSpec(GF8, a=(1, 1, 2), v=(1, 1, 1), k=2)  # repeated point
    with pytest.raises(ValueError):
        GrsSpec(GF8, a=(1, 2, 3), v=(1, 0, 1), k=2)  # zero multiplier
    with pytest.raises(ValueError):
        GrsSpec(GF8, a=(1, 2, 3), v=(1, 1, 1), k=3)  # k = n


# -------------------------------------------------------------- alternant

def test_alternant_hamming_7_4_3():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    code = make_alternant(f, a=alpha, y=alpha, r=1)
    assert (code.n, code.k) == (7, 4)
    assert code.k >= code.n - 3 * 1
    code = certify_distance(code)
    assert code.d_certified == 3


def test_alternant_dimension_bound_holds():
    f = FieldSpec(2, 1, 4)
    pts = [f.pow(3, i) for i in range(8)]  # any 8 distinct nonzero points
    assert len(set(pts)) == 8
    for r in (1, 2, 3):
        code = make_alternant(f, a=pts, y=[1] * 8, r=r)
        assert code.k >= code.n - 4 * r
        assert code.provenance["d_lower"] == r + 1


def test_alternant_distance_bound_small_instances():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    for r in (1, 2):
        code = make_alternant(f, a=alpha, y=alpha, r=r)
        if code.k:
            assert min_weight(code.G) >= r + 1


def test_alternant_equals_filtered_grs_nullspace():
    # membership by direct evaluation over the extension field, n <= 10
    f = FieldSpec(2, 1, 3)
    a = [f.pow(2, i) for i in range(6)]
    y = [f.pow(2, 2 * i + 1) for i in range(6)]
    code = make_alternant(f, a=a, y=y, r=2)
    members = set()
    for v in itertools.product((0, 1), repeat=6):
        ok = True
        for j in range(2):
            acc = 0
            for ai, yi, vi in zip(a, y, v):
                if vi:
                    acc = f.add(acc, f.mul(yi, f.pow(ai, j)))
            if acc:
                ok = False
                break
        if ok:
            members.add(v)
    assert codeword_set(code) == members


def test_alternant_full_redundancy_gives_length_distance():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    code = make_alternant(f, a=alpha, y=alpha, r=6)
    assert code.k == 1
    code = certify_distance(code)
    assert code.d_certified == 7


# -------------------------------------------------------------- random GV

def test_random_gv_12_4():
    code = make_random_gv(12, 4, seed=7)
    assert code.d_certified is not None and code.d_certified >= 4
    assert code.d_method == "exhaustive"
    assert min_weight(code.G) == code.d_certified


def test_random_gv_identity_edge():
    code = make_random_gv(5, 5, seed=0)
    assert code.k == 5 and code.d_certified == 1
    assert code.H.rows == 0


def test_random_gv_7_4():
    assert make_random_gv(7, 4, seed=3).d_certified >= 2


def test_random_gv_rejects_uncertifiable_length():
    with pytest.raises(ValueError):
        make_random_gv(29, 5, seed=0)


# --------------------------------------------------------------- expander

def test_expander_small_instance():
    code, graph = make_expander(10, 3, 6, seed=1)
    assert code.n == 10
    assert graph.r == 5
    assert code.k >= 5
    assert code.k == 10 - rank(code.H)
    assert all(len(nb) == 3 and len(set(nb)) == 3 for nb in graph.left)
    assert all(len(nb) == 6 and len(set(nb)) == 6 for nb in graph.right)
    # adjacency consistent with H
    for i, nbs in enumerate(graph.left):
        assert sorted(np.nonzero(code.H.data[:, i])[0].tolist()) == sorted(nbs)


def test_expander_degree_accounting_error():
    with pytest.raises(ValueError):
        make_expander(10, 3, 4, seed=0)


@pytest.mark.parametrize("n, c, d", [(16, 0, 6), (16, 3, 0), (16, -1, 6), (16, 0, 0)])
def test_expander_degree_below_one_is_refused(n, c, d):
    with pytest.raises(ValueError, match=f"degrees \\({c},{d}\\) must both be >= 1"):
        make_expander(n, c, d, seed=0)


@pytest.mark.parametrize("n, c, d", [(4, 3, 6), (2, 2, 4), (6, 4, 8)])
def test_expander_with_fewer_checks_than_bit_degree_is_refused_before_drawing(
        monkeypatch, n, c, d):
    # r = n c / d < c: no bit can have c distinct checks
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=f"no simple \\({c},{d}\\) graph on {n} bits: "):
        make_expander(n, c, d, seed=0)


def test_expander_builds_h_g_and_k_once_on_first_read():
    code, graph = make_expander(64, 3, 6, seed=1)
    assert (code._k, code._G, code._H) == (None, None, None) and code.graph is graph
    built = []
    for name in ("G", "H"):
        real = getattr(code, f"_{name}_builder")
        setattr(code, f"_{name}_builder",
                lambda c, real=real, name=name: built.append(name) or real(c))
    assert code.k == 32 and built == ["G", "H"]
    G, H = code.G, code.H
    assert (code.k, code.G, code.H) == (32, G, H) and code.G is G and code.H is H
    assert built == ["G", "H"]
    # the dense H is the graph's
    assert [tuple(np.flatnonzero(row)) for row in H.data] == list(graph.right)
    # builders take the code rather than closing over it: no reference cycle
    ref = weakref.ref(code)
    del code, G, H
    assert ref() is None


def test_expander_deterministic_in_seed():
    c1, g1 = make_expander(24, 2, 4, seed=9)
    c2, g2 = make_expander(24, 2, 4, seed=9)
    assert c1.H == c2.H and g1 == g2


def expander_digest(code: LinearCode, graph: ExpanderGraph) -> str:
    h = hashlib.sha256()
    for M in (code.G, code.H):
        h.update(M.data.tobytes())
        h.update(repr(M.shape).encode())
    h.update(repr(graph.left).encode())
    h.update(repr(graph.right).encode())
    return h.hexdigest()[:16]


# (n, c, d, seed) -> (k, digest of G, H, left and right): fixed outputs, so
# any change to the sampled graph or to the matrices built from it shows here
EXPANDER_GOLDEN = {
    (12, 3, 6, 0): (6, "e65ccf9913742030"),
    (64, 3, 6, 0): (32, "60d1515fa6fe81c8"),
    (64, 3, 6, 1): (32, "a132da568f0ec330"),
    (60, 4, 5, 2): (13, "1969648c458d0273"),
    (40, 4, 5, 0): (9, "bf77a118e7e78c51"),
    (256, 3, 6, 7): (128, "4fd7d7b6060ca8a8"),
    (1024, 3, 6, 3): (512, "db9d51efabf4e630"),
}


@pytest.mark.parametrize("args", sorted(EXPANDER_GOLDEN))
def test_expander_matches_golden_digest(args):
    code, graph = make_expander(*args)
    assert (code.k, expander_digest(code, graph)) == EXPANDER_GOLDEN[args]
    assert code.k == code.n - rank(code.H) == code.G.rows


@pytest.mark.parametrize("n,c,d,seed", [(12, 3, 6, 0), (64, 3, 6, 1), (128, 3, 6, 2),
                                        (40, 4, 5, 0), (60, 4, 5, 2), (100, 4, 5, 3)])
def test_expander_graph_products_equal_dense_products(n, c, d, seed):
    """XOR-gathering columns over graph.right is the product with Hᵀ, for the
    generator (the construction's self-check) and for arbitrary matrices."""
    code, graph = make_expander(n, c, d, seed)
    right = np.array(graph.right)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(9, n), dtype=np.uint8)
    for M in (code.G, MatrixGF(GF2, X)):
        dense = mul(M, transpose(code.H)).data
        assert np.array_equal(np.bitwise_xor.reduce(M.data[:, right], axis=2), dense)
        # the construction's form: columns packed eight rows to a byte
        columns = np.ascontiguousarray(np.packbits(M.data, axis=0).T)
        packed = np.bitwise_xor.reduce(columns[right], axis=1)
        assert np.array_equal(packed, np.packbits(dense, axis=0).T)
    assert not mul(code.G, transpose(code.H)).data.any()
    assert mul(MatrixGF(GF2, X), transpose(code.H)).data.any()


def test_linearcode_rejects_header_shape_mismatch():
    code, graph = make_expander(12, 3, 6, 0)
    text = code_to_text(code, graph)
    assert text.startswith("linearcode 2 12 6\n")
    with pytest.raises(ValueError, match="G has 12 columns, expected 13"):
        code_from_text(text.replace("linearcode 2 12 6", "linearcode 2 13 6", 1))
    with pytest.raises(ValueError, match="G has 6 rows, expected 5"):
        code_from_text(text.replace("linearcode 2 12 6", "linearcode 2 12 5", 1))
    lines = text.splitlines()
    h_head = lines.index("2 6 12", lines.index("2 6 12") + 1)  # G is also 6 x 12
    lines[h_head] = "2 6 11"
    lines[h_head + 1:h_head + 7] = [row[:-2] for row in lines[h_head + 1:h_head + 7]]
    with pytest.raises(ValueError, match="H has 11 columns, expected 12"):
        code_from_text("\n".join(lines))


def test_expander_probe_records_no_low_weight_words():
    code, _ = make_expander(1002, 3, 6, seed=5)
    assert probe_min_weight(code, trials=2000, seed=0) > 20


# ------------------------------------------------------------------- dual

def test_dual_of_repetition_is_single_parity():
    d = dual(make_repetition(3))
    assert (d.n, d.k) == (3, 2)
    assert min_weight(d.G) == 2
    assert codeword_set(d) == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_dual_involution_row_space():
    code = make_random_gv(10, 4, seed=2)
    dd = dual(dual(code))
    assert rref(dd.G).matrix == rref(code.G).matrix
    assert rref(dd.H).matrix == rref(code.H).matrix


def test_hamming_dual_simplex_nested():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    ham = make_alternant(f, a=alpha, y=alpha, r=1)
    simplex = dual(ham)
    assert (simplex.n, simplex.k) == (7, 3)
    assert min_weight(simplex.G) == 4
    ham_space = rref(ham.G)
    for row in simplex.G.data:
        assert in_rowspace(ham_space, row)


# ---------------------------------------------------------------- bundles

def test_bundle_round_trip_plain():
    code = make_random_gv(9, 3, seed=4)
    text = code_to_text(code)
    assert text.startswith("linearcode 2 9 3\n")
    code2, graph2 = code_from_text(text)
    assert graph2 is None
    assert code2.G == code.G and code2.H == code.H
    assert (code2.d_certified, code2.d_method) == (code.d_certified, code.d_method)
    assert code_to_text(code2) == text


def test_bundle_round_trip_expander():
    code, graph = make_expander(12, 2, 4, seed=3)
    text = code_to_text(code, graph)
    code2, graph2 = code_from_text(text)
    assert graph2 == graph
    assert code2.H == code.H
    assert code_to_text(code2, graph2) == text


def test_bundle_round_trip_alternant():
    """The points and mults key lines read back as the recipe they record."""
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    g = FieldSpec(2, 2, 4)
    for code in (make_alternant(f, a=alpha, y=alpha, r=1),
                 make_alternant(g, a=list(range(1, 16)), y=[1] * 15, r=2)):
        text = code_to_text(code)
        code2, graph2 = code_from_text(text)
        assert graph2 is None
        assert code2.provenance == code.provenance
        assert code_to_text(code2) == text


def test_bundle_without_distance_line():
    code, _ = make_expander(12, 2, 4, seed=3)
    text = code_to_text(code)
    assert "\nd " not in text
    code2, _ = code_from_text(text)
    assert code2.d_certified is None


# -------------------------------------------------------------- invariants

def test_all_constructions_annihilate():
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    cases = [
        make_repetition(4),
        lift_block(make_repetition(3), 2),
        make_grs(GrsSpec(GF8, a=tuple(range(8)), v=(1,) * 8, k=4)),
        make_alternant(f, a=alpha, y=alpha, r=2),
        make_random_gv(8, 3, seed=1),
        make_expander(12, 2, 4, seed=1)[0],
    ]
    for code in cases:
        assert not mul(code.G, transpose(code.H)).data.any()
        assert rank(code.G) == code.k
        assert rank(code.H) == code.n - code.k
