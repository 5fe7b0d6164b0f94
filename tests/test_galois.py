"""Field arithmetic checked against a naive polynomial-arithmetic oracle.

The oracle below implements GF(p)[x]/(modulus) directly on coefficient tuples,
sharing no code with the package, so agreement is meaningful.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccss.galois import (
    DEFAULT_MODULI,
    GF2,
    FieldSpec,
    default_modulus,
    field_of_size,
    is_irreducible,
)


# ---------------------------------------------------------------- oracle

def idx_to_poly(i: int, p: int, deg: int) -> tuple[int, ...]:
    out = []
    for _ in range(deg):
        out.append(i % p)
        i //= p
    return tuple(out)


def poly_to_idx(c, p: int) -> int:
    out = 0
    for d in reversed(c):
        out = out * p + d
    return out


def oracle_mul(field: FieldSpec, a: int, b: int) -> int:
    p, deg, mod = field.p, field.degree, field.modulus
    pa = idx_to_poly(a, p, deg)
    pb = idx_to_poly(b, p, deg)
    prod = [0] * (2 * deg)
    for i, ca in enumerate(pa):
        for j, cb in enumerate(pb):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce by the monic modulus
    for top in range(2 * deg - 1, deg - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for k in range(deg + 1):
                prod[top - deg + k] = (prod[top - deg + k] - c * mod[k]) % p
    return poly_to_idx(prod[:deg], p)


def oracle_add(field: FieldSpec, a: int, b: int) -> int:
    p, deg = field.p, field.degree
    pa = idx_to_poly(a, p, deg)
    pb = idx_to_poly(b, p, deg)
    return poly_to_idx(tuple((x + y) % p for x, y in zip(pa, pb)), p)


def oracle_pow(field: FieldSpec, x: int, e: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = oracle_mul(field, r, x)
        x = oracle_mul(field, x, x)
        e >>= 1
    return r


def oracle_trace(field: FieldSpec, a: int, sub_degree: int) -> int:
    # Tr(a) = sum of a^(q0^i), q0 = p^sub_degree, computed with the oracle mul
    q0 = field.p ** sub_degree
    steps = field.degree // sub_degree
    acc = 0
    for i in range(steps):
        acc = oracle_add(field, acc, oracle_pow(field, a, q0**i))
    return acc


def oracle_order(field: FieldSpec, a: int) -> int:
    """Multiplicative order of a nonzero a: the least divisor d of
    size - 1 with a^d = 1."""
    n = field.size - 1
    return next(d for d in range(1, n + 1) if n % d == 0 and oracle_pow(field, a, d) == 1)


def oracle_polymul(u, v, p: int) -> tuple[int, ...]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


SMALL_FIELDS = [
    FieldSpec(2, 1, 1),
    FieldSpec(2, 2, 1),
    FieldSpec(2, 1, 3),
    FieldSpec(2, 2, 2),
    FieldSpec(3, 1, 2),
    FieldSpec(5, 1, 1),
    FieldSpec(5, 2, 1),
]


# ---------------------------------------------------------------- axioms

@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_mul_matches_polynomial_oracle_exhaustively(field):
    for a in range(field.size):
        for b in range(field.size):
            assert field.mul(a, b) == oracle_mul(field, a, b)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_add_matches_polynomial_oracle_exhaustively(field):
    for a in range(field.size):
        for b in range(field.size):
            assert field.add(a, b) == oracle_add(field, a, b)


@pytest.mark.parametrize("field", [FieldSpec(2, 1, 3), FieldSpec(3, 1, 2)], ids=str)
def test_field_axioms_exhaustively(field):
    els = range(field.size)
    for a, b, c in itertools.product(els, els, els):
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    for a in els:
        assert field.add(a, field.neg(a)) == 0
        assert field.mul(a, 1) == a
        if a:
            assert field.mul(a, field.inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)
    with pytest.raises(ZeroDivisionError):
        FieldSpec(2, 1, 4).div(3, 0)


def test_gf4_known_table():
    # GF(4) mod x^2+x+1, indices 0,1,w=2,w+1=3: w*w = w+1, w*(w+1) = 1
    f = FieldSpec(2, 2, 1)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.add(2, 3) == 1


def test_gf8_generator_relation():
    # mod x^3+x+1 the class of x (index 2) cubes to x+1 (index 3)
    f = FieldSpec(2, 1, 3)
    assert f.pow(2, 3) == 3
    # x is primitive here: powers hit all 7 nonzero elements
    seen = {f.pow(2, e) for e in range(7)}
    assert seen == set(range(1, 8))


def test_large_binary_field_against_oracle_sampled():
    f = FieldSpec(2, 1, 13)
    assert f.size == 8192
    import random

    rng = random.Random(13)
    for _ in range(1000):
        a = rng.randrange(f.size)
        b = rng.randrange(f.size)
        assert f.mul(a, b) == oracle_mul(f, a, b)
    # pow/inv consistency on a sample
    for _ in range(50):
        a = rng.randrange(1, f.size)
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.size - 1) == 1


# ---------------------------------------------------------------- traces

def test_trace_gf4_to_gf2_known_values():
    f = FieldSpec(2, 2, 1)
    base = GF2
    assert [f.trace(a, base) for a in range(4)] == [0, 0, 1, 1]


@pytest.mark.parametrize("field,sub_degree", [
    (FieldSpec(2, 2, 1), 1),
    (FieldSpec(2, 1, 3), 1),
    (FieldSpec(3, 1, 2), 1),
    (FieldSpec(2, 2, 2), 2),
    (FieldSpec(2, 1, 4), 1),
])
def test_trace_matches_oracle_and_is_surjective(field, sub_degree):
    target = FieldSpec(field.p, sub_degree, 1)
    values = []
    for a in range(field.size):
        t = field.trace(a, target)
        expected = oracle_trace(field, a, sub_degree)
        assert field.embed(target, t) == expected
        values.append(t)
    assert set(values) == set(range(target.size))  # surjective
    # additive
    for a in range(field.size):
        for b in range(field.size):
            s = field.trace(field.add(a, b), target)
            assert s == target.add(field.trace(a, target), field.trace(b, target))


def test_trace_frobenius_invariant():
    f = FieldSpec(2, 1, 4)
    for a in range(f.size):
        assert f.trace(f.pow(a, 2), GF2) == f.trace(a, GF2)


# ---------------------------------------------------------------- towers

def test_base_coordinates_round_trip_and_linearity():
    f = FieldSpec(2, 2, 2)  # GF(16) over GF(4)
    base = f.base_field()
    assert base.size == 4
    for a in range(f.size):
        coords = f.to_base_coords(a)
        assert len(coords) == 2
        assert f.from_base_coords(coords) == a
    for a in range(f.size):
        for b in range(f.size):
            ca, cb, cs = f.to_base_coords(a), f.to_base_coords(b), f.to_base_coords(f.add(a, b))
            assert tuple(cs) == tuple(base.add(x, y) for x, y in zip(ca, cb))
    for c in range(base.size):
        ce = f.embed(base, c)
        for a in range(f.size):
            scaled = f.to_base_coords(f.mul(ce, a))
            plain = f.to_base_coords(a)
            assert tuple(scaled) == tuple(base.mul(c, x) for x in plain)


def test_embedding_is_a_field_homomorphism():
    f = FieldSpec(2, 2, 2)
    base = f.base_field()
    for a in range(base.size):
        for b in range(base.size):
            assert f.embed(base, base.mul(a, b)) == f.mul(f.embed(base, a), f.embed(base, b))
            assert f.embed(base, base.add(a, b)) == f.add(f.embed(base, a), f.embed(base, b))


def test_project_rejects_elements_outside_subfield():
    f = FieldSpec(2, 1, 4)
    sub = FieldSpec(2, 2, 1)
    inside = {f.embed(sub, a) for a in range(sub.size)}
    outside = next(a for a in range(f.size) if a not in inside)
    with pytest.raises(ValueError):
        f.project(sub, outside)


# ---------------------------------------------------------------- moduli

def test_default_moduli_table_is_irreducible():
    for (p, deg), poly in DEFAULT_MODULI.items():
        assert len(poly) == deg + 1 and poly[-1] == 1
        assert is_irreducible(poly, p), (p, deg)


@pytest.mark.parametrize("p, max_deg", [(2, 6), (3, 3), (5, 3)])
def test_is_irreducible_matches_factor_enumeration(p, max_deg):
    def monic(d):
        return [c + (1,) for c in itertools.product(range(p), repeat=d)]

    reducible = {
        oracle_polymul(u, v, p)
        for d in range(2, max_deg + 1)
        for d1 in range(1, d // 2 + 1)
        for u in monic(d1)
        for v in monic(d - d1)
    }
    for d in range(1, max_deg + 1):
        for poly in monic(d):
            for lead in range(1, p):
                scaled = tuple(c * lead % p for c in poly)
                assert is_irreducible(scaled, p) == (poly not in reducible), scaled
    assert not is_irreducible((1,), p)
    assert not is_irreducible((1, 1, 0), p)


def oracle_trial_division(polys: np.ndarray, p: int) -> np.ndarray:
    """Irreducibility of each row of polys (monic, of one degree, integer
    coefficients lowest power first) over GF(p): long division by every
    monic polynomial of degree at most deg/2, all rows at once."""
    deg = polys.shape[1] - 1
    irreducible = np.ones(len(polys), dtype=bool)
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            div = np.array(low + (1,))
            rem = polys.copy()
            for top in range(deg, d - 1, -1):
                c = rem[:, top, None].copy()
                rem[:, top - d : top + 1] = (rem[:, top - d : top + 1] - c * div) % p
            irreducible &= rem[:, :d].any(axis=1)
    return irreducible


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_trial_division(p):
    """Ben-Or's test against trial division, on every monic polynomial of
    degree 1 to 6."""
    for deg in range(1, 7):
        polys = np.array([c + (1,) for c in itertools.product(range(p), repeat=deg)])
        expected = oracle_trial_division(polys, p)
        got = [is_irreducible(tuple(poly), p) for poly in polys.tolist()]
        assert got == expected.tolist(), deg


@pytest.mark.parametrize("p, deg", [(7, 2), (11, 2), (7, 3), (13, 2), (3, 5), (2, 17)])
def test_default_modulus_outside_the_table_is_the_first_irreducible(p, deg):
    """x^deg + c(x) for the smallest radix-p index of c, lowest power first,
    that trial division finds irreducible."""
    assert (p, deg) not in DEFAULT_MODULI
    got = default_modulus(p, deg)
    assert len(got) == deg + 1 and got[-1] == 1
    index = sum(c * p**j for j, c in enumerate(got[:-1]))
    # every candidate up to and including got, in radix-p order
    polys = np.array([[i // p**j % p for j in range(deg)] + [1] for i in range(index + 1)])
    irreducible = oracle_trial_division(polys, p)
    assert irreducible[-1] and not irreducible[:-1].any()


def test_gf49_arithmetic_matches_polynomial_oracle():
    f = FieldSpec(7, 1, 2)
    assert f.modulus == (1, 0, 1) and f.size == 49
    for a in range(49):
        for b in range(49):
            assert f.mul(a, b) == oracle_mul(f, a, b)
            assert f.add(a, b) == oracle_add(f, a, b)
        if a:
            assert f.mul(a, f.inv(a)) == 1
    assert field_of_size(49).modulus == f.modulus


@pytest.mark.parametrize("p, deg", sorted(DEFAULT_MODULI))
def test_generator_and_tables_match_oracle_orders(p, deg):
    f = FieldSpec(p, 1, deg)
    n = f.size - 1
    g = f.generator
    # the smallest index of order size - 1
    assert oracle_order(f, g) == n
    assert all(oracle_order(f, h) < n for h in range(2, g))
    assert (f._exp is not None) == (2 < f.size <= 256)
    if f._exp is not None:
        x = 1
        for i in range(n):
            assert f._exp[i] == f._exp[i + n] == x
            assert f._log[x] == i
            x = oracle_mul(f, x, g)
        assert x == 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 1, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2


def test_custom_irreducible_modulus_accepted():
    f = FieldSpec(2, 1, 3, modulus=(1, 0, 1, 1))  # x^3+x^2+1
    for a in range(8):
        for b in range(8):
            assert f.mul(a, b) == oracle_mul(f, a, b)


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4, 1, 1)
    with pytest.raises(ValueError):
        FieldSpec(6, 1, 2)


def test_field_of_size():
    assert field_of_size(2) is field_of_size(2)
    assert field_of_size(8).size == 8
    assert field_of_size(9).p == 3
    with pytest.raises(ValueError):
        field_of_size(12)
    assert default_modulus(2, 3) == (1, 1, 0, 1)


@pytest.mark.parametrize("p", [7, 11, 13, 251, 65521])
def test_prime_fields_multiply_mod_p(p):
    f = field_of_size(p)
    assert (f.p, f.size, f.modulus) == (p, p, (1, 1))
    values = sorted({0, 1, 2, p - 2, p - 1, p // 2, p // 3 + 1})
    for a in values:
        for b in values:
            assert f.mul(a, b) == a * b % p


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_gf9_ring_laws_hypothesis(a, b, c):
    f = FieldSpec(3, 1, 2)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.add(a, b) == f.add(b, a)


# ---------------------------------------------------- refusals and corners

def test_sub_on_a_prime_field_is_subtraction_mod_p():
    f = field_of_size(5)
    assert [f.sub(1, b) for b in range(5)] == [1, 0, 4, 3, 2]


@pytest.mark.parametrize("field", [FieldSpec(7), FieldSpec(2, 1, 3), FieldSpec(2, 1, 9)],
                         ids=["GF(7)", "GF(8) tables", "GF(512) no tables"])
def test_negative_power_is_the_power_of_the_inverse(field):
    for a in range(1, min(field.size, 64)):
        for e in (1, 2, 5):
            assert field.pow(a, -e) == field.inv(field.pow(a, e))


def test_a_field_embeds_in_itself_identically():
    for f in (FieldSpec(3), FieldSpec(2, 1, 4), FieldSpec(2, 2, 2)):
        assert [f.embed(f, a) for a in range(f.size)] == list(range(f.size))
        assert [f.project(f, a) for a in range(f.size)] == list(range(f.size))


def test_base_coordinates_of_a_degree_one_extension_are_the_element():
    f = FieldSpec(2, 3, 1)  # GF(8) over itself
    assert [f.to_base_coords(a) for a in range(8)] == [(a,) for a in range(8)]
    assert [f.from_base_coords([a]) for a in range(8)] == list(range(8))


def test_trace_and_base_coordinates_refuse_what_does_not_fit():
    f = FieldSpec(2, 2, 3)
    with pytest.raises(ValueError, match="no trace from"):
        f.trace(1, FieldSpec(2, 1, 4))
    with pytest.raises(ValueError, match="no trace from"):
        f.trace(1, FieldSpec(3))
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        f.from_base_coords([1, 0])


def test_a_field_keeps_no_hand_built_cache():
    # derived values are cached through functools: a field holds no dict
    f = FieldSpec(2, 2, 3)
    f.embed(f.base_field(), 3)
    f.to_base_coords(f.size - 1)
    f.from_base_coords([1, 2, 3])
    assert {k: v for k, v in vars(f).items() if isinstance(v, dict)} == {}


def test_power_rows_are_multipliers_times_powers():
    f = FieldSpec(3, 1, 2)
    points, mults = [0, 1, 5, 7], [2, 1, 3, 8]
    rows = f.power_rows(points, mults, 4)
    assert rows == tuple(tuple(f.mul(v, f.pow(a, j)) for a, v in zip(points, mults))
                         for j in range(4))
    assert f.power_rows(points, mults, 0) == ()
