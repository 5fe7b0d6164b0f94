"""Finite fields GF(p^(m0*m)) with explicit tower structure.

Elements are plain ints in [0, p^(m0*m)): the index is the radix-p encoding of
the polynomial-basis coefficients, lowest power first. FieldSpec(p, m0, m)
builds the extension of degree m0*m and knows how to view it as a degree-m
extension of GF(p^m0): embeddings, projections, traces, and coordinates over
the base field all come from a root of the subfield's modulus found inside
the big field. Fields of size <= 256 carry log/exp tables. Polynomials
over a field (sum, division, evaluation) live here too, for the
irreducibility test and the subfield embeddings; the alternant decoder
runs its key equation on the field's log tables instead.
"""
from __future__ import annotations

import functools
import math

__all__ = [
    "DEFAULT_MODULI",
    "GF2",
    "FieldSpec",
    "default_modulus",
    "field_of_size",
    "is_irreducible",
]

_TABLE_LIMIT = 256

# Monic irreducible moduli, coefficients lowest power first.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (1, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 1, 0, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# ------------------------------------------------------------ polynomials
# A polynomial over a field f is a list of f's element indices, lowest power
# first.  Helpers that return a polynomial return it trimmed of high zero
# coefficients, [0] for the zero polynomial.

def _pdeg(p: list[int]) -> int:
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _ptrim(p: list[int]) -> list[int]:
    d = _pdeg(p)
    return p[: d + 1] if d >= 0 else [0]


def _padd(f: FieldSpec, u: list[int], v: list[int]) -> list[int]:
    n = max(len(u), len(v))
    return _ptrim([f.add(u[i] if i < len(u) else 0, v[i] if i < len(v) else 0) for i in range(n)])


def _pdivmod(f: FieldSpec, u: list[int], v: list[int]) -> tuple[list[int], list[int]]:
    du, dv = _pdeg(u), _pdeg(v)
    if dv < 0:
        raise ZeroDivisionError("polynomial division by zero")
    sub, mul = f.sub, f.mul
    p = f.p if f.degree == 1 else 0
    rem = list(u[: du + 1]) if du >= 0 else [0]
    quo = [0] * max(du - dv + 1, 1)
    inv_lead = f.inv(v[dv])
    v = v[: dv + 1]
    for i in range(du - dv, -1, -1):
        c = mul(rem[i + dv], inv_lead)
        if not c:
            continue
        quo[i] = c
        for j, b in enumerate(v, i):
            if b:
                # plain ints mod p on a prime field: no call per coefficient
                rem[j] = (rem[j] - c * b) % p if p else sub(rem[j], mul(c, b))
    return _ptrim(quo), _ptrim(rem)


def _peval(f: FieldSpec, p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = f.add(f.mul(acc, x), c)
    return acc


# ------------------------------------------------------ factors and moduli

def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, smallest first."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=16)
def _prime_field(p: int) -> FieldSpec:
    return FieldSpec(p, 1, 1, modulus=(0, 1))


def is_irreducible(poly, p: int) -> bool:
    """Ben-Or's test: f of degree n over GF(p) is irreducible exactly when
    gcd(x^(p^i) - x, f) = 1 for i = 1 .. n/2, that is when f has no factor
    of degree i <= n/2.  Most reducible f have a factor of low degree, so
    the test usually ends after the first few i.  Over GF(p), g(x)^p =
    g(x^p), so each step raises to the p-th power by one division."""
    poly = list(poly)
    deg = len(poly) - 1
    if deg < 1 or poly[-1] == 0:
        return False
    if deg == 1:
        # also ends the recursion: the prime field below checks its modulus
        return True
    prime = _prime_field(p)
    minus_x = [0, prime.neg(1)]
    power = [0, 1]  # x^(p^i) mod f after step i
    for _ in range(deg // 2):
        spread = [0] * (p * (len(power) - 1) + 1)
        spread[::p] = power
        power = _pdivmod(prime, spread, poly)[1]
        a, b = poly, _padd(prime, power, minus_x)
        while _pdeg(b) >= 0:
            a, b = b, _pdivmod(prime, a, b)[1]
        if _pdeg(a) > 0:
            return False
    return True


@functools.cache
def default_modulus(p: int, degree: int) -> tuple[int, ...]:
    """The monic irreducible modulus of GF(p^degree) used when none is given.

    Degree 1 gives x + 1 (any monic linear polynomial is irreducible).  Other
    degrees take the DEFAULT_MODULI entry; a (p, degree) pair missing there
    takes the first x^degree + c(x) that is_irreducible accepts, trying the
    lower coefficients c_0, ..., c_(degree-1) in increasing order of their
    radix-p index c_0 + c_1 p + ... + c_(degree-1) p^(degree-1), from 1.
    """
    if not _is_prime(p) or degree < 1:
        raise ValueError(f"no modulus for GF({p}^{degree}): needs a prime and a positive degree")
    if degree == 1:
        return (1, 1)
    hit = DEFAULT_MODULI.get((p, degree))
    if hit is not None:
        return hit
    lowers = (tuple(i // p**j % p for j in range(degree)) for i in range(1, p**degree))
    return next(c + (1,) for c in lowers if is_irreducible(c + (1,), p))


class FieldSpec:
    """GF(p^(m0*m)), presented as a degree-m extension of GF(p^m0)."""

    def __init__(self, p: int, m0: int = 1, m: int = 1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m0 < 1 or m < 1:
            raise ValueError("extension degrees must be positive")
        self.p = p
        self.m0 = m0
        self.m = m
        self.degree = m0 * m
        if modulus is None:
            modulus = default_modulus(p, self.degree)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != self.degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m0*m")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self.size = p**self.degree
        self.base_size = p**m0
        self._hash = hash((p, m0, m, modulus))
        if p == 2:
            self._modmask = sum(c << i for i, c in enumerate(modulus))
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._generator: int | None = None
        self._base: FieldSpec | None = None
        self._sub_cache: dict = {}
        self._decomp: tuple | None = None
        if self.size <= _TABLE_LIMIT and self.size > 2:
            self._exp, self._log = self._tables()

    # ------------------------------------------------------------ basics

    def __repr__(self) -> str:
        return f"FieldSpec({self.p}, {self.m0}, {self.m})"

    def __str__(self) -> str:
        if self.m0 == 1:
            return f"GF({self.size})"
        return f"GF({self.base_size}^{self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m0, self.m, self.modulus)
            == (other.p, other.m0, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return self._hash

    def digits(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficients of a, lowest power first."""
        out = []
        for _ in range(self.degree):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_digits(self, coeffs) -> int:
        out = 0
        for c in reversed(list(coeffs)):
            out = out * self.p + int(c) % self.p
        return out

    def _check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise ValueError(f"{a} is not an element index of {self}")
        return a

    # -------------------------------------------------------- arithmetic

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        if self.degree == 1:
            return (a + b) % p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        if self.degree == 1:
            return -a % p
        out = 0
        mult = 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        if self.p == 2:
            return self._reduce2(self._clmul(a, b))
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[self.size - 1 - self._log[a]]
        return self.pow(a, self.size - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if self._exp is not None and a != 0:
            return self._exp[self._log[a] * e % (self.size - 1)]
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def _clmul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r

    def _reduce2(self, r: int) -> int:
        deg = self.degree
        mm = self._modmask
        for i in range(r.bit_length() - 1, deg - 1, -1):
            if (r >> i) & 1:
                r ^= mm << (i - deg)
        return r

    def _mul_poly(self, a: int, b: int) -> int:
        p, deg = self.p, self.degree
        pa = self.digits(a)
        pb = self.digits(b)
        prod = [0] * (2 * deg)
        for i, ca in enumerate(pa):
            if ca:
                for j, cb in enumerate(pb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        mod = self.modulus
        for top in range(2 * deg - 1, deg - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for k in range(deg):
                    prod[top - deg + k] = (prod[top - deg + k] - c * mod[k]) % p
        return self.from_digits(prod[:deg])

    # ------------------------------------------------------------ tables

    @property
    def generator(self) -> int:
        """Smallest index generating the multiplicative group."""
        if self._generator is None:
            n = self.size - 1
            if n == 1:
                self._generator = 1
                return 1
            factors = _prime_factors(n)
            for g in range(2, self.size):
                if all(self.pow(g, n // q) != 1 for q in factors):
                    self._generator = g
                    break
        return self._generator

    def _tables(self) -> tuple[list[int], list[int]]:
        """(exp, log): exp[i] = g^i for i < 2(q - 1), g the generator, and
        log[exp[i]] = i for i < q - 1.  A field of size <= 256 keeps them
        from __init__; a larger one builds them on each call."""
        if self._exp is not None:
            return self._exp, self._log
        # _exp stays None while building, so mul and pow (and the generator
        # search) work without the tables they are building
        n = self.size - 1
        g = self.generator
        exp = [1] * (2 * n)
        log = [0] * self.size
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self.mul(x, g)
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        return exp, log

    # --------------------------------------------------------- subfields

    def base_field(self) -> "FieldSpec":
        """GF(p^m0), the field this spec treats as its field of scalars."""
        if self._base is None:
            if self.m == 1:
                self._base = self
            else:
                self._base = FieldSpec(self.p, self.m0, 1)
        return self._base

    def _subfield_maps(self, sub: "FieldSpec"):
        key = (sub.p, sub.m0, sub.m, sub.modulus)
        hit = self._sub_cache.get(key)
        if hit is not None:
            return hit
        if sub.p != self.p or self.degree % sub.degree != 0:
            raise ValueError(f"{sub} does not embed in {self}")
        if sub.degree == self.degree and sub.modulus == self.modulus:
            ident = list(range(self.size))
            maps = (ident, {a: a for a in ident})
            self._sub_cache[key] = maps
            return maps
        root = next((z for z in range(self.size) if _peval(self, sub.modulus, z) == 0), None)
        if root is None:
            raise ValueError(f"no root of the modulus of {sub} inside {self}")
        powers = [1]
        for _ in range(sub.degree - 1):
            powers.append(self.mul(powers[-1], root))
        emb = [0] * sub.size
        for a in range(sub.size):
            acc = 0
            for c, zp in zip(sub.digits(a), powers):
                for _ in range(c):
                    acc = self.add(acc, zp)
            emb[a] = acc
        proj = {img: a for a, img in enumerate(emb)}
        maps = (emb, proj)
        self._sub_cache[key] = maps
        return maps

    def embed(self, sub: "FieldSpec", a: int) -> int:
        """Image in this field of the element a of the subfield."""
        emb, _ = self._subfield_maps(sub)
        return emb[sub._check(a)]

    def project(self, sub: "FieldSpec", a: int) -> int:
        """Inverse of embed; raises if a is not in the embedded subfield."""
        _, proj = self._subfield_maps(sub)
        try:
            return proj[self._check(a)]
        except KeyError:
            raise ValueError(f"element {a} of {self} lies outside {sub}") from None

    def trace(self, a: int, target: "FieldSpec") -> int:
        """Trace into target: sum of a^(q0^i) for i < degree/deg(target)."""
        if target.p != self.p or self.degree % target.degree != 0:
            raise ValueError(f"no trace from {self} onto {target}")
        q0 = self.p**target.degree
        steps = self.degree // target.degree
        acc = a
        y = a
        for _ in range(steps - 1):
            y = self.pow(y, q0)
            acc = self.add(acc, y)
        return self.project(target, acc)

    # ------------------------------------------------- base coordinates

    def _decomp_matrix(self):
        if self._decomp is not None:
            return self._decomp
        base = self.base_field()
        p, deg, m0, m = self.p, self.degree, self.m0, self.m
        z_pows = [self.embed(base, base.from_digits([0] * i + [1])) for i in range(m0)]
        x_pows = [1]
        for _ in range(m - 1):
            x_pows.append(self.mul(x_pows[-1], self.p if deg > 1 else 1))
        cols = []
        for j in range(m):
            for i in range(m0):
                cols.append(self.digits(self.mul(z_pows[i], x_pows[j])))
        # invert the deg x deg matrix whose columns are cols, over GF(p)
        mat = [[cols[c][r] for c in range(deg)] + [int(r == k) for k in range(deg)]
               for r in range(deg)]
        for col in range(deg):
            piv = next(r for r in range(col, deg) if mat[r][col])
            mat[col], mat[piv] = mat[piv], mat[col]
            inv_p = pow(mat[col][col], p - 2, p)
            mat[col] = [v * inv_p % p for v in mat[col]]
            for r in range(deg):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[col])]
        minv = [row[deg:] for row in mat]
        self._decomp = (minv, base)
        return self._decomp

    def to_base_coords(self, a: int) -> tuple[int, ...]:
        """Coordinates of a over GF(p^m0) in the basis 1, x, ..., x^(m-1)."""
        minv, base = self._decomp_matrix()
        v = self.digits(a)
        p = self.p
        sol = [sum(minv[r][c] * v[c] for c in range(self.degree)) % p for r in range(self.degree)]
        return tuple(
            base.from_digits(sol[j * self.m0:(j + 1) * self.m0]) for j in range(self.m)
        )

    def from_base_coords(self, coords) -> int:
        coords = list(coords)
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        base = self.base_field()
        x_pows = [1]
        for _ in range(self.m - 1):
            x_pows.append(self.mul(x_pows[-1], self.p if self.degree > 1 else 1))
        acc = 0
        for c, xp in zip(coords, x_pows):
            acc = self.add(acc, self.mul(self.embed(base, base._check(int(c))), xp))
        return acc


_FIELDS_BY_SIZE: dict[int, FieldSpec] = {}

# The largest field in the modulus table, 2^16: the largest field_of_size builds.
_MAX_FIELD_SIZE = max(p**degree for p, degree in DEFAULT_MODULI)


def field_of_size(q: int) -> FieldSpec:
    """GF(q) with the default modulus, cached so repeat calls share tables."""
    hit = _FIELDS_BY_SIZE.get(q)
    if hit is not None:
        return hit
    if q < 2:
        raise ValueError(f"no field of size {q}")
    # checked before the trial division below, which takes sqrt(q) steps
    if q > _MAX_FIELD_SIZE:
        raise ValueError(
            f"field size {q} exceeds {_MAX_FIELD_SIZE}, the largest with a built-in modulus"
        )
    p = None
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            p = d
            break
    if p is None:
        p = q
    k = 0
    n = q
    while n % p == 0 and n > 1:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    f = FieldSpec(p, k, 1)
    _FIELDS_BY_SIZE[q] = f
    return f


GF2 = field_of_size(2)
