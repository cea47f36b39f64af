"""Small finite fields GF(q) with table-driven arithmetic, and the integer
arithmetic the library shares: trial division, prime powers, |GL(d, q)|.

Elements are integers 0..q-1 in polynomial-basis positional encoding: the
element sum(c_i * x^i) is stored as sum(c_i * p^i).  Prime fields are plain
integers mod p; prime-power fields use a hard-coded primitive polynomial.
Products and inverses are read from one table of the powers of a generator
of the multiplicative group.
"""

from __future__ import annotations

from math import prod

# coefficient tuples (constant term first, leading 1 included)
_PRIMITIVE_POLYS = {
    4: (1, 1, 1),          # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),       # x^3 + x + 1 over GF(2)
    9: (2, 2, 1),          # x^2 + 2x + 2 over GF(3)
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1 over GF(2)
    25: (2, 4, 1),         # x^2 + 4x + 2 over GF(5)
    27: (1, 2, 0, 1),      # x^3 + 2x + 1 over GF(3)
}

SUPPORTED_PRIME_POWERS = tuple(sorted(_PRIMITIVE_POLYS))


class UnsupportedFieldError(ValueError):
    """q is not prime and has no primitive polynomial in the built-in table."""


def prime_divisors(n):
    """The distinct primes dividing n, in increasing order, by trial
    division; empty for n < 2."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def is_prime(n):
    return prime_divisors(n) == [n]


def prime_power(q):
    """(p, e) with q = p^e for a prime p, or None."""
    primes = prime_divisors(q)
    if len(primes) != 1:
        return None
    p = primes[0]
    e = 1
    while p ** e < q:
        e += 1
    return p, e


def gl_order(d, q):
    """|GL(d, q)|."""
    return prod(q ** d - q ** j for j in range(d))


class FiniteField:
    """GF(q) with precomputed addition, subtraction, negation,
    multiplication and inverse tables and a verified generator of the
    cyclic multiplicative group.  Hot loops may read the tables (`_add`,
    `_sub`, `_neg`, `_mul`, `_inv`) directly.

    The generator w is x (encoded as p) when q has a stored polynomial,
    which is primitive, and the smallest primitive root when q is prime.
    The nonzero elements are its powers w^0, .., w^(q-2) (Lidl and
    Niederreiter, Finite Fields, ch. 2), so w^i * w^j = w^(i+j) and
    1/w^i = w^(-i) fill the product and inverse tables."""

    def __init__(self, q):
        pe = prime_power(q)
        if pe is None:
            raise UnsupportedFieldError(f"{q} is not a prime power")
        p, e = pe
        if e > 1 and q not in _PRIMITIVE_POLYS:
            raise UnsupportedFieldError(
                f"no primitive polynomial on file for q={q}; supported prime "
                f"powers: {SUPPORTED_PRIME_POWERS}")
        self.q = q
        self.p = p
        self.e = e
        self.modulus = _PRIMITIVE_POLYS.get(q)
        digits = [self._digits(a) for a in range(q)]
        self._add = [[self._encode([(x + y) % p for x, y in zip(ca, cb)])
                      for cb in digits] for ca in digits]
        self._neg = [self._encode([-c % p for c in ca]) for ca in digits]
        self._sub = [[row[b] for b in self._neg] for row in self._add]
        if e > 1:
            w, poly = p, self.modulus
        else:  # w is the root of x - w
            w = next(g for g in range(1, p) if all(
                pow(g, (p - 1) // r, p) != 1 for r in prime_divisors(p - 1)))
            poly = (-w % p, 1)
        # w * a: shift a's digits up, and put -(poly[0] + .. + poly[e-1]
        # x^(e-1)) times a's top digit in place of x^e
        top = q // p
        powers = [1]
        for _ in range(q - 2):
            c, low = divmod(powers[-1], top)
            powers.append(self._add[low * p][
                self._encode([-c * m % p for m in poly[:e]])])
        if sorted(powers) != list(range(1, q)):
            raise UnsupportedFieldError(
                f"the powers of {w} miss a nonzero element of GF({q})")
        self._mul = [[0] * q for _ in range(q)]
        self._inv = [0] * q
        for i, a in enumerate(powers):
            row = self._mul[a]
            for b, c in zip(powers, powers[i:] + powers[:i]):
                row[b] = c
            self._inv[a] = powers[-i]
        self.generator = w

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits):
        value = 0
        for c in reversed(digits):
            value = value * self.p + c
        return value

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._sub[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    @property
    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"FiniteField(q={self.q})"


_FIELD_CACHE = {}


def field(q):
    """Shared FiniteField instances (tables are immutable once built)."""
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = FiniteField(q)
    return _FIELD_CACHE[q]
