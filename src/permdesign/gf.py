"""Small finite fields GF(q) with table-driven arithmetic.

Elements are integers 0..q-1 in polynomial-basis positional encoding: the
element sum(c_i * x^i) is stored as sum(c_i * p^i).  Prime fields are plain
integers mod p; prime-power fields use a hard-coded primitive polynomial.
"""

from __future__ import annotations

import math

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


def prime_power(q):
    """(p, e) with q = p^e for a prime p, or None."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


class FiniteField:
    """GF(q) with precomputed addition, subtraction, negation,
    multiplication and inverse tables and a verified generator of the
    cyclic multiplicative group.  Hot loops may read the tables (`_add`,
    `_sub`, `_neg`, `_mul`, `_inv`) directly."""

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
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = self._digits(a)
            for b in range(q):
                cb = self._digits(b)
                self._add[a][b] = self._encode(
                    [(x + y) % p for x, y in zip(ca, cb)])
                self._mul[a][b] = self._poly_mul(ca, cb)
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break
            else:
                raise UnsupportedFieldError(
                    f"modulus for q={q} is not irreducible")
        self._neg = [self._encode([(-c) % p for c in self._digits(a)])
                     for a in range(q)]
        self._sub = [[self._add[a][self._neg[b]] for b in range(q)]
                     for a in range(q)]
        self.generator = self._find_generator()

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

    def _poly_mul(self, ca, cb):
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        if e > 1:
            mod = self.modulus
            for i in range(len(prod) - 1, e - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(e):
                        prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
        return self._encode(prod[:e])

    def _element_order(self, a):
        n = 1
        x = a
        while x != 1:
            x = self._mul[x][a]
            n += 1
        return n

    def _find_generator(self):
        for a in range(2, self.q):
            if self._element_order(a) == self.q - 1:
                return a
        if self.q == 2:
            return 1
        raise UnsupportedFieldError(
            f"multiplicative group of q={self.q} is not cyclic (bad modulus)")

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
