"""Permutations of {0..n-1}: composition, inverses, cycle notation I/O.

Action convention used throughout the package: permutations act on the
right, so ``point^(p*q) == (point^p)^q`` and ``p*q`` means "apply p, then q".
Cycle notation is 1-based on the outside, 0-based internally.

A product is one ``operator.itemgetter`` call, which reads every image of
the second factor at the images of the first in C.  Degree 1 is the one
exception: an itemgetter with a single index returns a scalar, not a
tuple, and the only permutation of one point is the identity anyway.
Every product outside the chain engine is still this one itemgetter.

Inside the chain engine (group.py) an element is carried in the encoding
that encoding(degree) gives, chosen once per chain from the element
degree: encode, compose and decode.  A permutation of at most TABLE_SIZE
points is a translation table, its images as bytes padded with the fixed
points up to TABLE_SIZE, so that u*a is one ``u.translate(a)``, a
preimage is ``table.index(c)`` and equality is a byte compare, all in C.
A permutation of more points is kept as its image tuple, and u*a is the
itemgetter product above.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter


class CycleParseError(ValueError):
    """Malformed cycle notation, repeated point, or point out of range."""


class DegreeMismatchError(ValueError):
    """Operands act on domains of different sizes."""


# bytes.translate maps through a table of exactly this many entries
TABLE_SIZE = 256


def images_at(points):
    """A function that reads a permutation's images (a tuple) at the given
    points, as a tuple, in one call: an itemgetter, whose single index
    would return the item itself, so one point is read as a slice."""
    if len(points) > 1:
        return itemgetter(*points)
    return itemgetter(slice(points[0], points[0] + 1))


def _cycle_tokens(stripped, text):
    """The points of each nonempty cycle of `stripped`, as tokens split at
    whitespace and commas, in order up to the first fault, and that fault
    (None when there is none).  A cycle is "(", then points, each a run of
    decimal digits, and whitespace and commas after the first point, then
    ")"; anything outside the cycles but whitespace is a fault.  A comma
    after the last point leaves an empty last token, which int() refuses
    when the points are read (_check_points)."""
    if stripped[0] == "(" and stripped[-1] == ")" and "," not in stripped:
        # cycles written back to back, points apart by whitespace alone
        cycles = [c.split() for c in stripped[1:-1].split(")(")]
        if "".join(map("".join, cycles)).isdecimal() or not any(cycles):
            return [c for c in cycles if c], None
    cycles = []
    *pieces, tail = stripped.split(")")
    for piece in pieces:
        head, paren, inner = piece.rpartition("(")
        tokens = inner.replace(",", " ").split()
        if (not paren or head.strip() or inner.lstrip()[:1] == ","
                or not all(map(str.isdecimal, tokens))):
            return cycles, CycleParseError(f"unexpected text in {text!r}")
        if tokens:
            if inner.rstrip()[-1] == ",":
                tokens.append("")
            cycles.append(tokens)
    if tail.strip():
        return cycles, CycleParseError(f"unexpected text in {text!r}")
    return cycles, None


def _check_points(cycles, degree, text):
    """Read the points of `cycles` one by one, raising at the first that
    is not an integer in 1..degree or repeats an earlier one."""
    used = set()
    for cycle in cycles:
        for token in cycle:
            value = int(token)
            if not 1 <= value <= degree:
                raise CycleParseError(
                    f"point {value} out of range 1..{degree} in {text!r}")
            if value in used:
                raise CycleParseError(f"repeated point {value} in {text!r}")
            used.add(value)


class Permutation:
    """A bijection of {0..degree-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("degree must be positive")
        seen = [False] * n
        for x in images:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError("images do not form a bijection of 0..%d" % (n - 1))
            seen[x] = True
        self.images = images

    @classmethod
    def _raw(cls, images):
        # fast path for internal products; images must already be a valid tuple
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree):
        if degree <= 0:
            raise ValueError("degree must be positive")
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, text, degree):
        """Parse disjoint 1-based cycle notation, e.g. "(1 2 3)(4 5)".

        Fixed points are omitted; "()" denotes the identity.  Points are
        separated by whitespace or commas.  Malformed text raises
        CycleParseError, and so does a point out of range or repeated:
        whichever comes first in the text.  A comma after a cycle's last
        point raises int()'s ValueError for the empty token it leaves.
        """
        if degree <= 0:
            raise ValueError("degree must be positive")
        stripped = text.strip()
        if not stripped:
            raise CycleParseError("empty permutation string")
        cycles, fault = _cycle_tokens(stripped, text)
        try:
            points = list(map(int, chain.from_iterable(cycles)))
            ok = fault is None and (not points or (
                min(points) >= 1 and max(points) <= degree
                and len(set(points)) == len(points)))
        except ValueError:  # an empty token, or one past int's digit limit
            ok = False
        if not ok:  # the first fault in the text is raised
            _check_points(cycles, degree, text)
            raise fault
        images = list(range(-1, degree))  # 1-based point -> 0-based image
        end = 0
        for tokens in cycles:
            start, end = end, end + len(tokens)
            cycle = points[start:end]
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b - 1
            images[cycle[-1]] = cycle[0] - 1
        return cls._raw(tuple(images[1:]))

    @property
    def degree(self):
        return len(self.images)

    def apply(self, point):
        """Image of a point under the right action: point^p."""
        return self.images[point]

    def __mul__(self, other):
        """Composition "self then other": point^(p*q) = (point^p)^q."""
        if not isinstance(other, Permutation):
            return NotImplemented
        p = self.images
        q = other.images
        if len(q) != len(p):
            raise DegreeMismatchError(f"degree {len(p)} vs {len(q)}")
        if len(p) == 1:
            return other
        return Permutation._raw(itemgetter(*p)(q))

    def inverse(self):
        images = self.images
        inv = [0] * len(images)
        for i, j in enumerate(images):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    __invert__ = inverse

    def conjugated_by(self, x):
        """x^-1 * self * x, the conjugate under the right action."""
        return x.inverse() * self * x

    def __pow__(self, k):
        """self^k for any integer k, read off the cycles."""
        images = list(range(len(self.images)))
        for cyc in self.cycles():
            n = len(cyc)
            for j, x in enumerate(cyc):
                images[x] = cyc[(j + k) % n]
        return Permutation._raw(tuple(images))

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen = set()
        out = []
        images = self.images
        for start in range(len(images)):
            if start in seen or images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            j = images[start]
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = images[j]
            out.append(tuple(cyc))
        return out

    def moved_points(self):
        return [i for i, j in enumerate(self.images) if i != j]

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __repr__(self):
        return f"Permutation({self!s}, degree={self.degree})"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


class _Tables:
    """Permutations of at most TABLE_SIZE points as translation tables:
    bytes(images) followed by the fixed points degree..TABLE_SIZE-1."""

    compose = staticmethod(bytes.translate)  # u*a: u.translate(a)

    def __init__(self, degree):
        self.degree = degree
        self._fixed = bytes(range(degree, TABLE_SIZE))

    def encode(self, p):
        return bytes(p.images) + self._fixed

    def decode(self, table):
        return Permutation._raw(tuple(table[:self.degree]))


class _Tuples:
    """Permutations of more than TABLE_SIZE points as their image
    tuples; u*a is one itemgetter call."""

    @staticmethod
    def encode(p):
        return p.images

    @staticmethod
    def compose(u, a):
        return itemgetter(*u)(a)

    decode = staticmethod(Permutation._raw)


def encoding(degree):
    """The encoding of permutations of `degree` points that the chain
    engine sifts on: encode(p), compose(u, a) = u*a and decode(code).  An
    encoded permutation is indexed like its images, `index` finds a
    preimage, and two are equal exactly when the permutations are."""
    return _Tables(degree) if degree <= TABLE_SIZE else _Tuples()


def parse_permutation(text, degree):
    return Permutation.from_cycles(text, degree)
