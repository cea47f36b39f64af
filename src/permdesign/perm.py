"""Permutations of {0..n-1}: composition, inverses, cycle notation I/O.

Action convention used throughout the package: permutations act on the
right, so ``point^(p*q) == (point^p)^q`` and ``p*q`` means "apply p, then q".
Cycle notation is 1-based on the outside, 0-based internally.

A product is one ``operator.itemgetter`` call, which reads every image of
the second factor at the images of the first in C.  Degree 1 is the one
exception: an itemgetter with a single index returns a scalar, not a
tuple, and the only permutation of one point is the identity anyway.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter


class CycleParseError(ValueError):
    """Malformed cycle notation, repeated point, or point out of range."""


class DegreeMismatchError(ValueError):
    """Operands act on domains of different sizes."""


_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")
_SEPARATOR_RE = re.compile(r"[\s,]+")


def images_at(points):
    """A function that reads a permutation's images (a tuple) at the given
    points, as a tuple, in one call: an itemgetter, whose single index
    would return the item itself, so one point is read as a slice."""
    if len(points) > 1:
        return itemgetter(*points)
    return itemgetter(slice(points[0], points[0] + 1))


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

        Fixed points are omitted; "()" denotes the identity.
        """
        if degree <= 0:
            raise ValueError("degree must be positive")
        stripped = text.strip()
        if not stripped:
            raise CycleParseError("empty permutation string")
        pos = 0
        images = list(range(degree))
        used = set()
        for m in _CYCLE_RE.finditer(stripped):
            if stripped[pos:m.start()].strip():
                raise CycleParseError(f"unexpected text in {text!r}")
            pos = m.end()
            body = m.group(1).strip()
            if not body:
                continue
            points = []
            for tok in _SEPARATOR_RE.split(body):
                value = int(tok)
                if not 1 <= value <= degree:
                    raise CycleParseError(
                        f"point {value} out of range 1..{degree} in {text!r}")
                pt = value - 1
                if pt in used:
                    raise CycleParseError(f"repeated point {value} in {text!r}")
                used.add(pt)
                points.append(pt)
            for a, b in zip(points, points[1:]):
                images[a] = b
            images[points[-1]] = points[0]
        if stripped[pos:].strip():
            raise CycleParseError(f"unexpected text in {text!r}")
        return cls._raw(tuple(images))

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


def parse_permutation(text, degree):
    return Permutation.from_cycles(text, degree)
