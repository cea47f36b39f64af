"""Permutation groups backed by deterministic stabilizer chains.

The chain is built with the classical deterministic Schreier-Sims procedure:
base points are chosen as the smallest point moved by the offending
generator, transversals are extended breadth-first and never rewritten, and
every Schreier generator is sifted exactly once (a per-level memo makes the
verification loop incremental).  The result is reproducible for a fixed
generator sequence.

A GroupWithChain is immutable once constructed; operations that need to grow
a group (normal closures, stabilizers) build a fresh chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import element_limit
from .perm import DegreeMismatchError, Permutation


class EnumerationLimitError(RuntimeError):
    """The operation would enumerate more elements than the configured limit."""


class MembershipError(ValueError):
    """A permutation required to lie in a group does not."""


class StructureContradiction(RuntimeError):
    """An internal identity that must hold mathematically failed."""


class _Level:
    __slots__ = ("base", "gens", "orbit", "checked")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []  # strong generators fixing all earlier base points
        self.orbit = {base: Permutation.identity(degree)}  # point -> u, base^u = point
        self.checked = set()  # (orbit point, generator index) pairs already sifted


class _Chain:
    """Mutable Schreier-Sims engine; wrapped read-only by GroupWithChain."""

    def __init__(self, degree, base_hint=()):
        self.degree = degree
        self.levels = []
        for b in base_hint:
            if not 0 <= b < degree:
                raise ValueError(f"base point {b} out of range")
            if all(level.base != b for level in self.levels):
                self.levels.append(_Level(b, degree))

    def order(self):
        n = 1
        for level in self.levels:
            n *= len(level.orbit)
        return n

    def sift(self, p, start=0):
        """Reduce p through levels[start:].  Returns None if p reduces to the
        identity, else the non-identity residue."""
        for level in self.levels[start:]:
            c = p.images[level.base]
            if c != level.base:
                u = level.orbit.get(c)
                if u is None:
                    return p
                p = p * u.inverse()
        return None if p.is_identity() else p

    def contains(self, p):
        return self.sift(p) is None

    def _fix_depth(self, h):
        d = 0
        levels = self.levels
        while d < len(levels) and h.images[levels[d].base] == levels[d].base:
            d += 1
        return d

    def install(self, h):
        """Record h as a strong generator on every level whose base prefix it
        fixes, extending the base when h fixes all current base points."""
        d = self._fix_depth(h)
        if d == len(self.levels):
            b = min(h.moved_points())
            self.levels.append(_Level(b, self.degree))
        for l in range(d + 1):
            self.levels[l].gens.append(h)
            self._extend_orbit(l)
        return d

    def _extend_orbit(self, i):
        # sweeps only ever add entries, so transversals are stable and the
        # Schreier-pair memo in _check_level stays valid
        level = self.levels[i]
        orbit = level.orbit
        gens = level.gens
        while True:
            grown = False
            for c in list(orbit):
                u = orbit[c]
                for g in gens:
                    d = g.images[c]
                    if d not in orbit:
                        orbit[d] = u * g
                        grown = True
            if not grown:
                return

    def schreier_sims(self):
        i = len(self.levels) - 1
        while i >= 0:
            residue = self._check_level(i)
            if residue is None:
                i -= 1
            else:
                i = self.install(residue)

    def _check_level(self, i):
        self._extend_orbit(i)
        level = self.levels[i]
        gens = level.gens
        for gi in range(len(gens)):
            g = gens[gi]
            for c in list(level.orbit):
                key = (c, gi)
                if key in level.checked:
                    continue
                level.checked.add(key)
                u_c = level.orbit[c]
                u_t = level.orbit[g.images[c]]
                s = u_c * g * u_t.inverse()
                if s.is_identity():
                    continue
                residue = self.sift(s, i + 1)
                if residue is not None:
                    return residue
        return None


def _build_chain(degree, generators, base_hint=()):
    chain = _Chain(degree, base_hint)
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatchError(
                f"generator degree {g.degree} != {degree}")
        if g.is_identity() or chain.contains(g):
            continue
        chain.install(g)
        chain.schreier_sims()
    return chain


class GroupWithChain:
    """A finite permutation group with order/membership/stabilizer queries."""

    __slots__ = ("degree", "generators", "_chain", "_order", "_elements")

    def __init__(self, generators, base_hint=()):
        generators = tuple(generators)
        if not generators:
            raise ValueError("empty generator list")
        degree = generators[0].degree
        self.degree = degree
        self.generators = generators
        self._chain = _build_chain(degree, generators, base_hint)
        self._order = self._chain.order()
        self._elements = None

    @classmethod
    def _from_chain(cls, generators, chain):
        g = object.__new__(cls)
        g.degree = chain.degree
        g.generators = tuple(generators)
        g._chain = chain
        g._order = chain.order()
        g._elements = None
        return g

    @classmethod
    def trivial(cls, degree):
        return cls((Permutation.identity(degree),))

    def order(self):
        return self._order

    def contains(self, p):
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"permutation degree {p.degree} != {self.degree}")
        return self._chain.contains(p)

    def base(self):
        return tuple(level.base for level in self._chain.levels)

    def orbit(self, point):
        """Orbit of a point under the whole group (breadth-first closure)."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range 0..{self.degree - 1}")
        seen = {point}
        queue = [point]
        gens = [g.images for g in self.generators]
        while queue:
            c = queue.pop()
            for images in gens:
                d = images[c]
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
        return frozenset(seen)

    def orbits(self):
        remaining = set(range(self.degree))
        out = []
        while remaining:
            o = self.orbit(min(remaining))
            out.append(o)
            remaining -= o
        return out

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def is_regular(self):
        return self.is_transitive() and self._order == self.degree

    def is_semiregular(self):
        """True when every point stabilizer is trivial (all orbits have full
        group size)."""
        return all(len(o) == self._order for o in self.orbits())

    def point_stabilizer(self, point):
        """Stabilizer of a point, via a chain rebuilt with that point as the
        first base point.  The orbit-stabilizer identity is asserted."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range 0..{self.degree - 1}")
        chain = _build_chain(self.degree, self.generators, base_hint=(point,))
        if len(chain.levels) > 1:
            gens = list(chain.levels[1].gens)
        else:
            gens = []
        if not gens:
            stab = GroupWithChain.trivial(self.degree)
        else:
            stab = GroupWithChain(tuple(gens))
        if len(self.orbit(point)) * stab.order() != self._order:
            raise StructureContradiction("orbit-stabilizer identity violated")
        return stab

    def elements(self, limit=None):
        """All group elements, as a deterministic tuple of Permutations,
        produced from the chain transversals.  Refuses beyond the limit."""
        limit = element_limit() if limit is None else limit
        if self._order > limit:
            raise EnumerationLimitError(
                f"group order {self._order} exceeds enumeration limit {limit}")
        if self._elements is None:
            elems = [Permutation.identity(self.degree)]
            for level in reversed(self._chain.levels):
                elems = [h * u for u in level.orbit.values() for h in elems]
            if len(elems) != self._order:
                raise StructureContradiction("transversal enumeration miscount")
            self._elements = tuple(elems)
        return self._elements

    def is_subgroup_of(self, other):
        return self.degree == other.degree and all(
            other.contains(g) for g in self.generators)

    def __repr__(self):
        return (f"GroupWithChain(degree={self.degree}, order={self._order}, "
                f"ngens={len(self.generators)})")


def group_from_generators(gens, base_hint=()):
    return GroupWithChain(gens, base_hint=base_hint)


def normal_closure(group, seeds):
    """Smallest normal subgroup of `group` containing every seed.

    Generators of the closure are conjugated by the group's generators until
    closed; the loop's exit condition is exactly the normality certificate.
    """
    degree = group.degree
    chain = _Chain(degree)
    gens = []
    work = []
    for s in seeds:
        if s.degree != degree:
            raise DegreeMismatchError("seed degree mismatch")
        if not group.contains(s):
            raise MembershipError("seed not in the ambient group")
        if s.is_identity() or chain.contains(s):
            continue
        chain.install(s)
        chain.schreier_sims()
        gens.append(s)
        work.append(s)
    group_gens = group.generators
    inv_gens = [g.inverse() for g in group_gens]
    while work:
        n = work.pop()
        for g, gi in zip(group_gens, inv_gens):
            c = gi * n * g
            if not chain.contains(c):
                chain.install(c)
                chain.schreier_sims()
                gens.append(c)
                work.append(c)
    if not gens:
        return GroupWithChain.trivial(degree)
    if chain.order() == group.order():
        # the whole group: reuse it, with its cached element list
        return group
    closure = GroupWithChain._from_chain(gens, chain)
    for n in closure.generators:
        for g, gi in zip(group_gens, inv_gens):
            if not closure.contains(gi * n * g):
                raise StructureContradiction("normal closure not normal")
    return closure


def prime_order_class_representatives(group, limit=None):
    """One representative per conjugacy class of prime-order elements.

    Requires enumerating the whole group, so it is gated by the element
    limit.  Every nontrivial normal subgroup contains a prime-order element
    (Cauchy), and the class of that element lies inside the subgroup, which
    is what makes these representatives sufficient for quasiprimitivity and
    minimal-normal-subgroup computations.
    """
    elems = group.elements(limit)
    gens = group.generators
    inv_gens = [g.inverse() for g in gens]
    seen = set()
    reps = []
    for p in elems:
        t = p.images
        if t in seen:
            continue
        lengths = {len(c) for c in p.cycles()}
        if len(lengths) != 1:
            continue
        n = lengths.pop()
        if n < 2 or any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
            continue  # prime-order elements have all cycles of one prime length
        reps.append(p)
        stack = [p]
        seen.add(t)
        while stack:
            x = stack.pop()
            for g, gi in zip(gens, inv_gens):
                c = gi * x * g
                if c.images not in seen:
                    seen.add(c.images)
                    stack.append(c)
    return reps


@dataclass(frozen=True)
class ActionImage:
    """A group action on a finite list of objects, as an index permutation
    group plus a faithfulness flag (order comparison with the source)."""

    source: GroupWithChain
    objects: tuple
    image: GroupWithChain
    faithful: bool


class ActionClosureError(ValueError):
    """The action rule produced an object outside the given list."""


def induced_action(group, objects, act):
    """Action of `group` on `objects` through the rule act(object, generator).

    The object list must be closed under every generator; the image group
    lives on object indices, aligned with the source generator order.
    """
    objects = tuple(objects)
    index = {}
    for i, obj in enumerate(objects):
        if obj in index:
            raise ValueError("objects must be distinct")
        index[obj] = i
    image_gens = []
    for g in group.generators:
        images = []
        for obj in objects:
            target = act(obj, g)
            j = index.get(target)
            if j is None:
                raise ActionClosureError(
                    f"generator maps {obj!r} outside the object list")
            images.append(j)
        if len(set(images)) != len(objects):
            raise ActionClosureError("action rule is not a bijection")
        image_gens.append(Permutation(images))
    image = GroupWithChain(tuple(image_gens))
    faithful = image.order() == group.order()
    return ActionImage(source=group, objects=objects, image=image,
                       faithful=faithful)
