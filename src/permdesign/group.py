"""Permutation groups backed by reproducible stabilizer chains.

A chain is built with the classical deterministic Schreier-Sims procedure:
base points are chosen as the smallest point moved by the offending
generator, transversals are extended breadth-first and never rewritten, and
no Schreier generator is sifted twice: orbits and strong generators only
grow at the end, so the points each generator was sifted with are a prefix
of its level's orbit, kept as one cursor (Seress, Permutation Group
Algorithms, 2003, ch. 4).  The result is reproducible for a fixed generator
sequence; the chain of an action on sets alone, and the chain that
generates_order builds, are completed from seeded random elements instead
(below), and are reproducible too.

A sift holds the residue r = p*u1^-1*...*uk^-1 through its inverse
r^-1 = a*p^-1, kept as the two factors p and a = uk*...*u1: moving down a
level is the product u*a, r fixes the base point b exactly when b^p = b^a,
and otherwise b^r is the index of b^p in a's images.  No transversal
element is inverted, and p^-1 is never formed.  It is the textbook
residue, so every decision and every installed residue, and with them the
chains, are unchanged.  A Schreier generator u_c*g*u_t^-1 is sifted once,
as the pair (u_c*g, u_t); the one inversion left is a^-1, for a residue
that is installed.

The same engine builds the chain of an action on point sets (SetAction),
such as the blocks of a design, on the sets alone (set_action) or on the
points followed by the sets (set_stabilizer), keeping every element a
permutation of the v points.  A level based at a set steps its orbit by
the strong generators' set images, each formed once, and sifts by the pair
rule read on the sets: r fixes the base set B iff B^p = B^a, and otherwise
B^r is the set a^-1(p(B)).  On the sets alone a residue fixing every set
is trivial (a kernel element), a new level is based at the smallest set a
residue moves, and the chain is read out at degree b; on the points and
the sets, every level below the hinted sets is based at the smallest point
a residue moves.  On the points and the sets, each decision is the one the
plain build of the union of the points and the sets makes, so the chains
are equal level by level, and no permutation of degree v + b is formed
(Seress, Permutation Group Algorithms, 2003, section 4.1 and ch. 5; Holt,
Eick, O'Brien, Handbook of Computational Group Theory, 2005, section 4.4).
A read-out level keeps its transversal as a Schreier tree, each orbit
point's parent and generator, and forms the elements of degree b on the
first read of its orbit: the order, the base, the walk generators and the
tails form none.

A chain on the sets alone is not completed by Schreier generators, whose
level-0 orbit has length b.  The residues of G's walk generators are
installed, and then uniformly random elements of G, drawn from G's own
chain with a fixed seed, are sifted and their residues installed, until
the chain's order reaches |G| (the randomized Schreier-Sims procedure of
Seress, section 4.3, stopped by the known order, below).  The stop is
exact, so a faithful action, as that of every nontrivial 2-design on its
blocks is, ends there.  While the chain is incomplete at most half of G
sifts through it, so once a fixed number of random elements in a row sift
through below |G|, the action has a kernel, but for a chance that halves
with each element; the deterministic procedure then finishes the chain
from where it stands.  The seed decides the base and the strong
generators, never the group: the chain is a base and strong generating
set of the image, not the plain build of the generators' images level by
level.

generates_order asks whether some permutations, such as the images of
G's walk generators on a coset space, generate a group whose order is a
known upper bound.  There is no chain of that group to draw uniform
elements from, and an element drawn from G's chain costs one canonical
coset representative per coset to map onto a coset space, so the chain
is completed from seeded random products of the permutations themselves,
by product replacement (Celler, Leedham-Green, Murray, Niemeyer and
O'Brien, 1995), with the same stop and the same finish.  Those products
are not uniform, so the chance above does not bound how often a faithful
image reaches the finish; the finish itself is exact either way, and so
is the answer.

A build may be given an upper bound on the order of the group it generates,
where that order is already known (the same group on another base, or an
action of a group whose chain is built).  It stops as soon as the chain's
order, the product of its basic-orbit lengths, reaches the bound.  That is
exact: each basic orbit lies in the orbit of the true stabilizer, so the
product never exceeds the group order, and equality means every level
already generates its stabilizer.  Each step left out would sift an element
of the group to the identity and install nothing, so the chain is the one
the full build makes, level by level.  A product above the bound proves the
bound wrong and raises StructureContradiction.

The chain also records, in order, the generators whose addition grew it:
the walk generators.  Every other generator was skipped because it already
lay in the group the earlier ones generate, or because the chain had
reached the known order, so the walk generators generate the same group;
that is exact and needs no further build (the known-order argument of
Seress, Permutation Group Algorithms, 2003, section 4.5).  A walk whose
result depends only on the group, such as an orbit, a minimal block system
or a coset space, costs (domain size) x (number of generators), so it runs
over these: 6 of the 84 generators of the symplectic design over GF(3)
grow its chain.  A chain of an action of G on point sets (set_action,
set_stabilizer) is built from them too: a given generator that did not
grow G's chain lies in the group the walk generators before it generate,
so the build of every given generator's image skips it.  Where the
generator list itself reaches a result (a point chain, a normal
closure's generators, an induced action), the given generators are kept;
an action's image is still given by the images of the given generators,
formed where they are read.  A coset action is the exception: its cosets
are numbered by the walk that finds them, and its image is given by the
walk generators' images (cosets.CosetSpace).

A GroupWithChain is immutable once constructed: a normal closure grows a
fresh chain, and a point stabilizer is a tail of one (see _Chain).  Only
this module reads a chain: the others ask for a coset's canonical
representative, the first basic orbit and its transporter.  What is
derived from a group is kept on it, computed on first use: its elements,
and in one store (derived) its first point stabilizer, class closures,
block systems, walk-free type certificates (analysis.classify_point_action)
and, as a subgroup H, the walk of its cosets H*a under each group A, keyed
by A's walk generators (cosets._cosets).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter

from .config import element_limit
from .gf import is_prime
from .perm import DegreeMismatchError, Permutation, images_at


# A chain of an action on sets (set_action) or of generates_order is
# completed from random elements of the group, drawn with this seed; once
# this many in a row sift through below the known order, the deterministic
# Schreier-Sims procedure finishes it.  Neither changes the group the chain
# describes.  generates_order draws its elements as products of this many
# slots (_Products).
_RANDOM_SEED = 1
_IDLE_SIFTS = 20
_SLOTS = 10


class EnumerationLimitError(RuntimeError):
    """Enumeration would exceed PERMDESIGN_ELEMENT_LIMIT elements."""


class MembershipError(ValueError):
    """A permutation required to lie in a group does not."""


class StructureContradiction(RuntimeError):
    """An internal identity that must hold mathematically failed."""


def check_index(kind, value, count):
    """Raise ValueError unless 0 <= value < count."""
    if not 0 <= value < count:
        raise ValueError(f"{kind} {value} out of range 0..{count - 1}")


class _Level:
    __slots__ = ("base", "gens", "orbit", "points", "checked", "images",
                 "parents")

    def __init__(self, base, identity, on_sets=False):
        self.base = base
        self.gens = []  # strong generators fixing all earlier base points
        self.orbit = {base: identity}  # point -> u, base^u = point
        self.points = [base]  # the orbit in insertion order
        self.checked = []  # gens[i] has been sifted against points[:checked[i]]
        # on sets: gens[i]'s set image; points[n + 1] was c^gens[i], (c, i)
        self.images = [] if on_sets else None
        self.parents = [] if on_sets else None


class _ReadLevel(_Level):
    """A level of a chain on the sets alone, read on the set indices
    (_Chain.read): its strong generators are the set images, and its
    transversal is formed on the first read of `orbit`, each element as its
    parent's times a generator, in insertion order, as a build on the set
    indices forms it.  The order (len(points)), the base and the tails are
    read without it.  The property shadows _Level's `orbit` slot."""
    __slots__ = ("_identity", "_transversal")

    def __init__(self, level, identity):
        self.base = level.base
        self.gens = list(level.images)
        self.points = list(level.points)
        self.checked = list(level.checked)
        self.images = None
        self.parents = level.parents
        self._identity = identity
        self._transversal = None

    @property
    def orbit(self):
        if self._transversal is None:
            orbit = {self.base: self._identity}
            gens = self.gens
            for d, (c, i) in zip(self.points[1:], self.parents):
                orbit[d] = orbit[c] * gens[i]
            self._transversal = orbit
        return self._transversal


class _Chain:
    """Mutable Schreier-Sims engine; wrapped read-only by GroupWithChain,
    and built, with its levels, in this module alone.
    A stabilizer's chain is a tail sharing its parent's _Level objects, so
    neither may be extended once wrapped.  `grown` lists, in order, the
    given generators that grew the chain (a tail records none).
    Each Schreier generator is sifted once, as a pair, and a residue
    p*a^-1 is formed only to be installed (_sift_schreier, sift_in).
    Given `sets`, a SetAction on the points 0..v-1, the domain is the sets
    (degree b) or the points followed by them (degree v + b, set j at
    v + j); the base hint names sets, whose levels lead and are kept on
    the set indices."""

    def __init__(self, degree, base_hint=(), sets=None):
        self.degree = degree
        self.sets = sets
        self.levels = []
        self.grown = []
        if sets is None:
            self.identity = Permutation.identity(degree)
            first = degree
        else:  # elements are permutations of the points; set 0 is at `first`
            self.identity = Permutation.identity(sets.degree)
            first = degree - len(sets.sets)
        # the domain is the sets alone: an element fixing each is trivial
        self.on_sets = first == 0
        for b in base_hint:
            check_index("base point", b, degree)
            if sets is not None:
                b -= first
                check_index("base set", b, len(sets.sets))
            if all(level.base != b for level in self.levels):
                self.levels.append(_Level(b, self.identity, sets is not None))
        self.nsets = 0 if sets is None else len(self.levels)  # set levels

    def order(self):
        n = 1
        for level in self.levels:
            n *= len(level.points)
        return n

    def _sift(self, p, a, start=0):
        """Reduce p*a^-1 through levels[start:] to the residue
        r = p*a^-1*u1^-1*u2^-1*..., left as it stands once a base image
        leaves its basic orbit, with r held as the pair (p, a): moving r
        down a level is a <- u*a, and b^r is the index of b^p in a's
        images.  p is read at the base points, and compared with a
        whole only at the end.  At a level of sets, r fixes the base set B
        iff B^p = B^a, and otherwise B^r is the set a^-1(p(B)).  On the
        sets alone, a residue fixing every set is trivial.
        Returns None when r reduces to the identity (a == p), else the final
        a, so that r = p*a^-1."""
        images = p.images
        a = a.images
        levels = self.levels
        if start < self.nsets:
            read = self.sets._read
            index = self.sets._index
            for level in levels[start:self.nsets]:
                at = read[level.base]
                c = at(images)
                if frozenset(c) != frozenset(at(a)):
                    u = level.orbit.get(index[frozenset(map(a.index, c))])
                    if u is None:
                        return Permutation._raw(a)
                    a = itemgetter(*u.images)(a)  # u*a
            start = self.nsets
        for level in levels[start:]:
            b = level.base
            c = images[b]
            if c != a[b]:
                u = level.orbit.get(a.index(c))
                if u is None:
                    return Permutation._raw(a)
                a = itemgetter(*u.images)(a)  # u*a
        if a == images or self.on_sets and all(
                frozenset(r(images)) == frozenset(r(a))
                for r in self.sets._read):
            return None
        return Permutation._raw(a)

    def contains(self, p):
        return self._sift(p, self.identity) is None

    def install(self, h):
        """Record h as a strong generator on every level whose base prefix it
        fixes, extending the base when h fixes all current base points.  On
        sets, h's action on them is formed once and kept beside it."""
        levels = self.levels
        image = h if self.sets is None else self.sets.perm(h)
        d = 0
        while d < len(levels) and (image if d < self.nsets else h).images[
                levels[d].base] == levels[d].base:
            d += 1
        if d == len(levels):
            if self.on_sets:
                levels.append(_Level(min(image.moved_points()),
                                     self.identity, True))
                self.nsets += 1
            else:
                levels.append(_Level(min(h.moved_points()), self.identity))
        for level in levels[:d + 1]:
            level.gens.append(h)
            if level.images is not None:
                level.images.append(image)
            level.checked.append(0)
            self._extend_orbit(level)
        return d

    def reached(self, order_bound):
        """Whether the chain's order equals `order_bound`, an upper bound on
        the order of the group it describes (None: no bound is known)."""
        if order_bound is None:
            return False
        n = self.order()
        if n > order_bound:
            raise StructureContradiction(
                f"chain order {n} exceeds the known bound {order_bound}")
        return n == order_bound

    def extend(self, g, order_bound=None):
        """Add g to the group the chain describes: install it and complete
        the chain, unless g already lies in it.  Returns whether it grew."""
        if self.contains(g):
            return False
        self.grown.append(g)
        self.install(g)
        self.schreier_sims(order_bound)
        return True

    def sift_in(self, p):
        """Install the residue of p, without completing the chain, unless p
        already sifts through it.  Returns whether the chain grew."""
        a = self._sift(p, self.identity)
        if a is None:
            return False
        self._install_residue(p * a.inverse())
        return True

    def _install_residue(self, residue):
        """install() a residue, which sends a base point out of its basic
        orbit or fixes the whole base and starts a level, so the order must
        grow; returns install's level."""
        n = self.order()
        d = self.install(residue)
        if self.order() == n:
            raise StructureContradiction("a residue grew no orbit")
        return d

    def sift_random(self, source, order_bound):
        """Complete the chain of a group of order at most `order_bound`:
        sift random elements of that group, drawn by
        source.random_element, into it until its order reaches the bound,
        and finish with schreier_sims once _IDLE_SIFTS in a row sift
        through below it.  While the chain is incomplete, a uniform
        element sifts through with chance at most 1/2, so a faithful action
        rarely needs the finish; the seed decides the base and strong
        generators, never the group."""
        rng = random.Random(_RANDOM_SEED)
        idle = 0
        while idle < _IDLE_SIFTS and not self.reached(order_bound):
            idle = 0 if self.sift_in(source.random_element(rng)) else idle + 1
        self.schreier_sims(order_bound)

    def _extend_orbit(self, level):
        # the orbit is closed under every generator but the one install()
        # just appended: one breadth-first pass steps the old points by it
        # alone and the points it adds by every generator, so points and
        # transversals only grow, in the order a pass over every (point,
        # generator) pair finds them, and every _check_level cursor stays
        # valid; a level of sets steps by the generators' set images and
        # records where each transversal element came from
        orbit = level.orbit
        points = level.points
        gens = level.gens
        parents = level.parents
        steps = list(enumerate(g.images for g in (
            gens if level.images is None else level.images)))
        last = steps[-1:]
        old = len(points)
        for k, c in enumerate(points):
            u = orbit[c]
            for i, step in (last if k < old else steps):
                d = step[c]
                if d not in orbit:
                    orbit[d] = u * gens[i]
                    points.append(d)
                    if parents is not None:
                        parents.append((c, i))

    def schreier_sims(self, order_bound=None):
        i = len(self.levels) - 1
        while i >= 0 and not self.reached(order_bound):
            residue = self._check_level(i)
            if residue is None:
                i -= 1
            else:
                i = self._install_residue(residue)

    def _check_level(self, i):
        # install() has already closed every orbit it changed
        level = self.levels[i]
        orbit = level.orbit
        checked = level.checked
        steps = level.gens if level.images is None else level.images
        for gi, g in enumerate(level.gens):
            step = steps[gi].images
            for c in level.points[checked[gi]:]:
                checked[gi] += 1
                residue = self._sift_schreier(orbit[c], g, orbit[step[c]],
                                              i + 1)
                if residue is not None:
                    return residue
        return None

    def _sift_schreier(self, u, g, t, start):
        """The residue of the Schreier generator u*g*t^-1 through
        levels[start:], or None: the pair (u*g, t), sifted once."""
        p = u * g
        a = self._sift(p, t, start)
        return None if a is None else p * a.inverse()

    def read(self):
        """A chain on the sets alone, read on the set indices: strong
        generators as their set images, and each transversal element as
        its parent's times a generator's set image, as a build on the
        indices forms it, formed when its level's orbit is first read
        (_ReadLevel)."""
        chain = _Chain(self.degree)
        chain.levels = [_ReadLevel(level, chain.identity)
                        for level in self.levels]
        chain.grown = [self.sets.perm(g) for g in self.grown]
        return chain


class SetAction:
    """Permutations of the points 0..degree-1 acting on a list of distinct
    point sets, by index: set j goes to the index of its image.  This is
    the one rule by which an element maps a block (DesignAction, and the
    chains on sets)."""

    def __init__(self, degree, sets):
        self.degree = degree
        self.sets = tuple(sets)
        self._index = {frozenset(s): j for j, s in enumerate(self.sets)}
        self._read = tuple(images_at(s) for s in self.sets)
        self._perms = {}  # g.images -> perm(g)

    def image(self, j, g):
        """The index of the image of set j under g; KeyError when that
        image is not in the list."""
        return self._index[frozenset(self._read[j](g.images))]

    def perm(self, g):
        """g's action on the sets, as a permutation of their indices, formed
        once per element; ActionClosureError, naming g and the set, when g
        maps a set outside the list."""
        p = self._perms.get(g.images)
        if p is None:
            images = []
            for j, s in enumerate(self.sets):
                try:
                    images.append(self.image(j, g))
                except KeyError:
                    raise ActionClosureError(
                        f"generator {g} maps set {j} {tuple(s)} outside "
                        "the set list") from None
            p = self._perms[g.images] = Permutation._raw(tuple(images))
        return p


def _build_chain(degree, generators, base_hint=(), order_bound=None,
                 sets=None, source=None):
    """The chain of the generated group on 0..degree-1.  With `sets`, a
    SetAction on the generators' points, the domain holds the sets (see
    _Chain), and a chain on the sets alone is read out on their indices;
    without `source`, it is the build of the generators' set images.
    Given `source`, which draws random elements (random_element(rng)) of
    the group the generators generate, of order at most `order_bound`,
    each generator's residue is installed without completing the chain,
    and the drawn elements complete it (_Chain.sift_random)."""
    chain = _Chain(degree, base_hint, sets)
    for g in generators:
        if g.degree != chain.identity.degree:
            raise DegreeMismatchError(
                f"generator degree {g.degree} != {chain.identity.degree}")
        if not chain.reached(order_bound):
            if source is None:
                chain.extend(g, order_bound)
            elif chain.sift_in(g):
                chain.grown.append(g)
    if source is not None:
        chain.sift_random(source, order_bound)
    return chain.read() if chain.on_sets else chain


class _Products:
    """Random products of a generator list, by product replacement
    (Celler, Leedham-Green, Murray, Niemeyer and O'Brien, 1995): each draw
    replaces one of _SLOTS slots, first filled with the generators in
    turn, by its product with another, and multiplies an accumulator by
    the new slot.  The draws lie in the generated group and are
    reproducible for a seeded rng, but are not uniform."""

    def __init__(self, generators):
        self.slots = [generators[i % len(generators)] for i in range(_SLOTS)]
        self.product = Permutation.identity(generators[0].degree)

    def random_element(self, rng):
        slots = self.slots
        i, j = rng.sample(range(_SLOTS), 2)
        slots[i] = (slots[i] * slots[j] if rng.random() < 0.5
                    else slots[j] * slots[i])
        self.product = self.product * slots[i]
        return self.product


def generates_order(generators, order):
    """Whether the permutations generate a group of order `order`, a
    proven upper bound on that order.  Their residues are installed, and
    the chain is completed from seeded random products of them (_Products)
    until its order reaches the bound; once _IDLE_SIFTS products in a row
    sift through below it, the deterministic procedure finishes the chain,
    so the answer is exact either way (_Chain.sift_random), and the chain
    is the same on every call."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("empty generator list")
    chain = _build_chain(generators[0].degree, generators, order_bound=order,
                         source=_Products(generators))
    return chain.order() == order


def orbit_of(generators, point):
    """Orbit of a point under the given permutations (breadth-first
    closure over their image tuples)."""
    images = [g.images for g in generators]
    seen = {point}
    queue = [point]
    for c in queue:
        for img in images:
            d = img[c]
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return frozenset(seen)


def orbits_of(generators, degree):
    """The orbits of the given permutations on 0..degree-1, in order of
    their smallest point."""
    out = []
    covered = set()
    for point in range(degree):
        if point not in covered:
            o = orbit_of(generators, point)
            covered |= o
            out.append(o)
    return out


def orbit_minima(group):
    """The smallest point of each orbit of `group`, in increasing order."""
    return [min(o) for o in orbits_of(group.walk_generators, group.degree)]


class GroupWithChain:
    """A finite permutation group with order/membership/stabilizer queries."""

    __slots__ = ("degree", "_generators", "walk_generators", "_chain",
                 "_order", "_elements", "_derived")

    def __init__(self, generators, base_hint=(), order_bound=None):
        """`order_bound`, when given, is a proven upper bound on the order of
        the generated group; the chain build stops once it is reached."""
        generators = tuple(generators)
        if not generators:
            raise ValueError("empty generator list")
        self._set(generators, _build_chain(generators[0].degree, generators,
                                           base_hint, order_bound))

    @classmethod
    def _from_chain(cls, generators, chain):
        """The group of `chain`, given by `generators`: a sequence, or a
        function that returns one, called on the first read."""
        g = object.__new__(cls)
        g._set(generators if callable(generators) else tuple(generators),
               chain)
        return g

    @property
    def generators(self):
        """The given generators, as a tuple."""
        if callable(self._generators):
            self._generators = tuple(self._generators())
        return self._generators

    def _set(self, generators, chain):
        self.degree = chain.degree
        self._generators = generators
        # the generators that grew the chain; a tail falls back to the given
        self.walk_generators = tuple(chain.grown) or self.generators
        self._chain = chain
        self._order = chain.order()
        self._elements = None
        self._derived = None  # key -> value (derived)

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

    def first_basic_orbit(self):
        """The orbit of the first base point, in the order in which
        iter_elements multiplies by its transversal (empty when trivial)."""
        levels = self._chain.levels
        return tuple(levels[0].points) if levels else ()

    def transporter(self, a):
        """p -> u_a^-1 * u_p, the element sending a to p, for a and p in
        the first basic orbit and u its transversal."""
        u = self._chain.levels[0].orbit
        to_base = u[a].inverse()
        return lambda p: to_base * u[p]

    def derived(self, key, compute):
        """compute(), made on the first call with `key` and kept on the
        group, for a fact that depends only on the group."""
        store = self._derived
        if store is None:
            store = self._derived = {}
        if key not in store:
            store[key] = compute()
        return store[key]

    def orbit(self, point):
        """Orbit of a point under the whole group."""
        check_index("point", point, self.degree)
        return orbit_of(self.walk_generators, point)

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, point):
        """Stabilizer of a point, as the levels below the first base point of
        a chain based at it: this group's own chain, whose tail is made once
        and kept, or one built with the point first.  The orbit-stabilizer
        identity is asserted on each stabilizer made."""
        check_index("point", point, self.degree)

        def tail(chain):
            return _stabilizer(chain, self.degree, len(self.orbit(point)),
                               self._order)
        if self.base()[:1] == (point,):
            return self.derived("_stabilizer", lambda: tail(self._chain))
        return tail(_build_chain(self.degree, self.generators, (point,),
                                 self._order))

    def random_element(self, rng):
        """A uniformly random element: one random transversal element per
        level, multiplied in the order of iter_elements."""
        g = Permutation.identity(self.degree)
        for level in reversed(self._chain.levels):
            g = g * level.orbit[rng.choice(level.points)]
        return g

    def _check_enumerable(self):
        limit = element_limit()
        if self._order > limit:
            raise EnumerationLimitError(
                f"group order {self._order} exceeds enumeration limit {limit} "
                "(PERMDESIGN_ELEMENT_LIMIT)")

    def iter_elements(self):
        """The elements in the order of elements(), without materializing
        them: only the first base point's stabilizer is held, and each of
        its elements is multiplied by each level-0 transversal element.
        Refuses beyond the element limit before yielding anything."""
        self._check_enumerable()
        levels = self._chain.levels
        stabilizer = [Permutation.identity(self.degree)]
        for level in reversed(levels[1:]):
            stabilizer = [h * u for u in level.orbit.values()
                          for h in stabilizer]
        if not levels:
            return iter(stabilizer)
        return (h * u for u in levels[0].orbit.values() for h in stabilizer)

    def elements(self):
        """All group elements, as a deterministic tuple of Permutations,
        produced from the chain transversals.  Refuses beyond the element
        limit."""
        self._check_enumerable()
        if self._elements is None:
            elems = tuple(self.iter_elements())
            if len(elems) != self._order:
                raise StructureContradiction("transversal enumeration miscount")
            self._elements = elems
        return self._elements

    def is_subgroup_of(self, other):
        return self.degree == other.degree and all(
            other.contains(g) for g in self.generators)

    def __repr__(self):
        # deferred generators are not formed to be counted
        ngens = ("deferred" if callable(self._generators)
                 else len(self._generators))
        return (f"GroupWithChain(degree={self.degree}, order={self._order}, "
                f"ngens={ngens})")


def _stabilizer(chain, degree, orbit_length, order):
    """The stabilizer of chain's first base point, as the group on
    0..degree-1 of the levels below it, asserting the orbit-stabilizer
    identity against the group's order and that point's orbit length."""
    tail = _Chain(degree)
    tail.levels = chain.levels[1:]
    gens = tail.levels[0].gens if tail.levels else ()
    # a hinted level can have no strong generators
    stab = GroupWithChain._from_chain(
        gens or (Permutation.identity(degree),), tail)
    if orbit_length * stab.order() != order:
        raise StructureContradiction("orbit-stabilizer identity violated")
    return stab


def canonical_coset_representative(subgroup, x):
    """The chain-minimal element of the right coset (subgroup)*x: the one
    whose images of subgroup.base() are lexicographically least."""
    h = x
    for level in subgroup._chain.levels:
        best_pt = None
        best_img = None
        for c in level.orbit:
            img = h.images[c]
            if best_img is None or img < best_img:
                best_img = img
                best_pt = c
        if best_pt != level.base:
            h = level.orbit[best_pt] * h
    return h


def normal_closure(group, seeds):
    """Smallest normal subgroup of `group` containing every seed.

    Generators of the closure are conjugated by the group's generators until
    closed; the loop's exit condition is exactly the normality certificate.
    The loop also ends once the closure's chain reaches |G|: the closure is
    then the whole group, which is normal.
    """
    degree = group.degree
    bound = group.order()
    chain = _Chain(degree)
    gens = []
    work = []
    for s in seeds:
        if s.degree != degree:
            raise DegreeMismatchError("seed degree mismatch")
        if not group.contains(s):
            raise MembershipError("seed not in the ambient group")
        if chain.extend(s, bound):
            gens.append(s)
            work.append(s)
    group_gens = group.generators
    inv_gens = [g.inverse() for g in group_gens]
    while work and not chain.reached(bound):
        n = work.pop()
        for g, gi in zip(group_gens, inv_gens):
            c = gi * n * g
            if chain.extend(c, bound):
                gens.append(c)
                work.append(c)
    if not gens:
        return GroupWithChain.trivial(degree)
    if chain.order() == bound:
        # the whole group: reuse it, with its cached element list
        return group
    closure = GroupWithChain._from_chain(gens, chain)
    for n in closure.generators:
        for g, gi in zip(group_gens, inv_gens):
            if not closure.contains(gi * n * g):
                raise StructureContradiction("normal closure not normal")
    return closure


def prime_order_class_representatives(group):
    """One representative per conjugacy class of prime-order elements.

    Walks every element of the group, so it is gated by the element limit;
    the elements are streamed, not stored.  Every nontrivial normal subgroup
    contains a prime-order element (Cauchy), and the class of that element
    lies inside the subgroup, which is what makes these representatives
    sufficient for quasiprimitivity and minimal-normal-subgroup computations.
    A class is closed under conjugation by the walk generators, so the
    representatives do not depend on the generator list.
    """
    gens = group.walk_generators
    inv_gens = [g.inverse() for g in gens]
    seen = set()
    reps = []
    for p in group.iter_elements():
        t = p.images
        if t in seen:
            continue
        lengths = {len(c) for c in p.cycles()}
        if len(lengths) != 1 or not is_prime(lengths.pop()):
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


def class_closures(group):
    """normal_closure(group, [rep]) for each prime-order class
    representative, in the order of prime_order_class_representatives.

    Every nontrivial normal subgroup contains one of these closures, so they
    decide quasiprimitivity, simplicity and the minimal normal subgroups.
    The list is computed once per group and kept on it; a closure equal to
    the whole group is kept as None, so the group never refers to itself.
    The element limit refuses first, whether or not the list is cached.
    """
    group._check_enumerable()
    closures = group.derived("class_closures", lambda: tuple(
        None if n is group else n
        for n in (normal_closure(group, [rep]) for rep in
                  prime_order_class_representatives(group))))
    return [group if n is None else n for n in closures]


@dataclass(frozen=True)
class ActionImage:
    """A group action on a finite list of objects, as an index permutation
    group; it is faithful iff the image has the source's order."""

    source: GroupWithChain
    image: GroupWithChain

    @property
    def faithful(self):
        return self.image.order() == self.source.order()


class ActionClosureError(ValueError):
    """The action rule produced an object outside the given list."""


def set_action(group, sets):
    """Action of `group` on `sets`, a SetAction on its points, as an
    ActionImage on the set indices; ActionClosureError, naming a generator
    and a set, when the group does not preserve the list.

    The chain is built on the points (_Chain, on the sets alone): the
    residues of the group's walk generators, which generate it, are
    installed, and uniformly random elements of the group, drawn from its
    own chain with a fixed seed, complete the chain until its order
    reaches |G| (_Chain.sift_random).  A faithful action stops there; an
    action with a kernel is finished by the deterministic procedure.  The
    image's generators are the set images of the given generators, aligned
    with them; they are formed on first read (SetAction.perm), and so is
    each level's transversal (_ReadLevel)."""
    for g in group.walk_generators:
        sets.perm(g)  # refuses a generator that maps a set outside the list
    chain = _build_chain(len(sets.sets), group.walk_generators,
                         order_bound=group.order(), sets=sets, source=group)
    image = GroupWithChain._from_chain(
        lambda: tuple(sets.perm(g) for g in group.generators), chain)
    return ActionImage(source=group, image=image)


def set_stabilizer(group, sets, j):
    """The stabilizer in `group` of set j of `sets`, a SetAction on its
    points, as a group on the points: the tail below set j of the chain,
    built on the points from the walk generators, of the group on the
    points and the sets, hinted at set j.  That chain is the plain build
    of the union of the points and the sets (cosets.union_generators) at
    set j's vertex, level by level (_Chain).  ActionClosureError, naming a
    generator and a set, when the group does not preserve the list."""
    degree = group.degree
    walk = group.walk_generators
    images = [sets.perm(g) for g in walk]
    chain = _build_chain(degree + len(sets.sets), walk, (degree + j,),
                         group.order(), sets=sets)
    return _stabilizer(chain, degree, len(orbit_of(images, j)),
                       group.order())


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
    # the image is a quotient of the source, so |G| bounds its order
    image = GroupWithChain(tuple(image_gens), order_bound=group.order())
    return ActionImage(source=group, image=image)
