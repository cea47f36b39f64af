"""Primitivity, quasiprimitivity, minimal normal subgroups, and the
affine/almost-simple recognition of transitive permutation groups."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .gf import gl_order, is_prime, prime_divisors, prime_power
from .group import (EnumerationLimitError, GroupWithChain,
                    StructureContradiction, check_index, class_closures,
                    normal_closure, orbits_of)
from .perm import Permutation

# The Iwasawa and affine-socle searches draw random elements from a
# generator seeded afresh by each search, so verdicts and witnesses are
# reproducible.  A search that finds nothing in its tries leaves the
# question to the class-representative walk.  Measured on the corpus
# designs and on point relabellings of them and of the two benchmark
# designs past the element limit: Iwasawa witnesses came within 12 tries,
# the affine socle within 265, since on the 81 points of the symplectic
# design over GF(3) about one random element in a hundred yields a socle
# element.
_SEED = 1
_TRIES = 64
_AFFINE_TRIES = 2000


class IntransitiveError(ValueError):
    """The operation requires a transitive group."""


@dataclass(frozen=True)
class BlockSystem:
    """A group-invariant partition of a transitive domain into equal cells,
    reported with cells sorted by their minimum element."""

    cells: tuple
    cell_size: int

    @property
    def is_trivial(self):
        return self.cell_size == 1 or len(self.cells) == 1


def _check_invariance(cells, generators):
    cell_sets = {frozenset(c) for c in cells}
    for g in generators:
        for c in cells:
            if frozenset(g.images[x] for x in c) not in cell_sets:
                raise StructureContradiction(
                    "computed partition is not invariant under the group")


def minimal_block_system(group, a, b):
    """Finest group-invariant partition in which points a and b share a cell
    (the classical union-find merging algorithm), merged and checked over
    the walk generators.  The trivial one-cell partition is a legitimate
    answer."""
    check_index("point", a, group.degree)
    check_index("point", b, group.degree)
    if a == b:
        raise ValueError("seed points must be distinct")
    if not group.is_transitive():
        raise IntransitiveError("minimal block systems need a transitive group")
    n = group.degree
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    queue = [max(a, b)]
    parent[max(a, b)] = min(a, b)
    gens = [g.images for g in group.walk_generators]
    while queue:
        gamma = queue.pop()
        delta = find(gamma)
        for images in gens:
            c1 = find(images[gamma])
            c2 = find(images[delta])
            if c1 != c2:
                lo, hi = (c1, c2) if c1 < c2 else (c2, c1)
                parent[hi] = lo
                queue.append(hi)
    cells = {}
    for x in range(n):
        cells.setdefault(find(x), []).append(x)
    cell_list = tuple(tuple(sorted(c)) for c in
                      sorted(cells.values(), key=min))
    sizes = {len(c) for c in cell_list}
    if len(sizes) != 1 or n % sizes.pop() != 0:
        raise StructureContradiction("block system cells not of equal size")
    _check_invariance(cell_list, group.walk_generators)
    return BlockSystem(cells=cell_list, cell_size=len(cell_list[0]))


def base_block_systems(group):
    """The distinct nontrivial block systems among minimal_block_system(b0,
    x), for the first base point b0 and one point x of each other orbit of
    the stabilizer G_b0, which is the chain tail (no build), in the order
    of those orbits; a system met again is dropped.  The system depends
    only on the G_b0-orbit of x, and every nontrivial system is coarser
    than or equal to one of them, so the group is primitive iff the tuple
    is empty.  Needs a transitive group; empty on one point.  Kept on the
    group (GroupWithChain.derived), so the primitivity, quasiprimitivity
    and cell-disjointness checks of one group share the tuple."""
    def systems():
        found = {}
        if group.degree > 1:
            b0 = group.base()[0]
            stabilizer = group.point_stabilizer(b0)
            for orbit in orbits_of(stabilizer.walk_generators, group.degree):
                if b0 not in orbit:
                    system = minimal_block_system(group, b0, min(orbit))
                    if not system.is_trivial:
                        found.setdefault(system.cells, system)
        return tuple(found.values())
    return group.derived(base_block_systems, systems)


def primitivity_status(group):
    """"primitive", "imprimitive", or "intransitive": a transitive group is
    primitive iff base_block_systems lists no system.

    Intransitivity is a distinguished status rather than an error because
    stabilizer restrictions probed by the design pipeline are often
    intransitive, which simply means "not primitive" there.
    """
    if not group.is_transitive():
        return "intransitive"
    if base_block_systems(group):
        return "imprimitive"
    return "primitive"


def is_primitive(group):
    return primitivity_status(group) == "primitive"


def _cell_action(group, system):
    """The group on the cells of a block system, over its walk generators;
    its order is at most |G|, which bounds the build."""
    cell_of = {}
    for i, cell in enumerate(system.cells):
        for x in cell:
            cell_of[x] = i
    return GroupWithChain(
        tuple(Permutation([cell_of[g.images[c[0]]] for c in system.cells])
              for g in group.walk_generators),
        order_bound=group.order())


def is_quasiprimitive(group):
    """True when every nontrivial normal subgroup is transitive.

    A transitive G is quasiprimitive iff every nontrivial block system has
    a trivial kernel: the orbits of an intransitive normal N != 1 form a
    nontrivial system whose kernel contains N, and a kernel K != 1 is
    normal and fixes two or more cells.  Every nontrivial system is
    coarser than, or equal to, one of base_block_systems(G), and when G
    acts faithfully on the cells of a system S, the systems coarser than S
    are the nontrivial systems of G on those cells.  So G is quasiprimitive
    iff, for each S in base_block_systems(G), which lists each nontrivial
    system once, G is faithful on S's cells and quasiprimitive on them
    (Dixon-Mortimer, Permutation Groups, ch. 1 and 4).  The cells are
    fewer than the points, so the recursion ends, but it visits the whole
    lattice of block systems, with no memo and no limit.  A design's block
    action is decided from the point socle instead, where that applies
    (DesignAction.local_primitivity_report); this function has no point
    side, and always recurses.
    """
    if not group.is_transitive():
        return False
    for system in base_block_systems(group):
        on_cells = _cell_action(group, system)
        if (on_cells.order() != group.order()
                or not is_quasiprimitive(on_cells)):
            return False
    return True


def minimal_normal_subgroups(group):
    """Inclusion-minimal nontrivial normal subgroups, found among the normal
    closures of prime-order class representatives."""
    closures = []
    for n in class_closures(group):
        if not any(n.order() == m.order() and n.is_subgroup_of(m)
                   for m in closures):
            closures.append(n)
    return [n for n in closures
            if not any(m.order() < n.order() and m.is_subgroup_of(n)
                       for m in closures)]


def _is_abelian(group):
    gens = group.generators
    return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])


def _is_elementary_abelian(group):
    gens = [g for g in group.generators if not g.is_identity()]
    if not gens:
        return False
    orders = {g.order() for g in gens}
    p = orders.pop()
    if orders or not is_prime(p) or not _is_abelian(group):
        return False
    n = group.order()
    while n % p == 0:
        n //= p
    return n == 1


def _is_simple(group):
    """No proper nontrivial normal subgroup: every prime-order class
    representative has normal closure equal to the whole group."""
    if group.order() == 1:
        return False
    return all(n.order() == group.order()
               for n in class_closures(group))


@dataclass(frozen=True)
class TypeReport:
    """Recognition result for a transitive action: HA (elementary-abelian
    regular minimal normal subgroup), AS (unique nonabelian simple minimal
    normal subgroup), or OTHER."""

    tag: str
    witness: GroupWithChain | None
    minimal_normals: tuple = field(default=())

    def to_json_dict(self):
        out = {"tag": self.tag}
        if self.witness is not None:
            out["witness_order"] = self.witness.order()
            out["witness_generators"] = [str(g) for g in self.witness.generators]
        else:
            out["witness_order"] = None
            out["witness_generators"] = []
        out["minimal_normal_subgroup_orders"] = [
            n.order() for n in self.minimal_normals]
        return out


def _commutes_with_conjugates(y, generators):
    return all(y * c == c * y
               for c in (y.conjugated_by(g) for g in generators))


def _affine_socle(group):
    """For a primitive group of prime-power degree p^d: N = <y^G> for
    y = x^(o(x)/p), x random with y fixed-point-free and commuting with its
    conjugates by the walk generators, accepted when N is elementary
    abelian, transitive and of order p^d.  In a primitive group such an N
    is regular and the unique minimal normal subgroup.  The commuting test
    only filters the tries, so any generating set will do.  None when the
    search finds none, at once when the stabilizer order does not divide
    |GL(d, p)|."""
    pd = prime_power(group.degree)
    if pd is None:
        return None
    p, d = pd
    if gl_order(d, p) * group.degree % group.order():
        return None
    rng = random.Random(_SEED)
    for _ in range(_AFFINE_TRIES):
        x = group.random_element(rng)
        o = x.order()
        if o % p:
            continue
        y = x ** (o // p)
        if (len(y.moved_points()) != group.degree
                or not _commutes_with_conjugates(y, group.walk_generators)):
            continue
        n = normal_closure(group, [y])
        if (n.order() == group.degree and n.is_transitive()
                and _is_elementary_abelian(n)):
            return n
    return None


def _socle_witness(group, socle):
    """The regular normal subgroup as normal_closure(G, [t]), t the element
    of it sending the first base point to the second point of the first
    basic orbit: the first socle element that iter_elements yields, so
    the closure matches the class-representative walk's."""
    orbit = group.first_basic_orbit()
    t = socle.transporter(orbit[0])(orbit[1])
    witness = normal_closure(group, [t])
    if witness.order() != socle.order() or not witness.is_subgroup_of(socle):
        raise StructureContradiction("socle element does not close to the socle")
    return witness


def _is_perfect(group):
    """[G, G] = G, with [G, G] the normal closure of the commutators of the
    walk generators: those of any generating set will do."""
    gens = group.walk_generators
    commutators = [a.inverse() * b.inverse() * a * b
                   for i, a in enumerate(gens) for b in gens[i + 1:]]
    return normal_closure(group, commutators).order() == group.order()


def _iwasawa_certificate(group):
    """Whether Iwasawa's lemma shows the perfect primitive group simple:
    the stabilizer G_b0 of the first base point has an abelian normal
    subgroup A = <y^(G_b0)>, y a prime-order power of a random element,
    whose G-conjugates generate G."""
    stabilizer = group.point_stabilizer(group.base()[0])
    rng = random.Random(_SEED)
    for _ in range(_TRIES):
        x = stabilizer.random_element(rng)
        o = x.order()
        for p in prime_divisors(o):
            y = x ** (o // p)
            if not _commutes_with_conjugates(y, stabilizer.generators):
                continue
            a = normal_closure(stabilizer, [y])
            if (_is_abelian(a) and normal_closure(group, a.generators).order()
                    == group.order()):
                return True
    return False


def _simple_stabilizer_certificate(group):
    """Whether the perfect primitive group is simple because its stabilizer
    G_b0 is simple (Dixon-Mortimer, Permutation Groups, ch. 4).  A nontrivial
    normal subgroup N is transitive and meets G_b0 in 1 or G_b0.  If in
    G_b0, then G = N G_b0 = N.  If in 1, N is regular of order the degree
    n; for n < 60 it is solvable, so its minimal characteristic subgroup
    is elementary abelian, normal in G, transitive, hence N, and n is a
    prime power.  So n < 60 and not a prime power leave G simple, and
    nonabelian, as G_b0 is nontrivial.  The stabilizer is walked; a
    stabilizer past the element limit makes that walk refuse before it
    starts, and then the certificate declines and leaves the refusal to
    the walk of G."""
    n = group.degree
    if n >= 60 or prime_power(n) is not None:
        return False
    try:
        return _is_simple(group.point_stabilizer(group.base()[0]))
    except EnumerationLimitError:
        return False


def _affine_witness(group):
    """_socle_witness of the _affine_socle, or None when the search finds
    none.  Kept on the group (GroupWithChain.derived), with the group
    itself kept as True, so that the group never refers to itself."""
    def search():
        socle = _affine_socle(group)
        if socle is None:
            return None
        witness = _socle_witness(group, socle)
        return True if witness is group else witness
    witness = group.derived("affine_witness", search)
    return group if witness is True else witness


def classify_point_action(group):
    """HA / AS / OTHER recognition for a transitive group.

    HA needs an elementary-abelian regular minimal normal subgroup; AS needs
    a unique minimal normal subgroup that is nonabelian simple (abelian
    simple groups have prime order, so order alone separates the two).  A
    primitive group is first tried for a checked certificate of either:
    its regular abelian socle; or, when it is perfect, as a nonabelian
    simple group must be, simplicity by Iwasawa's lemma or, at a degree
    below 60 that is not a prime power, from a simple point stabilizer,
    whose class-representative walk costs |G|/degree elements.  Otherwise
    the minimal normal subgroups come from the class-representative walk
    of G, within the element limit.

    The walk-free certificates (the affine witness, perfection and
    Iwasawa's lemma) are kept on the group (GroupWithChain.derived), as
    values that hold no reference to it, so a second call on the same
    group makes no random search and forms no normal closure.  The walks
    are kept too (class_closures), and they refuse past the element limit
    on every call, so a refusal does not depend on what an earlier call
    found.  The report's witness is the unique minimal normal subgroup of
    a primitive HA or AS group, which DesignAction reads to decide block
    quasiprimitivity.
    """
    if not group.is_transitive():
        raise IntransitiveError("type recognition needs a transitive group")
    if group.degree > 1 and primitivity_status(group) == "primitive":
        witness = _affine_witness(group)
        if witness is not None:
            return TypeReport(tag="HA", witness=witness,
                              minimal_normals=(witness,))
        if (group.derived("perfect", lambda: _is_perfect(group))
                and (group.derived("iwasawa",
                                   lambda: _iwasawa_certificate(group))
                     or _simple_stabilizer_certificate(group))):
            return TypeReport(tag="AS", witness=group,
                              minimal_normals=(group,))
    return _classify_from_closures(group)


def _classify_from_closures(group):
    minimals = tuple(minimal_normal_subgroups(group))
    for n in minimals:
        if (_is_elementary_abelian(n) and n.order() == group.degree
                and n.is_transitive()):
            return TypeReport(tag="HA", witness=n, minimal_normals=minimals)
    if len(minimals) == 1:
        n = minimals[0]
        if not is_prime(n.order()) and _is_simple(n):
            return TypeReport(tag="AS", witness=n, minimal_normals=minimals)
    return TypeReport(tag="OTHER", witness=None, minimal_normals=minimals)
