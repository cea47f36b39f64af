"""Primitivity, quasiprimitivity, minimal normal subgroups, and the
affine/almost-simple recognition of transitive permutation groups."""

from __future__ import annotations

from dataclasses import dataclass, field

from .group import (GroupWithChain, StructureContradiction, class_closures,
                    is_prime)


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
    (the classical union-find merging algorithm).  The trivial one-cell
    partition is a legitimate answer."""
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
    gens = [g.images for g in group.generators]
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
    _check_invariance(cell_list, group.generators)
    return BlockSystem(cells=cell_list, cell_size=len(cell_list[0]))


def primitivity_status(group):
    """"primitive", "imprimitive", or "intransitive".

    Intransitivity is a distinguished status rather than an error because
    stabilizer restrictions probed by the design pipeline are often
    intransitive, which simply means "not primitive" there.
    """
    if not group.is_transitive():
        return "intransitive"
    if group.degree == 1:
        return "primitive"
    for x in range(1, group.degree):
        if not minimal_block_system(group, 0, x).is_trivial:
            return "imprimitive"
    return "primitive"


def is_primitive(group):
    return primitivity_status(group) == "primitive"


def is_quasiprimitive(group, limit=None):
    """True when every nontrivial normal subgroup is transitive.

    Sound and complete via prime-order conjugacy-class representatives: any
    nontrivial normal subgroup contains an element of prime order, whose
    whole class, and hence normal closure, lies inside it.  So all such
    closures transitive <=> all nontrivial normal subgroups transitive.
    """
    if not group.is_transitive():
        return False
    return all(n.is_transitive() for n in class_closures(group, limit))


def minimal_normal_subgroups(group, limit=None):
    """Inclusion-minimal nontrivial normal subgroups, found among the normal
    closures of prime-order class representatives."""
    closures = []
    for n in class_closures(group, limit):
        if not any(n.order() == m.order() and n.is_subgroup_of(m)
                   for m in closures):
            closures.append(n)
    return [n for n in closures
            if not any(m.order() < n.order() and m.is_subgroup_of(n)
                       for m in closures)]


def _is_elementary_abelian(group):
    gens = [g for g in group.generators if not g.is_identity()]
    if not gens:
        return False
    orders = {g.order() for g in gens}
    p = orders.pop()
    if orders or not is_prime(p):
        return False
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if a * b != b * a:
                return False
    n = group.order()
    while n % p == 0:
        n //= p
    return n == 1


def _is_simple(group, limit=None):
    """No proper nontrivial normal subgroup: every prime-order class
    representative has normal closure equal to the whole group."""
    if group.order() == 1:
        return False
    return all(n.order() == group.order()
               for n in class_closures(group, limit))


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


def classify_point_action(group, limit=None):
    """HA / AS / OTHER recognition for a transitive group.

    HA needs an elementary-abelian regular minimal normal subgroup; AS needs
    a unique minimal normal subgroup that is nonabelian simple (abelian
    simple groups have prime order, so order alone separates the two).
    """
    if not group.is_transitive():
        raise IntransitiveError("type recognition needs a transitive group")
    minimals = tuple(minimal_normal_subgroups(group, limit))
    for n in minimals:
        if (_is_elementary_abelian(n) and n.order() == group.degree
                and n.is_transitive()):
            return TypeReport(tag="HA", witness=n, minimal_normals=minimals)
    if len(minimals) == 1:
        n = minimals[0]
        if not is_prime(n.order()) and _is_simple(n, limit):
            return TypeReport(tag="AS", witness=n, minimal_normals=minimals)
    return TypeReport(tag="OTHER", witness=None, minimal_normals=minimals)
