"""Coset actions and coset graphs: the bipartite graph on [G:L] u [G:R]
with Lx ~ Ry iff the cosets meet, its incidence structure, and the
double-coset count |RL n RLg| / |R| that equals the pair count of the
corresponding design.

Cosets are identified by a canonical representative: the element of Lx
whose base-image sequence under L's stabilizer chain is lexicographically
minimal, found by walking the chain transversals.  This gives constant-time
coset keys without backtrack searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import index_limit
from .group import (GroupWithChain, StructureContradiction, induced_action)
from .incidence import IncidenceStructure
from .perm import Permutation


class SubgroupError(ValueError):
    """The claimed subgroup is not contained in the ambient group."""


class IndexLimitError(RuntimeError):
    """The coset space is larger than the configured index limit."""


def canonical_coset_representative(subgroup, x):
    """The chain-minimal element of the right coset (subgroup)*x."""
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


class CosetSpace:
    """The right cosets of a subgroup, with canonical representatives in
    breadth-first discovery order (the trivial coset is index 0)."""

    def __init__(self, group, subgroup, limit=None):
        if subgroup.degree != group.degree:
            raise SubgroupError("subgroup degree mismatch")
        for g in subgroup.generators:
            if not group.contains(g):
                raise SubgroupError("given generators do not lie in the group")
        limit = index_limit() if limit is None else limit
        index = group.order() // subgroup.order()
        if index > limit:
            raise IndexLimitError(
                f"index {index} exceeds the coset index limit {limit}")
        reps = [canonical_coset_representative(subgroup,
                                               Permutation.identity(group.degree))]
        position = {reps[0].images: 0}
        # reps doubles as the FIFO queue: discovery order numbers the cosets
        for rep in reps:
            for g in group.generators:
                c = canonical_coset_representative(subgroup, rep * g)
                if c.images not in position:
                    position[c.images] = len(reps)
                    reps.append(c)
        if len(reps) != index:
            raise StructureContradiction(
                f"coset enumeration found {len(reps)} cosets, expected {index}")
        self.group = group
        self.subgroup = subgroup
        self.representatives = tuple(reps)
        self.index = index
        self._position = position

    def position_of(self, x):
        """Index of the coset (subgroup)*x."""
        key = canonical_coset_representative(self.subgroup, x).images
        return self._position[key]


def coset_action(group, subgroup, limit=None):
    """Transitive action of the group on [G:L] by right multiplication.

    Asserted: the point stabilizer of the trivial coset is exactly L (every
    L generator fixes index 0 and the orbit-stabilizer count matches)."""
    space = CosetSpace(group, subgroup, limit)
    image = induced_action(
        group, space.representatives,
        lambda rep, g: canonical_coset_representative(space.subgroup, rep * g))
    if not image.image.is_transitive():
        raise StructureContradiction("coset action is not transitive")
    for g in subgroup.generators:
        if space.position_of(g) != 0:
            raise StructureContradiction(
                "subgroup generator moves the trivial coset")
    if space.index * subgroup.order() != group.order():
        raise StructureContradiction("index times subgroup order != group order")
    return image


class CosetGraph:
    """Coset graph data: the two coset spaces, the point neighborhoods, and
    the incidence structure on (points=[G:L], blocks=[G:R])."""

    def __init__(self, group, left, right, limit=None):
        self.space_points = CosetSpace(group, left, limit)
        self.space_blocks = CosetSpace(group, right, limit)
        lr_keys = _coset_orbit(left, right)
        blocks = []
        point_neighbors = [set() for _ in range(self.space_points.index)]
        for j, y in enumerate(self.space_blocks.representatives):
            y_inv = y.inverse()
            members = []
            for i, x in enumerate(self.space_points.representatives):
                key = canonical_coset_representative(left, x * y_inv).images
                if key in lr_keys:
                    members.append(i)
                    point_neighbors[i].add(j)
            blocks.append(members)
        if 0 not in blocks[0]:
            raise StructureContradiction(
                "the trivial cosets of L and R are not adjacent")
        self.group = group
        self.left = left
        self.right = right
        self.blocks = tuple(tuple(b) for b in blocks)
        self.point_neighbors = tuple(frozenset(s) for s in point_neighbors)
        self.structure = IncidenceStructure(
            v=self.space_points.index, blocks=[list(b) for b in blocks])

    @property
    def trivial(self):
        return all(len(b) == self.space_points.index for b in self.blocks)


def _coset_orbit(subgroup, acting, start=None):
    """Canonical representatives of the right cosets H*x*a for a in A, where
    H = subgroup, A = acting and x = start (the identity by default), keyed
    by their image tuples.  With x = 1, z lies in HA exactly when the key of
    H*z is one of these keys."""
    if start is None:
        start = Permutation.identity(subgroup.degree)
    start = canonical_coset_representative(subgroup, start)
    reps = {start.images: start}
    queue = [start]
    for rep in queue:
        for g in acting.generators:
            c = canonical_coset_representative(subgroup, rep * g)
            if c.images not in reps:
                reps[c.images] = c
                queue.append(c)
    return reps


def coset_graph_design(group, left, right, limit=None):
    """The incidence structure of Cos(G, L, R)."""
    return CosetGraph(group, left, right, limit).structure


def coset_graph_faithful(group, left, right, limit=None):
    """Whether the action on both coset spaces together is faithful, i.e.
    whether the intersection of the two subgroups is core-free."""
    points = coset_action(group, left, limit)
    blocks = coset_action(group, right, limit)
    offset = points.image.degree
    union_gens = [
        Permutation(tuple(p.images) + tuple(offset + j for j in q.images))
        for p, q in zip(points.image.generators, blocks.image.generators)]
    return GroupWithChain(tuple(union_gens)).order() == group.order()


def double_coset_lambda(group, left, right, g, _rl=None):
    """|RL n RLg| / |R|, counted in right R-cosets: RL is the union of the
    cosets R*l for l in L, so the count is the number of those cosets R*t
    with R*t*g again in RL.  For g in L this is the replication number."""
    rl = _coset_orbit(right, left) if _rl is None else _rl
    return sum(1 for t in rl.values()
               if canonical_coset_representative(right, t * g).images in rl)


@dataclass(frozen=True)
class CrosscheckResult:
    constant: bool
    value: int | None
    ratios: tuple
    graph_agrees: bool
    exhaustive: bool
    sample_count: int

    @property
    def ok(self):
        return self.constant and self.graph_agrees


def lambda_constancy_crosscheck(group, left, right, limit=None):
    """Check that |RL n RLg| / |R| is one constant over g outside L, and that
    each value equals the independently computed neighborhood intersection
    |N(a) n N(a^g)| in the coset graph.

    Both counts depend only on the double coset LgL, so one g per L-orbit on
    the nontrivial cosets of L covers every g outside L exactly; its value
    is weighted by the |orbit| * |L| elements it stands for.  No element is
    enumerated: `limit` bounds only the coset indices.
    """
    graph = CosetGraph(group, left, right, limit)
    if left.order() == group.order():
        # no element lies outside L; the constancy claim is vacuous
        return CrosscheckResult(constant=True, value=None, ratios=(),
                                graph_agrees=True, exhaustive=True,
                                sample_count=0)
    rl = _coset_orbit(right, left)
    neighbors = graph.point_neighbors
    base_neighbors = neighbors[0]
    if len(rl) != len(base_neighbors):
        raise StructureContradiction(
            "the R-cosets in RL do not match the degree of the trivial coset")
    space = graph.space_points
    seen = {space.representatives[0].images}
    ratios = {}
    graph_agrees = True
    for i, x in enumerate(space.representatives):
        if x.images in seen:
            continue
        orbit = _coset_orbit(left, left, x)
        seen.update(orbit)
        value = double_coset_lambda(group, left, right, x, _rl=rl)
        if len(base_neighbors & neighbors[i]) != value:
            graph_agrees = False
        ratios[value] = ratios.get(value, 0) + len(orbit) * left.order()
    constant = len(ratios) == 1
    value = next(iter(ratios)) if constant else None
    return CrosscheckResult(constant=constant, value=value,
                            ratios=tuple(sorted(ratios.items())),
                            graph_agrees=graph_agrees, exhaustive=True,
                            sample_count=group.order() - left.order())


def subgroup_intersection(left, right, limit=None):
    """L n R, by filtering the elements of the smaller subgroup through the
    membership test of the other."""
    small, large = (left, right) if left.order() <= right.order() else (right, left)
    common = [p for p in small.elements(limit) if large.contains(p)]
    non_identity = [p for p in common if not p.is_identity()]
    if not non_identity:
        return GroupWithChain.trivial(left.degree)
    return GroupWithChain(tuple(non_identity))


def is_trivial_factorization(group, left, right, limit=None):
    """True iff G = LR, i.e. |L| * |R| / |L n R| = |G| (complete bipartite
    coset graph)."""
    inter = subgroup_intersection(left, right, limit)
    return left.order() * right.order() == group.order() * inter.order()
