"""Coset actions and coset graphs: the bipartite graph on [G:L] u [G:R]
with Lx ~ Ry iff the cosets meet, its incidence structure, and the
double-coset count |RL n RLg| / |R| that equals the pair count of the
corresponding design.

Cosets are identified by a canonical representative: the element of Lx
whose base-image sequence under L's stabilizer chain is lexicographically
minimal, found by walking the chain transversals.  This gives constant-time
coset keys without backtrack searches.  One breadth-first walk enumerates
a coset space, numbers the cosets in the order it finds them, and records
where each generator sends each coset; the coset action, the coset graph
and the faithfulness check read that table.

The walk costs one canonical representative per (coset, generator) pair,
so it runs over the group's walk generators, the ones that grew its chain
(see group.py); they generate G, so they reach every coset.  The walk
depends only on H and on G's chain, so it is made once per (G, H) and kept
on H, keyed by that chain (_walk); every reader still checks H against G,
the index limit and the coset count.  Both coset spaces of a coset graph
are walked over the same generators, so their tables pair up.
Faithfulness depends only on the group: it reads the walk generators'
tables and is decided on one coset space when that one is faithful, on the
disjoint union of both only when neither is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import index_limit
from .group import (ActionImage, GroupWithChain, MembershipError,
                    StructureContradiction, orbits_of)
from .incidence import IncidenceStructure
from .perm import DegreeMismatchError, Permutation


class SubgroupError(ValueError):
    """The claimed subgroup is not contained in the ambient group."""


class IndexLimitError(RuntimeError):
    """The coset space is larger than PERMDESIGN_INDEX_LIMIT."""


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
    """The right cosets of a subgroup, numbered as the walk over G's walk
    generators finds them (_walk; the trivial coset is index 0), with
    canonical representatives, the walk's own position map, and as
    `action` the images of those generators on the coset indices."""

    def __init__(self, group, subgroup):
        position, reps, tables = _walk(group, subgroup)
        self.group = group
        self.subgroup = subgroup
        self.representatives = reps
        self.index = len(reps)
        self.action = tables
        self._position = position

    def position_of(self, x):
        """Index of the coset (subgroup)*x, for x in the group."""
        if x.degree != self.group.degree:
            raise DegreeMismatchError(
                f"permutation degree {x.degree} != {self.group.degree}")
        key = canonical_coset_representative(self.subgroup, x).images
        i = self._position.get(key)
        if i is None:
            raise MembershipError(f"{x} is not in the group")
        return i


def _walk(group, subgroup):
    """_coset_orbit(subgroup, group.walk_generators): the position map, the
    representatives of the cosets of H in G and the images of G's walk
    generators on them.  The walk reads only H and G's chain, so it is made
    once per (G's chain, H) and kept on H.  Every call checks that H lies
    in G, the index limit, and that the walk found |G:H| cosets."""
    _check_subgroup(group, subgroup)
    index = _checked_index(group, subgroup)
    if subgroup._walks is None:
        subgroup._walks = {}
    walk = subgroup._walks.get(group._chain)
    if walk is None:
        walk = subgroup._walks[group._chain] = _coset_orbit(
            subgroup, group.walk_generators)
    if len(walk[1]) != index:
        raise StructureContradiction(
            f"coset enumeration found {len(walk[1])} cosets, expected {index}")
    return walk


def _check_subgroup(group, subgroup):
    if subgroup.degree != group.degree:
        raise SubgroupError("subgroup degree mismatch")
    if not subgroup.is_subgroup_of(group):
        raise SubgroupError("given generators do not lie in the group")


def _checked_index(group, subgroup):
    """|G:H|, refused beyond the index limit."""
    limit = index_limit()
    index = group.order() // subgroup.order()
    if index > limit:
        raise IndexLimitError(
            f"index {index} exceeds the coset index limit {limit} "
            "(PERMDESIGN_INDEX_LIMIT)")
    return index


def coset_action(group, subgroup):
    """Transitive action of the group on [G:L] by right multiplication, the
    cosets numbered as CosetSpace numbers them; the image is generated by
    the images of G's walk generators.

    Asserted: the point stabilizer of the trivial coset is exactly L (every
    L generator fixes index 0 and the orbit-stabilizer count matches)."""
    space = CosetSpace(group, subgroup)
    image = GroupWithChain(space.action, order_bound=group.order())
    action = ActionImage(source=group, image=image,
                         faithful=image.order() == group.order())
    if not image.is_transitive():
        raise StructureContradiction("coset action is not transitive")
    for g in subgroup.generators:
        if space.position_of(g) != 0:
            raise StructureContradiction(
                "subgroup generator moves the trivial coset")
    if space.index * subgroup.order() != group.order():
        raise StructureContradiction("index times subgroup order != group order")
    return action


class CosetGraph:
    """Coset graph data: the point space [G:L], the blocks in the order of
    R's walk (_walk), and the incidence structure on (points=[G:L],
    blocks=[G:R]) that the lambda crosscheck reads; it sorts the blocks.
    Block 0 is the L-cosets inside LR; the cosets meeting R*y*g are those
    meeting R*y moved by g, so each walk generator's tables on the two
    walks, over the same generators, carry block 0 to every other block."""

    def __init__(self, group, left, right):
        self.space_points = CosetSpace(group, left)
        _, reps, tables = _walk(group, right)
        moves = tuple((p.images, t.images)
                      for p, t in zip(self.space_points.action, tables))
        position = self.space_points._position
        blocks = [None] * len(reps)
        blocks[0] = sorted(position[key] for key in
                           _coset_orbit(left, right.generators)[0])
        for j, members in enumerate(blocks):
            for on_points, on_blocks in moves:
                target = on_blocks[j]
                if blocks[target] is None:
                    blocks[target] = sorted(on_points[i] for i in members)
        if 0 not in blocks[0]:
            raise StructureContradiction(
                "the trivial cosets of L and R are not adjacent")
        self.blocks = tuple(tuple(b) for b in blocks)
        self.structure = IncidenceStructure(
            v=self.space_points.index, blocks=[list(b) for b in blocks])


def _coset_orbit(subgroup, generators):
    """One breadth-first walk over the right cosets H*a for a in A, where
    H = subgroup and A is the group the sequence `generators` generates.
    Returns a dict from the canonical representatives' image tuples to
    their order of discovery, the representatives in that order, and the
    images of the generators on the cosets.  z is in HA iff H*z's key is."""
    start = canonical_coset_representative(
        subgroup, Permutation.identity(subgroup.degree))
    position = {start.images: 0}
    reps = [start]
    table = [[] for _ in generators]
    for rep in reps:
        for g, row in zip(generators, table):
            c = canonical_coset_representative(subgroup, rep * g)
            i = position.get(c.images)
            if i is None:
                i = position[c.images] = len(reps)
                reps.append(c)
            row.append(i)
    return position, tuple(reps), tuple(Permutation(row) for row in table)


def coset_graph_design(group, left, right):
    """The incidence structure of Cos(G, L, R)."""
    return CosetGraph(group, left, right).structure


def coset_graph_faithful(group, left, right):
    """Whether G is faithful on both coset spaces together, i.e. whether
    L n R is core-free, read off the walk generators' tables of the two
    walks a CosetSpace reads (_walk), with no coset space built.  The kernel
    on the union lies in the kernel on each space: the image chain on the
    smaller space is built first, then on the other, and the union's only
    when neither has order |G|, each a plain chain bounded by |G|."""
    first, second = _walk(group, left)[2], _walk(group, right)[2]
    order = group.order()
    if second[0].degree < first[0].degree:
        first, second = second, first
    if any(GroupWithChain(images, order_bound=order).order() == order
           for images in (first, second)):
        return True
    union = GroupWithChain(union_generators(first, second), order_bound=order)
    return union.order() == order


def union_generators(first, second):
    """Aligned generators of two actions of one group, combined into its
    action on the disjoint union, the second domain shifted past the first."""
    offset = first[0].degree
    return tuple(Permutation(p.images + tuple(offset + j for j in q.images))
                 for p, q in zip(first, second))


def double_coset_lambda(group, left, right, g):
    """|RL n RLg| / |R|, counted in right R-cosets: RL is the union of the
    cosets R*l for l in L, so the count is the number of those cosets R*t
    with R*t*g again in RL.  For g in L this is the replication number.
    L and R must lie in G, and g too."""
    _check_subgroup(group, left)
    _check_subgroup(group, right)
    if not group.contains(g):
        raise MembershipError(f"{g} is not in the group")
    return _rl_count(right, _coset_orbit(right, left.generators), g)


def _rl_count(right, rl, g):
    """|RL n RLg| / |R| from rl = _coset_orbit(R, L.generators),
    unchecked."""
    position, reps, _ = rl
    return sum(1 for t in reps
               if canonical_coset_representative(right, t * g).images in position)


@dataclass(frozen=True)
class CrosscheckResult:
    constant: bool
    value: int | None
    ratios: tuple
    graph_agrees: bool

    @property
    def ok(self):
        return self.constant and self.graph_agrees


def lambda_constancy_crosscheck(group, left, right, *, graph=None):
    """Check that |RL n RLg| / |R| is one constant over g outside L, and that
    each value equals the independently computed neighborhood intersection
    |N(a) n N(a^g)| in the coset graph (see incidence_crosscheck).  The
    weights in the ratios sum to |G| - |L|.  L and R must lie in G; the
    index limit applies to both coset spaces.

    Without `graph`, the coset graph of (G, L, R) is built; a caller that
    has built it passes it as `graph`, as `permdesign coset` does.
    """
    _check_subgroup(group, left)
    _check_subgroup(group, right)
    if graph is None:
        graph = CosetGraph(group, left, right)
    space = graph.space_points
    reps = space.representatives
    moves = [Permutation(space.position_of(x * h) for x in reps)
             for h in left.walk_generators]
    return incidence_crosscheck(left, right, graph.structure, 0, moves,
                                reps.__getitem__)


def incidence_crosscheck(left, right, structure, base, moves, element_of):
    """|RL n RLg| / |R| against the blocks through both L and L*g of an
    incidence structure whose point p is the L-coset of element_of(p), the
    point `base` being L itself, on the block R*y iff the cosets meet.
    `moves` are the images on the points of generators of L, acting on the
    cosets by right multiplication.  Both counts depend only on LgL, so one
    point per L-orbit on the other points, read off `moves`, covers every
    g outside L, weighted by the |orbit| * |L| elements it stands for; an
    element of its coset is formed for that point alone.  No element is
    enumerated; L, R unchecked."""
    point_blocks = structure.point_blocks()
    base_blocks = set(point_blocks[base])
    rl = _coset_orbit(right, left.generators)
    if len(rl[0]) != len(base_blocks):
        raise StructureContradiction(
            "the R-cosets in RL do not match the degree of the trivial coset")
    ratios = {}
    graph_agrees = True
    for orbit in orbits_of(moves, structure.v):
        if base in orbit:
            continue
        p = min(orbit)
        value = _rl_count(right, rl, element_of(p))
        if len(base_blocks.intersection(point_blocks[p])) != value:
            graph_agrees = False
        ratios[value] = ratios.get(value, 0) + len(orbit) * left.order()
    constant = len(ratios) <= 1  # vacuous when L = G: no g lies outside L
    value = next(iter(ratios), None) if constant else None
    return CrosscheckResult(constant=constant, value=value,
                            ratios=tuple(sorted(ratios.items())),
                            graph_agrees=graph_agrees)


def subgroup_intersection(left, right):
    """L n R, the stabilizer of the trivial coset in the smaller subgroup S
    acting on the cosets of the other: the tail of one chain of S on its
    points and the cosets its walk reaches, rebuilt on the points from its
    generators and bounded by its order, which the rebuild must reach.
    The walk visits at most |S| cosets, so the element limit bounds |S|."""
    small, large = (left, right) if left.order() <= right.order() else (right, left)
    small._check_enumerable()
    degree = small.degree
    tables = _coset_orbit(large, small.generators)[2]
    union = GroupWithChain(union_generators(small.generators, tables),
                           (degree,), small.order())
    tail = union.point_stabilizer(degree)
    common = GroupWithChain(
        (Permutation(g.images[:degree]) for g in tail.generators),
        order_bound=tail.order())
    if common.order() != tail.order():
        raise StructureContradiction("action not faithful on points")
    return common


def is_trivial_factorization(group, left, right):
    """True iff G = LR (complete bipartite coset graph), i.e. the R-cosets
    inside RL are all |G:R| of them.  L and R must lie in G.  The index
    limit bounds |G:R|."""
    _check_subgroup(group, left)
    _check_subgroup(group, right)
    index = _checked_index(group, right)
    return len(_coset_orbit(right, left.generators)[0]) == index
