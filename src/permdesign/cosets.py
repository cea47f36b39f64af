"""Coset actions and coset graphs: the bipartite graph on [G:L] u [G:R]
with Lx ~ Ry iff the cosets meet, its incidence structure, and the
double-coset count |RL n RLg| / |R| that equals the pair count of the
corresponding design.

Cosets are identified by a canonical representative: the element of Lx
whose images of L's base are lexicographically least, found by walking
L's chain transversals in group.py (canonical_coset_representative), with
no backtrack search.  One breadth-first walk enumerates the cosets H*a of
a subgroup H for a in a group A, numbers them in the order it finds them,
and records where each of A's walk generators (the ones that grew its
chain, see group.py) sends each coset: one canonical representative per
(coset, generator) pair.  The walk depends only on H and A, so it is made
once per (H, A) and kept on H (_cosets), and each question about a
triple (G, L, R) reads the same walks: the coset spaces [G:L] and [G:R],
the L-cosets in LR and the R-cosets in RL.

A coset graph numbers only its points, [G:L]: g carries the block of R*y,
the L-cosets meeting it, to the block of R*y*g, so the blocks are the
orbit of block 0 (the L-cosets in LR), each repeated |G:R| / |orbit|
times.  Faithfulness depends only on the group: it is decided on the
smaller coset space when that one is faithful, walking the other only
when it is not, and on the disjoint union only when neither is.  Each
decision asks whether the walk generators' images generate a group of
order |G| (group.generates_order): a chain completed from random products
of those images, which stops once its order reaches |G| and is finished
deterministically when it does not, so the answer is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import index_limit
from .group import (ActionImage, GroupWithChain, MembershipError,
                    StructureContradiction, canonical_coset_representative,
                    generates_order, orbits_of)
from .incidence import IncidenceStructure
from .perm import DegreeMismatchError, Permutation, images_at


class SubgroupError(ValueError):
    """The claimed subgroup is not contained in the ambient group."""


class IndexLimitError(RuntimeError):
    """The coset space is larger than PERMDESIGN_INDEX_LIMIT."""


class CosetSpace:
    """The right cosets of a subgroup H of G, numbered as the walk over G's
    walk generators finds them (_cosets; the trivial coset is index 0),
    with canonical representatives, the walk's own position map, and as
    `action` the images of those generators on the coset indices.  It
    checks that H lies in G, the index limit and the coset count."""

    def __init__(self, group, subgroup):
        _check_subgroup(group, subgroup)
        index = _checked_index(group, subgroup)
        position, reps, tables = _cosets(subgroup, group)
        if len(reps) != index:
            raise StructureContradiction(
                f"coset enumeration found {len(reps)} cosets, expected {index}")
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


def _cosets(subgroup, acting):
    """_coset_orbit(H, A.walk_generators) for H = subgroup and A = acting:
    the cosets H*a for a in A, made once and kept on H, keyed by the
    generators it walks: a key that holds no reference to A.  Unchecked."""
    gens = acting.walk_generators
    return subgroup.derived(gens, lambda: _coset_orbit(subgroup, gens))


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
    action = ActionImage(source=group, image=image)
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
    """The coset graph of (G, L, R) on its point space [G:L] alone: block 0
    is the L-cosets in LR, and the blocks are its orbit under the walk
    generators' tables on the points, each held |G:R| / |orbit| times in
    the incidence structure (which sorts them).  R is checked against G
    and the index limit."""

    def __init__(self, group, left, right):
        self.space_points = points = CosetSpace(group, left)
        _check_subgroup(group, right)
        index = _checked_index(group, right)
        block = tuple(sorted(points._position[key]
                             for key in _cosets(left, right)[0]))
        if 0 not in block:
            raise StructureContradiction(
                "the trivial cosets of L and R are not adjacent")
        moves = tuple(g.images for g in points.action)
        blocks = [block]
        seen = {block}
        for members in blocks:
            read = images_at(members)
            for images in moves:
                image = tuple(sorted(read(images)))
                if image not in seen:
                    seen.add(image)
                    blocks.append(image)
        copies, rest = divmod(index, len(blocks))
        if rest:
            raise StructureContradiction(
                f"{len(blocks)} blocks do not divide the {index} cosets of R")
        self.structure = IncidenceStructure(points.index, blocks * copies)


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
    L n R is core-free; both subgroups and index limits are checked first.
    The kernel on the union lies in the kernel on each space: the image
    on the smaller space (L's on a tie) is decided first, the other space
    walked only when that is not faithful, and the union only when neither
    is, each by whether the image's generators generate a group of order
    |G| (generates_order)."""
    for sub in (left, right):
        _check_subgroup(group, sub)
        _checked_index(group, sub)
    order = group.order()
    tables = []
    for sub in sorted((left, right), key=lambda h: order // h.order()):
        tables.append(CosetSpace(group, sub).action)
        if generates_order(tables[-1], order):
            return True
    return generates_order(union_generators(*tables), order)


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
    return _rl_count(right, _cosets(right, left), g)


def _rl_count(right, rl, g):
    """|RL n RLg| / |R| from rl = _cosets(R, L), the walk of the R-cosets
    in RL; unchecked."""
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


def lambda_constancy_crosscheck(group, left, right):
    """Check that |RL n RLg| / |R| is one constant over g outside L, and that
    each value equals the independently computed neighborhood intersection
    |N(a) n N(a^g)| in the coset graph (see incidence_crosscheck).  The
    weights in the ratios sum to |G| - |L|.  L and R must lie in G, and the
    index limit applies to both coset spaces: the coset graph checks them."""
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
    rl = _cosets(right, left)
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
    points and the cosets its walk generators reach, rebuilt on the points
    from its generators and bounded by its order, which the rebuild must
    reach.  The walk visits at most |S| cosets, so the element limit bounds
    |S|."""
    small, large = (left, right) if left.order() <= right.order() else (right, left)
    small._check_enumerable()
    degree = small.degree
    tables = _cosets(large, small)[2]
    union = GroupWithChain(union_generators(small.walk_generators, tables),
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
    return len(_cosets(right, left)[0]) == index
