"""Incidence structures and 2-design verification: parameter identities,
t-design strength, duality, complement, and incidence-graph diameter."""

from __future__ import annotations

import warnings
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .group import StructureContradiction, check_index


class DesignError(ValueError):
    """Input fails a 2-design axiom; `code` identifies which one."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class IncidenceStructure:
    """Points 0..v-1 plus a canonical sequence of blocks (point tuples).

    Blocks are stored sorted, and the block list sorted lexicographically;
    repeated blocks are permitted (a sequence, not a set)."""

    __slots__ = ("v", "blocks", "_point_blocks")

    def __init__(self, v, blocks):
        if v < 1:
            raise DesignError("degenerate-v", "need at least one point")
        canon = []
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise DesignError("empty-block", "blocks must be nonempty")
            if len(set(b)) != len(b):
                raise DesignError("repeated-point",
                                  f"block {b} repeats a point")
            if b[0] < 0 or b[-1] >= v:
                raise DesignError("point-range",
                                  f"block {b} leaves the point range 0..{v - 1}")
            canon.append(b)
        if not canon:
            raise DesignError("no-blocks", "need at least one block")
        self.v = v
        self.blocks = tuple(sorted(canon))
        self._point_blocks = None

    @property
    def b(self):
        return len(self.blocks)

    def has_repeated_blocks(self):
        return len(set(self.blocks)) != len(self.blocks)

    def point_blocks(self):
        """The incidence index: for each point, the increasing indices of
        the blocks through it.  Built once."""
        if self._point_blocks is None:
            through = [[] for _ in range(self.v)]
            for j, block in enumerate(self.blocks):
                for p in block:
                    through[p].append(j)
            self._point_blocks = tuple(tuple(js) for js in through)
        return self._point_blocks

    def blocks_through(self, point):
        check_index("point", point, self.v)
        return self.point_blocks()[point]

    def is_trivial(self):
        """Every block incident with every point (complete bipartite graph)."""
        full = tuple(range(self.v))
        return all(block == full for block in self.blocks)

    def __eq__(self, other):
        return (isinstance(other, IncidenceStructure)
                and self.v == other.v and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.v, self.blocks))

    def __repr__(self):
        return f"IncidenceStructure(v={self.v}, b={self.b})"


@dataclass(frozen=True)
class DesignParameters:
    v: int
    b: int
    r: int
    k: int
    lam: int
    symmetric: bool

    def __post_init__(self):
        if self.v * self.r != self.b * self.k:
            raise StructureContradiction("vr = bk violated")
        if self.lam * (self.v - 1) != self.r * (self.k - 1):
            raise StructureContradiction("lambda(v-1) = r(k-1) violated")
        if self.b < self.v or self.r < self.k:
            raise StructureContradiction("Fisher inequality violated")
        if not self.lam < self.r:
            raise StructureContradiction("lambda < r violated")
        if self.symmetric != (self.b == self.v):
            raise StructureContradiction("symmetric flag inconsistent")


def verify_design(structure):
    """Accept iff all blocks share one size k and every point pair lies in
    the same number lambda >= 1 of blocks; returns the parameter set.

    The replication number is recomputed per point and its constancy,
    together with the standard identities, is asserted rather than assumed.
    """
    v = structure.v
    if v < 3:
        raise DesignError("degenerate-v", f"v={v} is below the minimum of 3")
    sizes = {len(block) for block in structure.blocks}
    if len(sizes) != 1:
        raise DesignError("block-size",
                          f"blocks have several sizes {sorted(sizes)}")
    k = sizes.pop()
    if k < 2:
        raise DesignError("degenerate-k", f"block size {k} is below 2")
    if k >= v:
        raise DesignError("trivial",
                          "every block is incident with every point")
    pair_counts = Counter()
    for block in structure.blocks:
        pair_counts.update(combinations(block, 2))
    expected_pairs = comb(v, 2)
    if len(pair_counts) != expected_pairs:
        missing = next(p for p in combinations(range(v), 2)
                       if p not in pair_counts)
        raise DesignError("uncovered-pair",
                          f"point pair {missing} lies in no block")
    lambdas = set(pair_counts.values())
    if len(lambdas) != 1:
        raise DesignError("pair-count",
                          f"pair counts are not constant: {sorted(lambdas)}")
    lam = lambdas.pop()
    replications = {len(js) for js in structure.point_blocks()}
    if len(replications) != 1:
        raise StructureContradiction(
            "constant k and lambda but non-constant replication number")
    r = replications.pop()
    b = structure.b
    return DesignParameters(v=v, b=b, r=r, k=k, lam=lam, symmetric=b == v)


def t_design_strength(structure):
    """Largest t <= k for which every t-subset of points lies in a constant
    positive number of blocks, plus the lambda_1..lambda_t sequence.

    The classical relation lambda_s * C(k-s, t-s) = lambda_t * C(v-s, t-s)
    is asserted on the returned sequence.
    """
    v = structure.v
    sizes = {len(block) for block in structure.blocks}
    if len(sizes) != 1:
        raise DesignError("block-size", "blocks have several sizes")
    k = sizes.pop()
    lambdas = []
    t = 1
    while t <= k:
        counts = Counter()
        for block in structure.blocks:
            for sub in combinations(block, t):
                counts[sub] += 1
        if len(counts) != comb(v, t):
            break
        values = set(counts.values())
        if len(values) != 1:
            break
        lambdas.append(values.pop())
        t += 1
    if not lambdas:
        raise DesignError("not-1-design",
                          "replication number is not constant")
    t_max = len(lambdas)
    lam_t = lambdas[-1]
    for s in range(1, t_max + 1):
        if lambdas[s - 1] * comb(k - s, t_max - s) != lam_t * comb(v - s, t_max - s):
            raise StructureContradiction("t-design parameter relation violated")
    return t_max, tuple(lambdas)


def dual(structure):
    """Swap the roles of points and blocks: dual point j is block j, and the
    dual block at original point p collects the blocks through p."""
    if structure.has_repeated_blocks():
        warnings.warn("dual of a structure with repeated blocks identifies "
                      "distinct dual points with equal neighborhoods",
                      stacklevel=2)
    return IncidenceStructure(v=structure.b, blocks=structure.point_blocks())


def complement(structure):
    """Replace every block by its complementary point set."""
    full = set(range(structure.v))
    new_blocks = []
    for block in structure.blocks:
        if len(block) == structure.v:
            raise DesignError("trivial", "cannot complement a full block")
        new_blocks.append(sorted(full - set(block)))
    return IncidenceStructure(v=structure.v, blocks=new_blocks)


def incidence_graph_diameter(structure, starts=None):
    """Exact diameter of the bipartite point/block graph (point p is vertex
    p, block j is vertex v + j), by BFS from each vertex of `starts`, every
    vertex by default.  Exact also when `starts` holds one vertex of each
    orbit of a group of automorphisms, since those preserve distances.
    Raises DesignError on a disconnected graph, ValueError on no starts or
    a start out of range."""
    v, b = structure.v, structure.b
    n = v + b
    starts = range(n) if starts is None else list(starts)
    if not starts:
        raise ValueError("no start vertex given")
    adj = ([[v + j for j in js] for js in structure.point_blocks()]
           + list(structure.blocks))
    diameter = 0
    for start in starts:
        check_index("start vertex", start, n)
        dist = [-1] * n
        dist[start] = 0
        queue = deque([start])
        far = 0
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    far = max(far, dist[y])
                    queue.append(y)
        if min(dist) < 0:
            raise DesignError("disconnected", "incidence graph is disconnected")
        diameter = max(diameter, far)
    return diameter
