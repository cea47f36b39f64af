"""Independent brute-force oracles used to cross-check the library: plain
closure enumeration, exhaustive partition search, the full subgroup lattice,
direct pair counting, and double-coset counts from element sets.  These deliberately avoid the stabilizer-chain
code paths they are checking."""

from itertools import combinations

from permdesign.perm import Permutation


def mulclose(perms):
    """All products of the given permutations, as a set of image tuples."""
    gen_images = [p.images for p in perms]
    n = len(gen_images[0])
    els = {tuple(range(n))}
    els.update(gen_images)
    frontier = list(els)
    while frontier:
        new = []
        for t in frontier:
            for g in gen_images:
                c = tuple(g[i] for i in t)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def partitions_into_cells(points, size):
    if not points:
        yield ()
        return
    first = points[0]
    rest = points[1:]
    for others in combinations(rest, size - 1):
        cell = (first,) + others
        remaining = tuple(p for p in rest if p not in others)
        for tail in partitions_into_cells(remaining, size):
            yield (cell,) + tail


def invariant_partition_exists(group, size):
    cells_gens = [g.images for g in group.generators]
    for partition in partitions_into_cells(tuple(range(group.degree)), size):
        cell_sets = {frozenset(c) for c in partition}
        if all(frozenset(g[x] for x in c) in cell_sets
               for g in cells_gens for c in partition):
            return True
    return False


def primitive_by_partitions(group):
    """Exhaustive search over all partitions into equal cells."""
    n = group.degree
    if len({g.images[0] for g in mulclose_perms(group)}) != n:
        return False
    for size in range(2, n):
        if n % size == 0 and invariant_partition_exists(group, size):
            return False
    return True


def mulclose_perms(group):
    return [Permutation(t) for t in sorted(mulclose(group.generators))]


def all_subgroups(group):
    """Every subgroup, as a dict {frozenset of image tuples: generator list},
    grown one generator at a time from the trivial subgroup."""
    elems = mulclose_perms(group)
    identity = tuple(range(group.degree))
    trivial = frozenset([identity])
    subgroups = {trivial: []}
    frontier = [(trivial, [])]
    while frontier:
        hset, gens = frontier.pop()
        for x in elems:
            if x.images in hset:
                continue
            new_gens = gens + [x]
            kset = frozenset(mulclose(new_gens))
            if kset not in subgroups:
                subgroups[kset] = new_gens
                frontier.append((kset, new_gens))
    return subgroups


def normal_subgroup_sets(group):
    out = []
    for hset in all_subgroups(group):
        normal = True
        for g in group.generators:
            ginv = g.inverse()
            for t in hset:
                conj = (ginv * Permutation(t) * g).images
                if conj not in hset:
                    normal = False
                    break
            if not normal:
                break
        if normal:
            out.append(hset)
    return out


def quasiprimitive_by_lattice(group):
    """Every nontrivial normal subgroup transitive, via the full lattice.
    The orbit of 0 under a subgroup is the set of images of 0."""
    n = group.degree
    if len({t[0] for t in mulclose(group.generators)}) != n:
        return False
    for hset in normal_subgroup_sets(group):
        if len(hset) > 1 and len({t[0] for t in hset}) != n:
            return False
    return True


def design_accepts(v, blocks):
    """Direct pair counting: the documented acceptance rule for 2-designs."""
    if v < 3 or not blocks:
        return False
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        return False
    k = sizes.pop()
    if k < 2 or k >= v:
        return False
    counts = {sum(1 for b in blocks if p in b and q in b)
              for p, q in combinations(range(v), 2)}
    return len(counts) == 1 and min(counts) >= 1


def pair_count(blocks, a, b):
    return sum(1 for blk in blocks if a in blk and b in blk)


def double_coset_ratios(group, left, right):
    """(ratios, graph_agrees) over every g in G minus L, from element sets.

    ratios is the sorted tuple of (|RL n RLg| / |R|, number of such g);
    graph_agrees says that every value equals |N(L) n N(Lg)| in the coset
    graph, whose cosets Lx and Ry are adjacent when they meet."""
    def compose(a, b):  # a then b
        return tuple(b[i] for i in a)

    g_set = mulclose(group.generators)
    l_set = mulclose(left.generators)
    r_set = mulclose(right.generators)
    rl = {compose(r, l) for r in r_set for l in l_set}
    r_coset = {}
    for x in sorted(g_set):
        if x not in r_coset:
            for r in r_set:
                r_coset[compose(r, x)] = x
    base = {r_coset[l] for l in l_set}
    ratios = {}
    graph_agrees = True
    for g in g_set - l_set:
        hits = sum(1 for x in rl if compose(x, g) in rl)
        if hits % len(r_set):
            raise AssertionError("|RL n RLg| is not a multiple of |R|")
        value = hits // len(r_set)
        ratios[value] = ratios.get(value, 0) + 1
        if len(base & {r_coset[compose(l, g)] for l in l_set}) != value:
            graph_agrees = False
    return tuple(sorted(ratios.items())), graph_agrees
