"""Independent brute-force oracles used to cross-check the library: plain
closure enumeration, exhaustive partition search, block systems by a
union-find over joined pairs, the full subgroup lattice, direct pair
counting, double-coset counts and coset-graph adjacency from element
sets, and the geometry families from every shift and every multiple.  These
deliberately avoid the stabilizer-chain and builder code paths they are
checking."""

from itertools import combinations, product

from permdesign.geometry import index_vector, vector_index
from permdesign.gf import field
from permdesign.group import orbits_of
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


def block_cells_by_union_find(generators, degree, a, b):
    """Cells of the finest partition of 0..degree-1 that puts a and b in
    one cell and is invariant under the given permutations: join a and b,
    and for each joined pair (x, y) join x^g and y^g for every generator g.
    Cells are sorted tuples, in order of their smallest point."""
    label = list(range(degree))

    def root(x):
        while label[x] != x:
            x = label[x]
        return x

    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        rx, ry = root(x), root(y)
        if rx == ry:
            continue
        label[max(rx, ry)] = min(rx, ry)
        pending.extend((g.images[x], g.images[y]) for g in generators)
    cells = {}
    for x in range(degree):
        cells.setdefault(root(x), []).append(x)
    return tuple(tuple(c) for c in sorted(cells.values()))


def mulclose_perms(group):
    return [Permutation(t) for t in sorted(mulclose(group.generators))]


def all_subgroups(group):
    """Every subgroup, as a dict {frozenset of image tuples: generator list},
    grown one generator at a time from the trivial subgroup.  <H, x> is
    <H, hx> for every h in H, so one x per right coset Hx is tried."""
    elems = mulclose_perms(group)
    identity = tuple(range(group.degree))
    trivial = frozenset([identity])
    subgroups = {trivial: []}
    frontier = [(trivial, [])]
    while frontier:
        hset, gens = frontier.pop()
        tried = set(hset)
        for x in elems:
            if x.images in tried:
                continue
            tried |= {_compose(h, x.images) for h in hset}
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


_LATTICE_VERDICTS = {}


def quasiprimitive_by_lattice(group):
    """Every nontrivial normal subgroup transitive, via the full lattice.
    The lattice is the slowest oracle and several tests ask it about one
    group, often by different generators, so each verdict is kept, keyed by
    degree and element set."""
    key = (group.degree, frozenset(mulclose(group.generators)))
    if key not in _LATTICE_VERDICTS:
        _LATTICE_VERDICTS[key] = _quasiprimitive_by_lattice(group)
    return _LATTICE_VERDICTS[key]


def _quasiprimitive_by_lattice(group):
    """The orbit of 0 under a subgroup is the set of images of 0."""
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


def _compose(a, b):
    """Image tuple of a then b."""
    return tuple(b[i] for i in a)


def origin_blocks_are_subgroups(witness, blocks):
    """Points identified with the elements of a regular group (point p with
    the element sending 0 to p): whether every block through 0 is closed
    under the group's product, with every product of two of its elements
    formed in full.  False when the group is not regular."""
    group = mulclose(witness.generators)
    elements = {x[0]: x for x in group}
    if len(group) != len(elements) or len(elements) != witness.degree:
        return False
    for block in blocks:
        if 0 not in block:
            continue
        members = {elements[p] for p in block}
        for a in block:
            for c in block:
                if _compose(elements[a], elements[c]) not in members:
                    return False
    return True


def right_coset(subgroup_set, x):
    """The right coset H*x of a subgroup given as a set of image tuples."""
    return frozenset(_compose(h, x) for h in subgroup_set)


def right_cosets(subgroup_set, group_set):
    """Every right coset H*x for x in G, each formed once: an x already in
    a formed coset gives that coset again."""
    cosets = set()
    covered = set()
    for x in group_set:
        if x not in covered:
            coset = right_coset(subgroup_set, x)
            cosets.add(coset)
            covered |= coset
    return cosets


def coset_kernel(group, *subgroups):
    """The kernel of the action on the right cosets of all the subgroups
    together: the elements common to them whose every conjugate is too."""
    g_set = mulclose(group.generators)
    common = set.intersection(*(mulclose(h.generators) for h in subgroups))
    inverse = {x: tuple(sorted(range(len(x)), key=x.__getitem__))
               for x in g_set}
    return {h for h in common
            if all(_compose(_compose(inverse[x], h), x) in common
                   for x in g_set)}


def coset_graph_blocks(group, left, right):
    """The coset graph from element sets: each right coset Ry of R, mapped
    to the set of right cosets Lx of L that meet it.  Cosets are frozensets
    of image tuples."""
    g_set = mulclose(group.generators)
    l_set = mulclose(left.generators)
    r_set = mulclose(right.generators)
    l_cosets = right_cosets(l_set, g_set)
    r_cosets = right_cosets(r_set, g_set)
    return {ry: frozenset(lx for lx in l_cosets if lx & ry)
            for ry in r_cosets}


def pair_count(blocks, a, b):
    return sum(1 for blk in blocks if a in blk and b in blk)


def double_coset_ratios(group, left, right):
    """(ratios, graph_agrees) over every g in G minus L, from element sets.

    ratios is the sorted tuple of (|RL n RLg| / |R|, number of such g);
    graph_agrees says that every value equals |N(L) n N(Lg)| in the coset
    graph, whose cosets Lx and Ry are adjacent when they meet.

    RL n RLg is the set of x*g with x and x*g in RL.  Those x form a union
    of right R-cosets, so the count takes one x from each R-coset in RL."""
    g_set = mulclose(group.generators)
    l_set = mulclose(left.generators)
    r_set = mulclose(right.generators)
    rl = {_compose(r, l) for r in r_set for l in l_set}
    r_coset = {}
    for x in sorted(g_set):
        if x not in r_coset:
            for r in r_set:
                r_coset[_compose(r, x)] = x
    base = {r_coset[l] for l in l_set}
    if len(rl) != len(base) * len(r_set):
        raise AssertionError("RL is not a union of right R-cosets")
    ratios = {}
    graph_agrees = True
    for g in g_set - l_set:
        value = sum(1 for x in base if _compose(x, g) in rl)
        ratios[value] = ratios.get(value, 0) + 1
        if len(base & {r_coset[_compose(l, g)] for l in l_set}) != value:
            graph_agrees = False
    return tuple(sorted(ratios.items())), graph_agrees


def is_regular(group):
    return group.is_transitive() and group.order() == group.degree


def is_semiregular(group):
    """Every point stabilizer trivial: every orbit has the group's size."""
    return all(len(o) == group.order()
               for o in orbits_of(group.walk_generators, group.degree))


def flag_count(structure):
    return sum(len(block) for block in structure.blocks)


def field_product(a, b, q):
    """a * b in GF(q): the schoolbook product of the two digit vectors,
    reduced modulo the field's polynomial, or mod p for a prime q."""
    gf = field(q)
    p, e = gf.p, gf.e
    da, db = ([x // p ** i % p for i in range(e)] for x in (a, b))
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for i in range(2 * e - 2, e - 1, -1):  # x^i = x^(i-e) * x^e
        for j in range(e):
            prod[i - e + j] -= prod[i] * gf.modulus[j]
    return sum(c % p * p ** i for i, c in enumerate(prod[:e]))


def element_order(a, q):
    """The multiplicative order of a nonzero a, by repeated product."""
    n, x = 1, a
    while x != 1:
        x = field_product(x, a, q)
        n += 1
    return n


def all_vectors(d, q):
    return [index_vector(i, d, q) for i in range(q ** d)]


def symplectic_form(u, v, q):
    """The alternating form with hyperbolic pairs on coordinates
    (2j, 2j+1), from the field's arithmetic."""
    gf = field(q)
    total = 0
    for j in range(0, len(u), 2):
        total = gf.add(total, gf.mul(u[j], v[j + 1]))
        total = gf.sub(total, gf.mul(u[j + 1], v[j]))
    return total


def parallel_classes(structure, q, d):
    """Partition of an affine design's blocks into coset families of one
    subspace each: two blocks are parallel iff they are translates."""
    gf = field(q)
    classes = {}
    for j, block in enumerate(structure.blocks):
        base = index_vector(block[0], d, q)
        key = frozenset(
            vector_index(tuple(gf.sub(index_vector(p, d, q)[c], base[c])
                               for c in range(d)), q)
            for p in block)
        classes.setdefault(key, []).append(j)
    return sorted(classes.values())


def row_space(rows, q):
    """Every vector of the row space: each combination of the rows."""
    return {matrix_image(coeffs, rows, q)
            for coeffs in product(range(q), repeat=len(rows))}


def every_shift_cosets(matrices, d, q):
    """The cosets U + t of each row space U, formed from every shift t and
    kept once each as a frozenset; sorted point lists, per subspace in order
    of their first shift."""
    gf = field(q)
    blocks = []
    for mat in matrices:
        space = row_space(mat, q)
        seen = set()
        for t in all_vectors(d, q):
            coset = frozenset(
                vector_index(tuple(gf.add(a, b) for a, b in zip(u, t)), q)
                for u in space)
            if coset not in seen:
                seen.add(coset)
                blocks.append(sorted(coset))
    return blocks


def vector_images(d, q, image_of):
    """The image list of the permutation x -> image_of(x) of GF(q)^d."""
    return [vector_index(image_of(x), q) for x in all_vectors(d, q)]


def matrix_image(x, mat, q):
    """The row vector x times the matrix."""
    gf = field(q)
    out = (0,) * len(mat[0])
    for c, row in zip(x, mat):
        out = tuple(gf.add(a, gf.mul(c, b)) for a, b in zip(out, row))
    return out


def translation_images(d, q):
    """x -> x + e_j for each coordinate j."""
    gf = field(q)
    return [vector_images(d, q, lambda x, j=j: tuple(
        gf.add(a, 1 if c == j else 0) for c, a in enumerate(x)))
        for j in range(d)]


def transvection_images(m, q):
    """x -> x + lam*f(x, v)*v, with f from symplectic_form, for every
    nonzero v in index order and lam = 1, p, p^2, ...: the symplectic
    subdesign's generators before the translations."""
    gf = field(q)
    d = 2 * m
    out = []
    for v in all_vectors(d, q)[1:]:
        for j in range(gf.e):
            def image(x, v=v, lam=gf.p ** j):
                c = gf.mul(lam, symplectic_form(x, v, q))
                return tuple(gf.add(a, gf.mul(c, b)) for a, b in zip(x, v))
            out.append(vector_images(d, q, image))
    return out


def line_key(vec, q):
    """The smallest index among the nonzero multiples of a nonzero vector."""
    gf = field(q)
    return min(vector_index(tuple(gf.mul(c, x) for x in vec), q)
               for c in range(1, q))


def projective_points(dim, q):
    """The indices that are their own line key, in index order."""
    return [i for i in range(1, q ** dim)
            if line_key(index_vector(i, dim, q), q) == i]


def projective_blocks(matrices, dim, q):
    """Each row space as the sorted positions of its projective points."""
    position = {p: j for j, p in enumerate(projective_points(dim, q))}
    return [sorted({position[line_key(u, q)]
                    for u in row_space(mat, q) if any(u)})
            for mat in matrices]


def projective_matrix_images(mat, dim, q):
    """The permutation of the projective points induced by a matrix."""
    points = projective_points(dim, q)
    position = {p: j for j, p in enumerate(points)}
    return [position[line_key(matrix_image(index_vector(p, dim, q), mat, q),
                              q)]
            for p in points]
