"""Chains built on the points of actions on point sets (group.set_action)
and of the points with the sets (group.set_stabilizer).  A block action's
chain, completed from random elements, is checked as a base and strong
generating set of the plain build at its base (conftest.assert_bsgs); the
other chains against plain builds of the same generators, base hint and
order bound, and against the plain chain of the union of the points and
the sets."""

import operator
import random

import pytest

from bruteforce import mulclose
from conftest import (assert_bsgs, design_union, full_levels, group,
                      orbit_design, relabelled, sifted)
from permdesign import group as chains
from permdesign import perm as perms
from permdesign.analyzer import analyze
from permdesign.corpus import bundled_corpus
from permdesign.designgroup import DesignAction
from permdesign.geometry import build_PG, build_symplectic_subdesign
from permdesign.group import GroupWithChain, _build_chain, _Chain
from permdesign.incidence import IncidenceStructure
from permdesign.perm import Permutation


def design_cases():
    cases = [(inst.name, inst.structure, inst.group)
             for inst in bundled_corpus()]
    cases.append(("symplectic-2-3", *build_symplectic_subdesign(2, 3)))
    cases.append(("pg-4-2-1", *build_PG(4, 2, 1)))
    return cases


def set_recorder(monkeypatch, alone):
    """(degree, generators, base hint, order bound, point sets, source of
    random elements, chain) of every chain built from here on on point
    sets: on the sets alone, or on the points and the sets."""
    builds = []
    build = chains._build_chain

    def recording(degree, generators, base_hint=(), order_bound=None,
                  sets=None, source=None):
        chain = build(degree, generators, base_hint, order_bound, sets,
                      source)
        if sets is not None and (degree == len(sets.sets)) == alone:
            builds.append((degree, tuple(generators), tuple(base_hint),
                           order_bound, sets.sets, source, chain))
        return chain
    monkeypatch.setattr(chains, "_build_chain", recording)
    return builds


@pytest.fixture
def set_builds(monkeypatch):
    return set_recorder(monkeypatch, alone=True)


@pytest.fixture
def stabilizer_builds(monkeypatch):
    return set_recorder(monkeypatch, alone=False)


def read_recorder(monkeypatch):
    """(chain on the sets alone, its read-out on the set indices) for every
    such chain read out from here on."""
    pairs = []
    read = _Chain.read

    def recording(self):
        chain = read(self)
        pairs.append((self, chain))
        return chain
    monkeypatch.setattr(_Chain, "read", recording)
    return pairs


@pytest.fixture
def read_outs(monkeypatch):
    return read_recorder(monkeypatch)


def eager_read_out(chain):
    """The transversals of a chain on the sets alone, read on the set
    indices all at once: each element its BFS parent's times the set image
    of the generator that reached it, in insertion order."""
    out = []
    for level in chain.levels:
        orbit = {level.base: Permutation.identity(chain.degree)}
        for d, (c, i) in level.parents.items():
            orbit[d] = orbit[c] * level.images[i]
        out.append([(c, u.images) for c, u in orbit.items()])
    return out


def assert_read_on_demand(monkeypatch, pairs):
    """No read-out has formed a transversal yet.  The first read of each
    level's orbit forms the eager read-out's transversal, element for
    element and in insertion order, and a second read forms no product."""
    assert pairs
    for chain, read in pairs:
        assert all(level._transversal is None for level in read.levels)
        formed = [level.orbit for level in read.levels]
        assert [[(c, u.images) for c, u in orbit.items()]
                for orbit in formed] == eager_read_out(chain)
        products = []
        real = operator.itemgetter

        def counting(*items):
            products.append(1)
            return real(*items)
        with monkeypatch.context() as m:
            m.setattr(perms, "itemgetter", counting)
            again = [level.orbit for level in read.levels]
        assert products == []
        assert all(x is y for x, y in zip(again, formed))


def assert_union_tails(action, minima, builds):
    """The block stabilizers of `minima`, built on the points, against the
    plain union build at each block's vertex: each recorded chain of the
    points and the blocks equals it level by level, read as the union's,
    and G_Bj equals its tail cut to the points level by level, generators
    included."""
    v = action.structure.v
    assert len(builds) == len(minima)
    for j, (_, gens, hint, _, _, _, chain) in zip(minima, builds):
        assert hint == (v + j,) and gens == action.group.walk_generators
        union = design_union(action.group, action.structure, j)
        assert full_levels(chain) == full_levels(union._chain), j
        tail = union.point_stabilizer(v + j)
        stabilizer = action.block_stabilizer(j)
        assert full_levels(stabilizer._chain) == [
            (base, [g[:v] for g in strong], points, [u[:v] for u in orbit],
             checked)
            for base, strong, points, orbit, checked in full_levels(
                tail._chain)], j
        assert ([g.images for g in stabilizer.generators]
                == [g.images[:v] for g in tail.generators]), j


def block_orbit_minima(action):
    image = action.block_action.image
    return [min(o) for o in chains.orbits_of(image.walk_generators,
                                             image.degree)]


def test_design_union_chains_equal_plain_builds(stabilizer_builds):
    for seed, (name, structure, grp) in enumerate(design_cases()):
        structure, grp = relabelled(structure, grp, seed)
        action = DesignAction(grp, structure)
        minima = block_orbit_minima(action)
        builds = len(stabilizer_builds)
        for j in minima:
            action.local_block_action(j)
        assert_union_tails(action, minima, stabilizer_builds[builds:])


def set_images(sets, g):
    """g's action on the sets by index, from sorted image tuples."""
    index = {tuple(s): j for j, s in enumerate(sets)}
    return Permutation([index[tuple(sorted(g.images[p] for p in s))]
                        for s in sets])


def assert_plain_images(builds):
    """Each recorded chain built without random elements equals the plain
    build of its generators' set images.  One completed from random
    elements of a group is a base and strong generating set of the plain
    build at its base (conftest.assert_bsgs), its walk generators generate
    it, and its source is the group of the given generators."""
    assert builds
    for degree, gens, hint, bound, sets, source, chain in builds:
        assert degree == len(sets)
        images = [set_images(sets, g) for g in gens]
        if source is None:
            plain = _build_chain(degree, images, hint, bound)
            assert full_levels(chain) == full_levels(plain)
            assert ([g.images for g in chain.grown]
                    == [g.images for g in plain.grown])
            assert sifted(chain) == sifted(plain)
            continue
        assert gens == source.walk_generators and bound == source.order()
        base = tuple(level.base for level in chain.levels)
        assert_bsgs(chain, _build_chain(degree, images, base, bound))
        walk = chain.grown or [Permutation.identity(degree)]
        assert GroupWithChain(walk).order() == chain.order()


def test_design_block_chains_equal_plain_builds(monkeypatch, set_builds,
                                               read_outs):
    """Each design's block action: its image's generators are the set
    images of the given generators, formed on first read, its transversals
    are read on demand, and its chain is checked by assert_plain_images."""
    for seed, (name, structure, grp) in enumerate(design_cases()):
        structure, grp = relabelled(structure, grp, seed)
        image = DesignAction(grp, structure).block_action.image
        assert callable(image._generators), name  # not formed until read
        assert image.generators == tuple(set_images(structure.blocks, g)
                                         for g in grp.generators), name
    assert len(set_builds) == len(read_outs) == len(design_cases())
    assert_read_on_demand(monkeypatch, read_outs)
    assert_plain_images(set_builds)


def test_random_orbit_block_chains_equal_plain_builds(monkeypatch,
                                                      finishes):
    """Orbit designs of random groups on at most 8 points, from random
    permutations and random subgroups of imprimitive groups, where a
    block made of whole cells is fixed by every element moving points
    only within cells: some block actions are not faithful, and their
    image order is |G| over the kernel's.  Random elements complete a
    faithful block action's chain at |G|; an unfaithful one's is finished
    by the deterministic procedure below |G|.  Each block action is built
    again from all given generators at a random first base block, and
    each block-orbit minimum's stabilizer is checked against the union."""
    set_builds = set_recorder(monkeypatch, alone=True)
    stabilizers = set_recorder(monkeypatch, alone=False)
    read_outs = read_recorder(monkeypatch)
    rng = random.Random(8128)
    ambients = (group(6, "(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"),   # S3 wr S2
                group(8, "(1 2)", "(1 3 5 7)(2 4 6 8)"),           # S2 wr S4
                group(8, "(1 2 3 4 5 6 7)", "(1 2)(3 6)",
                      "(1 8)(2 4)(3 5)(6 7)"))                     # PGL(2,7)
    designs = unfaithful = 0
    while designs < 300:
        if designs % 2:
            ambient = ambients[rng.randrange(len(ambients))]
            grp = GroupWithChain(tuple(ambient.random_element(rng)
                                       for _ in range(rng.randint(1, 3))))
        else:
            degree = rng.randrange(2, 9)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(degree))
                rng.shuffle(images)
                gens.append(Permutation(images))
            grp = GroupWithChain(gens)
        if grp.order() > 2000:
            continue
        v = grp.degree
        structure = orbit_design(grp, rng.sample(range(v),
                                                 rng.randrange(1, v)))
        start = len(finishes)
        action = DesignAction(grp, structure)
        elements = mulclose(grp.generators)
        kernel = [x for x in elements
                  if all(tuple(sorted(x[p] for p in blk)) == blk
                         for blk in structure.blocks)]
        image = action.block_action.image
        assert image.order() * len(kernel) == len(elements)
        assert action.block_action.faithful == (len(kernel) == 1)
        [(entered, bound)] = finishes[start:]
        assert bound == grp.order()
        assert (entered == bound) == (len(kernel) == 1)
        assert entered <= image.order()
        unfaithful += len(kernel) > 1
        designs += 1
        b = structure.b
        assert chains._build_chain(
            b, grp.generators, (rng.randrange(b),), grp.order(),
            sets=action._blocks).order() == image.order()
        builds = len(stabilizers)
        minima = block_orbit_minima(action)
        for j in minima:
            action.local_block_action(j)
        assert_union_tails(action, minima, stabilizers[builds:])
    assert len(set_builds) == len(read_outs) == 2 * designs
    assert unfaithful >= 10
    assert_read_on_demand(monkeypatch, read_outs)
    assert_plain_images(set_builds)


def two_orbit_structure(grp, first, second):
    """The blocks of two orbit designs of grp together: not block-
    transitive, so the second orbit's block is not block 0."""
    blocks = (orbit_design(grp, first).blocks
              + orbit_design(grp, second).blocks)
    return IncidenceStructure(grp.degree, blocks)


def test_stabilizer_rebuilds_and_tails_equal_plain_builds(chain_builds,
                                                          stabilizer_builds):
    cases = [
        (group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"), (0, 1, 3), (0, 1, 2)),
        (group(6, "(1 2)", "(1 2 3 4 5 6)"), (0, 1), (0, 1, 2)),
        (group(8, "(1 2 3 4 5 6 7 8)", "(1 3)(5 7)"), (0, 1), (0, 2)),
    ]
    for grp, first, second in cases:
        structure = two_orbit_structure(grp, first, second)
        action = DesignAction(grp, structure)
        v = structure.v
        minima = block_orbit_minima(action)
        assert len(minima) == 2 and minima[1] > 0
        builds = len(stabilizer_builds)
        for j in minima:
            action.local_block_action(j)
        assert_union_tails(action, minima, stabilizer_builds[builds:])
        # the plain union's tail below block 0's vertex is kept, and a
        # rebuild of it at a point that is not its first base point
        union = design_union(grp, structure)
        union.point_stabilizer(v + minima[1])
        tail = union.point_stabilizer(v)
        assert tail is union.point_stabilizer(v)
        moved = [p for p in range(v)
                 if p != tail.base()[0] and len(tail.orbit(p)) > 1]
        tail.point_stabilizer(moved[0])
        # the union chain at block 0's vertex, the rebuild at the second
        # orbit's vertex, and the rebuild of the tail
        hints = [args[2] for args in chain_builds[-3:]]
        assert hints == [(v,), (v + minima[1],), (moved[0],)]


def test_design_action_forms_no_product_past_the_points(monkeypatch):
    """No product of degree v + b while the design action and the block
    stabilizer of every block-orbit minimum are built, on the relabelled
    symplectic design over GF(3) and on a design with two block orbits:
    the chain of the points and the blocks keeps them on the points."""
    grp = group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)")
    cases = [(*relabelled(*build_symplectic_subdesign(2, 3), 1), 1),
             (two_orbit_structure(grp, (0, 1, 3), (0, 1, 2)), grp, 2)]
    real = operator.itemgetter
    real_encoding = perms.encoding
    for structure, g, orbits in cases:
        degree = structure.v + structure.b
        products = []

        def counting(*items):
            if len(items) == degree:
                products.append(1)
            return real(*items)

        def encoding(n):  # a chain sifting elements of n points
            if n == degree:
                products.append(1)
            return real_encoding(n)
        with monkeypatch.context() as m:
            m.setattr(perms, "itemgetter", counting)
            m.setattr(chains, "encoding", encoding)
            action = DesignAction(g, structure)
            minima = block_orbit_minima(action)
            for j in minima:
                action.local_block_action(j)
        assert len(minima) == orbits and products == []


def test_analyze_forms_no_product_of_degree_b(monkeypatch, read_outs):
    """analyze on the relabelled symplectic design over GF(3) forms no
    product of degree b, and no level of the block action's read-out has
    formed its transversal afterwards: nothing there reads one of its
    elements."""
    structure, grp = relabelled(*build_symplectic_subdesign(2, 3), 1)
    b = structure.b
    products = []
    real = operator.itemgetter

    def counting(*items):
        if len(items) == b:
            products.append(1)
        return real(*items)
    assert b > perms.TABLE_SIZE  # each product of degree b is an itemgetter
    with monkeypatch.context() as m:
        m.setattr(perms, "itemgetter", counting)
        report = analyze(grp, structure)
    assert report.exit_code() == 0 and products == []
    assert read_outs and all(read.degree == b for _, read in read_outs)
    assert all(level._transversal is None
               for _, read in read_outs for level in read.levels)
