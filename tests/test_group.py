import hashlib
import os
import random
import subprocess
import sys

import pytest

from bruteforce import (breadth_first_transversal, is_semiregular,
                        least_in_right_coset, mulclose)
from conftest import (a5_on_ordered_pairs, assert_bsgs, design_union,
                      full_levels, group, perm, relabelled, sifted, skipped)
from permdesign import group as chains
from permdesign.analysis import is_quasiprimitive
from permdesign.analyzer import analyze
from permdesign.corpus import bundled_corpus
from permdesign.cosets import coset_action
from permdesign.designgroup import DesignAction
from permdesign.geometry import build_symplectic_subdesign
from permdesign.group import (ActionClosureError, EnumerationLimitError,
                              GroupWithChain, MembershipError, SetAction,
                              StructureContradiction, _build_chain, _Chain,
                              _IDLE_SIFTS, canonical_coset_representative,
                              class_closures, generates_order,
                              induced_action,
                              normal_closure, orbit_of, orbits_of,
                              prime_order_class_representatives, set_action,
                              set_stabilizer)
from permdesign.perm import TABLE_SIZE, Permutation


def test_alternating_7_order(a7):
    assert a7.order() == 2520  # 7!/2


def test_frobenius_21_order_vs_closure(frobenius21):
    assert frobenius21.order() == 21
    assert len(mulclose(frobenius21.generators)) == 21


def test_trivial_group():
    g = GroupWithChain((Permutation.identity(4),))
    assert g.order() == 1
    assert g.contains(Permutation.identity(4))
    assert not g.contains(perm("(1 2)", 4))


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        GroupWithChain(())


def test_generator_degree_mismatch():
    with pytest.raises(ValueError):
        GroupWithChain((perm("(1 2)", 3), perm("(1 2)", 4)))


# deterministic construction: same generators, same chain
def test_chain_is_deterministic(a7):
    again = group(7, "(1 2 3)", "(1 2 3 4 5 6 7)")
    assert again.base() == a7.base()
    assert [len(l.orbit) for l in again._chain.levels] == \
           [len(l.orbit) for l in a7._chain.levels]


def test_transporter_sends_a_to_p_on_every_corpus_group(corpus_instances):
    """transporter(a)(p) is an element of the group sending a to p, for
    every pair of points of the first basic orbit, which is the orbit of
    the first base point."""
    for inst in corpus_instances:
        g = inst.group
        orbit = g.first_basic_orbit()
        assert set(orbit) == g.orbit(g.base()[0]), inst.name
        for a in orbit:
            send = g.transporter(a)
            for p in orbit:
                assert send(p).images[a] == p, inst.name
            assert g.contains(send(orbit[-1])), inst.name


def test_first_basic_orbit_is_in_element_order(s4, frobenius21, a7):
    """iter_elements runs through the first basic orbit in the order
    first_basic_orbit gives, one block of |G_b0| elements per point."""
    for g in (s4, frobenius21, a7):
        b0 = g.base()[0]
        step = g.order() // len(g.first_basic_orbit())
        assert tuple(x.images[b0] for x in list(g.iter_elements())[::step]) \
            == g.first_basic_orbit()
    assert GroupWithChain.trivial(3).first_basic_orbit() == ()


CLOSURE_CASES = [
    ("s4", 4, ("(1 2)", "(1 2 3 4)"), 24),
    ("d4", 4, ("(1 2 3 4)", "(1 3)"), 8),
    ("c6", 6, ("(1 2 3 4 5 6)",), 6),
    ("f21", 7, ("(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)"), 21),
    ("a5", 5, ("(1 2 3)", "(3 4 5)"), 60),
    ("s6", 6, ("(1 2)", "(1 2 3 4 5 6)"), 720),
    ("pgl32", 7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)"), None),
    ("a7", 7, ("(1 2 3)", "(1 2 3 4 5 6 7)"), 2520),
]


@pytest.mark.parametrize("name,deg,gens,expected",
                         CLOSURE_CASES, ids=[c[0] for c in CLOSURE_CASES])
def test_chain_order_equals_bruteforce_closure(name, deg, gens, expected):
    g = group(deg, *gens)
    closure = len(mulclose(g.generators))
    assert g.order() == closure
    if expected is not None:
        assert g.order() == expected


def chain_levels(chain):
    """Base point, strong generators, orbit insertion order and transversal
    images of every level, a chain on points and sets read as the union's
    (full_levels)."""
    return [level[:4] for level in full_levels(chain)]


def points_and_blocks(action, block=0):
    """The chain the design action builds for the stabilizer of `block`:
    G on the points and the blocks, hinted at the block, on the points."""
    g, structure = action.group, action.structure
    return _build_chain(structure.v + structure.b, g.walk_generators,
                        (structure.v + block,), g.order(),
                        sets=action._blocks)


@pytest.mark.parametrize("name,deg,gens,expected",
                         CLOSURE_CASES, ids=[c[0] for c in CLOSURE_CASES])
def test_bounded_build_equals_full_build(name, deg, gens, expected):
    full = group(deg, *gens)
    bounded = GroupWithChain(full.generators, order_bound=full.order())
    assert chain_levels(bounded._chain) == chain_levels(full._chain)


@pytest.mark.parametrize("deg,gens", [
    (7, ("(1 2 3)", "(1 2 3 4 5 6 7)")),      # A7
    (7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)")),   # PGL(3,2)
    (6, ("(1 2)", "(1 2 3 4 5 6)")),          # S6
])
def test_bounded_stabilizer_rebuilds_equal_full_ones(deg, gens):
    g = group(deg, *gens)
    for point in range(deg):
        full = _build_chain(deg, g.generators, (point,))
        bounded = _build_chain(deg, g.generators, (point,), g.order())
        assert chain_levels(bounded) == chain_levels(full), point
        assert (chain_levels(g.point_stabilizer(point)._chain)
                == chain_levels(full)[1:])


def test_bounded_design_action_chains_equal_full_ones(corpus_instances):
    """The block action's chain, completed from random elements, is a
    base and strong generating set of the plain build of its generators
    at its base; the chain of the points and the blocks is that plain
    build, level by level."""
    for inst in corpus_instances:
        action = DesignAction(inst.group, inst.structure)
        image = action.block_action.image
        union = design_union(inst.group, inst.structure)
        assert_bsgs(image._chain, GroupWithChain(
            image.generators, base_hint=image.base())._chain)
        hint = (inst.structure.v,)
        assert chain_levels(points_and_blocks(action)) == chain_levels(
            GroupWithChain(union.generators, base_hint=hint)._chain), inst.name


def test_bound_above_the_order_gives_the_full_chain(s4):
    full = GroupWithChain(s4.generators)
    loose = GroupWithChain(s4.generators, order_bound=2 * s4.order())
    assert chain_levels(loose._chain) == chain_levels(full._chain)
    assert sifted(loose._chain) == sifted(full._chain)
    # S4 on the cosets of D4 has kernel V4: |S4| bounds the image loosely
    action = coset_action(s4, group(4, "(1 2 3 4)", "(1 3)"))
    assert not action.faithful and action.image.order() == 6
    unbounded = GroupWithChain(action.image.generators)._chain
    assert chain_levels(action.image._chain) == chain_levels(unbounded)
    assert sifted(action.image._chain) == sifted(unbounded)


def test_bound_below_the_order_is_a_contradiction(s4):
    with pytest.raises(StructureContradiction):
        GroupWithChain(s4.generators, order_bound=5)


def test_bounded_build_sifts_fewer_schreier_generators(symplectic_pair):
    structure, g = symplectic_pair
    union = design_union(g, structure)
    vertex = structure.v + 1
    assert union.base()[0] != vertex  # point_stabilizer would rebuild
    full = _build_chain(union.degree, union.generators, (vertex,))
    bounded = _build_chain(union.degree, union.generators, (vertex,),
                           union.order())
    assert chain_levels(bounded) == chain_levels(full)
    assert sifted(bounded) < sifted(full)
    # the design action's bounded build on the points, at block 1
    on_points = points_and_blocks(DesignAction(g, structure), 1)
    assert chain_levels(on_points) == chain_levels(bounded)
    assert sifted(on_points) == sifted(bounded)


def test_membership_of_100_random_words(a7):
    rng = random.Random(5)
    for _ in range(100):
        w = Permutation.identity(7)
        for _ in range(rng.randrange(1, 12)):
            g = a7.generators[rng.randrange(len(a7.generators))]
            w = w * (g if rng.randrange(2) else g.inverse())
        assert a7.contains(w)


def test_membership_rejects_odd_permutation(a7):
    assert not a7.contains(perm("(1 2)", 7))


def test_membership_rejects_point_outside_orbit():
    g = group(4, "(1 2)")
    assert not g.contains(perm("(3 4)", 4))


def forward_residue(chain, p, start=0):
    """Oracle: the residue p*u1^-1*u2^-1*... of the textbook sift, formed
    forward level by level; None when it is the identity, and returned as
    it stands as soon as a base image leaves its basic orbit."""
    for level in chain.levels[start:]:
        c = p.images[level.base]
        if c != level.base:
            u = level.orbit.get(c)
            if u is None:
                return p
            p = p * u.inverse()
    return None if p.is_identity() else p


def sift(chain, p, start=0):
    """The residue p*a^-1 of _Chain._sift(p, identity, start), or None,
    sifted in the chain's encoding."""
    code = chain.code
    a = chain._sift(code.encode(p), chain.identity_code, start)
    return None if a is None else p * code.decode(a).inverse()


def assert_sift_matches_oracle(chain, p):
    for start in range(len(chain.levels) + 1):
        assert sift(chain, p, start) == forward_residue(chain, p, start), start


def test_sift_returns_the_forward_residue(corpus_instances):
    rng = random.Random(10)
    s6 = group(6, "(1 2)", "(1 2 3 4 5 6)")
    groups = [inst.group for inst in corpus_instances] + [s6]
    for g in groups:
        n = g.degree
        for _ in range(4):
            member = g.random_element(rng)
            assert sift(g._chain, member) is None
            assert_sift_matches_oracle(g._chain, member)
            stranger = Permutation(rng.sample(range(n), n))
            assert g.contains(stranger) == (
                forward_residue(g._chain, stranger) is None)
            assert_sift_matches_oracle(g._chain, stranger)


def test_sift_leaves_early_at_a_deeper_basic_orbit():
    d4 = group(4, "(1 2 3 4)", "(1 3)")
    chain = d4._chain
    assert [(l.base, sorted(l.orbit)) for l in chain.levels] == [
        (0, [0, 1, 2, 3]), (1, [1, 3])]
    for text in ("(2 3)", "(1 2 4 3)"):
        p = perm(text, 4)
        residue = forward_residue(chain, p)
        # the residue fixes the first base point and sends the second out
        # of its basic orbit
        assert residue.images[0] == 0 and residue.images[1] not in (1, 3)
        assert sift(chain, p) == residue
        assert not d4.contains(p)
        assert_sift_matches_oracle(chain, p)


def dihedral_or_trivial(n):
    """The dihedral group of order 2n on n >= 3 points, generated by
    i -> i + 1 and i -> -i, based at (0, 1); the trivial group below."""
    if n < 3:
        return GroupWithChain.trivial(n)
    g = GroupWithChain((Permutation([(i + 1) % n for i in range(n)]),
                        Permutation([-i % n for i in range(n)])))
    assert g.order() == 2 * n and g.base() == (0, 1)
    return g


BOUNDARY_DEGREES = (1, 2, TABLE_SIZE - 1, TABLE_SIZE, TABLE_SIZE + 1)


@pytest.mark.parametrize("n", BOUNDARY_DEGREES)
def test_sift_matches_the_forward_residue_at_the_table_boundary(n):
    """On both sides of the largest degree a chain sifts as byte tables,
    membership and the sift's residue agree with the textbook residue, for
    members, random non-members and a non-member fixing the base."""
    g = dihedral_or_trivial(n)
    chain = g._chain
    assert isinstance(chain.identity_code, bytes) == (n <= TABLE_SIZE)
    rng = random.Random(n)
    strangers = [Permutation(rng.sample(range(n), n)) for _ in range(4)]
    if n >= 4:
        strangers.append(perm("(3 4)", n))
    for p in [g.random_element(rng) for _ in range(4)] + strangers:
        assert g.contains(p) == (forward_residue(chain, p) is None)
        assert_sift_matches_oracle(chain, p)
    assert n < 3 or not all(g.contains(p) for p in strangers)


@pytest.mark.parametrize("n", BOUNDARY_DEGREES)
def test_canonical_representative_is_least_at_the_table_boundary(n):
    """The canonical representative of H*x is the least element of the
    coset formed in full: an element of H is fixed by its images of the
    base (0, 1), so the least base images give the least image tuple."""
    h = dihedral_or_trivial(n)
    rng = random.Random(n)
    for _ in range(4):
        x = Permutation(rng.sample(range(n), n))
        assert (canonical_coset_representative(h, x).images
                == least_in_right_coset(h.generators, x))


def assert_schreier_trees(chain):
    """Each level's transversal is its Schreier tree: the decoded element
    at each orbit point sends the base to it, and is its parent's element
    times the strong generator on its tree edge; the breadth-first oracle
    forms the same orbit order and elements.  On a level of sets, a
    generator steps the orbit by its set image."""
    sets = chain.sets
    for i, level in enumerate(chain.levels):
        on_sets = level.images is not None
        steps = [sets.perm(g).images if on_sets else g.images
                 for g in level.gens]
        orbit = level.orbit
        assert list(orbit) == level.points, i
        for d, u in orbit.items():
            assert (sets.image(level.base, u) if on_sets
                    else u.images[level.base]) == d, (i, d)
        assert list(level.parents) == level.points[1:], i
        for d, (c, gi) in level.parents.items():
            assert steps[gi][c] == d and orbit[d] == orbit[c] * level.gens[gi]
        assert breadth_first_transversal(
            level.base, steps, level.gens, chain.identity) == list(
                orbit.items()), i


@pytest.mark.parametrize("n", BOUNDARY_DEGREES[2:])
def test_transversals_are_schreier_trees_at_the_table_boundary(n):
    """On both sides of the largest degree a chain keeps as byte tables,
    each level's transversal is its Schreier tree."""
    g = dihedral_or_trivial(n)
    assert isinstance(g._chain.identity_code, bytes) == (n <= TABLE_SIZE)
    assert_schreier_trees(g._chain)
    stab = g.point_stabilizer(0)
    assert_schreier_trees(stab._chain)
    rng = random.Random(n)
    for _ in range(4):  # members sift through the tail and the chain
        assert g.contains(g.random_element(rng) * stab.random_element(rng))


def test_points_and_blocks_transversals_are_schreier_trees(symplectic_pair):
    """The chain of the points and the blocks, and the group's own, keep
    their transversals as Schreier trees, the block level stepped by the
    generators' block images."""
    structure, g = symplectic_pair
    chain = points_and_blocks(DesignAction(g, structure))
    assert chain.levels[0].images is not None
    assert_schreier_trees(chain)
    assert_schreier_trees(g._chain)


def test_chain_build_multiplies_only_installed_residues(monkeypatch):
    """Building the relabelled symplectic design's group over GF(3), and
    its chain of the points and the blocks, forms a Permutation product
    only for each residue it installs: transversal elements, Schreier
    pairs and sifts stay encoded."""
    structure, g = relabelled(*build_symplectic_subdesign(2, 3), 1)
    action = DesignAction(g, structure)
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda self, other: products.append(1)
                        or mul(self, other))
    for build in (lambda: _build_chain(g.degree, g.generators),
                  lambda: points_and_blocks(action)):
        products.clear()
        chain = build()
        # every strong generator lies on level 0; the grown ones were given
        installed = len(chain.levels[0].gens) - len(chain.grown)
        assert chain.order() == g.order()
        assert installed and len(products) == installed


@pytest.fixture
def inversions(monkeypatch):
    """Every permutation inverted from here on."""
    calls = []
    inverse = Permutation.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(Permutation, "inverse", counting)
    return calls


def test_membership_inverts_nothing(a7, inversions):
    assert a7.contains(perm("(1 2 3)(4 5 6)", 7))
    assert not a7.contains(perm("(1 2)", 7))
    assert not a7.contains(perm("(1 2 3 4)(5 6 7)", 7))
    assert inversions == []


def test_chain_build_inverts_only_installed_residues(monkeypatch,
                                                    inversions):
    """Sifting a Schreier generator inverts nothing; only a residue that is
    installed is formed as p*a^-1, one inversion each.  Each Schreier pair
    off the levels' Schreier trees is sifted once."""
    schreier = []
    sift = _Chain._sift

    def recording(self, p, a, start=0):
        result = sift(self, p, a, start)
        if start:  # a Schreier pair, sifted below its level
            schreier.append(result)
        return result
    monkeypatch.setattr(_Chain, "_sift", recording)
    chain = _build_chain(7, (perm("(1 2 3 4 5 6 7)", 7), perm("(1 2)", 7)))
    assert chain.order() == 5040
    residues = [result for result in schreier if result is not None]
    assert len(schreier) == sifted(chain) - skipped(chain) and residues
    assert len(inversions) == len(residues)


def test_schreier_pairs_sifted_once(a7):
    """The number of Schreier pairs each build sifts, pinned: a pair sifted
    twice installs nothing, so the chain digest cannot see it."""
    s7 = _build_chain(7, (perm("(1 2 3 4 5 6 7)", 7), perm("(1 2)", 7)))
    assert s7.order() == 5040 and sifted(s7) == 144
    assert sifted(a7._chain) == 105


SIFTED_PER_INSTANCE = {  # group / block image / points and blocks
    "fano-pgl32": (74, 0, 26),
    "fano-frobenius21": (24, 0, 8),
    "pg1-3-2-pgl42": (402, 0, 289),
    "pg2-3-2-pgl42": (402, 0, 157),
    "ag2-3-2-agl32": (182, 0, 63),
    "symplectic-2-2": (316, 0, 128),
    "a7-cos-15-3-1": (25, 0, 39),
    "a7-cos-15-7-3": (25, 0, 28),
}


def test_schreier_pairs_sifted_per_corpus_chain(corpus_instances):
    """Every corpus block action is faithful, so random elements complete
    its chain at |G| and no Schreier pair is sifted."""
    assert ({inst.name for inst in corpus_instances}
            == set(SIFTED_PER_INSTANCE))
    for inst in corpus_instances:
        action = DesignAction(inst.group, inst.structure)
        counts = (sifted(inst.group._chain),
                  sifted(action.block_action.image._chain),
                  sifted(points_and_blocks(action)))
        assert counts == SIFTED_PER_INSTANCE[inst.name], inst.name


def test_each_schreier_pair_is_sifted_once(monkeypatch, random_draws):
    """While the corpus is built and analyzed, and the chains of
    SIFTED_PER_INSTANCE are built, each chain build runs _Chain._sift
    once per Schreier pair its cursors pass, less the pairs on edges of
    its levels' Schreier trees, which it skips, once per membership test
    of a generator in extend(), and, in a build completed from random
    elements, once per generator whose residue it tries to install and
    once per random element."""
    calls = {"_sift": 0, "extend": 0, "sift_in": 0}
    for name in calls:
        def counting(self, *args, method=getattr(_Chain, name), name=name):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(_Chain, name, counting)
    builds = []

    def measured(build, *args, **kwargs):
        before = dict(calls, draws=len(random_draws))
        chain = build(*args, **kwargs)
        randoms = len(random_draws) - before["draws"]
        builds.append((sifted(chain), skipped(chain),
                       calls["_sift"] - before["_sift"],
                       calls["extend"] - before["extend"],
                       calls["sift_in"] - before["sift_in"] - randoms,
                       randoms))
        return chain
    build = chains._build_chain
    monkeypatch.setattr(chains, "_build_chain",
                        lambda *args, **kwargs: measured(build, *args,
                                                         **kwargs))
    counts = {}
    for inst in bundled_corpus():
        analyze(inst.group, inst.structure, inst.name)
        action = DesignAction(inst.group, inst.structure)
        counts[inst.name] = (
            sifted(inst.group._chain),
            sifted(action.block_action.image._chain),
            sifted(measured(points_and_blocks, action)))
    assert counts == SIFTED_PER_INSTANCE
    assert builds and all(
        sift == pairs - skips + extended + generators + randoms
        and generators >= 0
        for pairs, skips, sift, extended, generators, randoms in builds)
    assert any(randoms for *_, randoms in builds)
    assert any(skips for _, skips, *_ in builds)


def test_block_chain_sifts_random_elements_not_schreier_pairs(random_draws):
    """The block action of the relabelled symplectic design over GF(3)
    reaches |G| from a few random elements and sifts no Schreier pair;
    the deterministic build of the same walk generators sifts 5 570."""
    structure, g = relabelled(*build_symplectic_subdesign(2, 3), 1)
    action = DesignAction(g, structure)
    chain = action.block_action.image._chain
    assert action.block_action.faithful
    assert sifted(chain) == 0 and 0 < len(random_draws) <= _IDLE_SIFTS
    plain = _build_chain(structure.b, g.walk_generators,
                         order_bound=g.order(), sets=action._blocks)
    assert sifted(plain) == 5570
    image = action.block_action.image
    assert_bsgs(chain, GroupWithChain(image.generators,
                                      base_hint=image.base())._chain)


@pytest.mark.parametrize("idle", [_IDLE_SIFTS, 0])
def test_unfaithful_block_chain_is_finished_deterministically(
        monkeypatch, random_draws, finishes, idle):
    """S2 wr S4 on the four cells {0, 1}, ..., {6, 7} of 8 points, and on
    the cells with the six unions of two cells: the kernel 2^4 fixes every
    cell, so random elements never reach |G| = 384.  After `idle` of them
    sift through in a row, the deterministic finish runs below |G|, and
    completes the chain even with none drawn; the image order is that of
    the set images' closure."""
    monkeypatch.setattr(chains, "_IDLE_SIFTS", idle)
    g = group(8, "(1 2)", "(1 3)(2 4)", "(1 3 5 7)(2 4 6 8)")
    cells = [(0, 1), (2, 3), (4, 5), (6, 7)]
    for sets in (cells, cells + [c + d for i, c in enumerate(cells)
                                 for d in cells[i + 1:]]):
        del finishes[:], random_draws[:]
        blocks = SetAction(8, sets)
        action = set_action(g, blocks)
        images = [blocks.perm(x) for x in g.generators]
        assert action.image.order() == len(mulclose(images)) == 24
        assert not action.faithful
        [(entered, bound)] = finishes
        assert bound == 384 and len(random_draws) >= idle
        # random elements reach the image's order; without them the finish
        # grows the generators' residues from 12 to 24
        assert entered == (24 if idle else 12)
        assert_bsgs(action.image._chain, GroupWithChain(
            images, base_hint=action.image.base())._chain)


def test_generates_order_repeats_its_chain(monkeypatch, finishes):
    """generates_order completes its chain from seeded random products of
    the generators: a repeated call builds the same chain, level by level,
    a base and strong generating set of the generated group reached at
    the bound without the deterministic finish sifting anything.  Under a
    bound above the order the products run idle, the finish completes the
    chain at the true order, and the answer is False; a bound below the
    order is a contradiction."""
    built = []
    build = chains._build_chain
    monkeypatch.setattr(chains, "_build_chain", lambda *args, **kwargs:
                        built.append(build(*args, **kwargs)) or built[-1])
    gens = (perm("(1 2 3 4 5 6 7)", 7), perm("(1 2)", 7))
    assert generates_order(gens, 5040) and generates_order(gens, 5040)
    first, second = built
    assert full_levels(first) == full_levels(second)
    assert sifted(first) == 0 and finishes == [(5040, 5040)] * 2
    assert_bsgs(first, _build_chain(7, gens, [level.base
                                              for level in first.levels]))
    del finishes[:]
    assert not generates_order(gens, 2 * 5040)
    [(entered, bound)] = finishes
    assert entered <= 5040 == built[-1].order() and bound == 10080
    with pytest.raises(StructureContradiction):
        generates_order(gens, 2520)
    with pytest.raises(ValueError):
        generates_order((), 1)


CHAINS_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                             "chains.sha256")


def _builder(frame):
    """"module.function" of the innermost frame outside group.py: the
    caller that asked for a chain."""
    while frame.f_globals["__name__"] == chains.__name__:
        frame = frame.f_back
    return (frame.f_globals["__name__"].rpartition(".")[2] + "."
            + frame.f_code.co_name)


def corpus_chain_builds(monkeypatch):
    """(instance, caller, sha256 of chain_levels) for every chain
    _build_chain returns while analyze runs on a freshly built corpus, in
    the order of the builds, and the sha256 over the chain_levels of all
    of them, in that order: the digest that chains.sha256 pins."""
    instances = bundled_corpus()
    digest = hashlib.sha256()
    builds = []
    build = chains._build_chain

    def recording(*args, **kwargs):
        chain = build(*args, **kwargs)
        levels = repr(chain_levels(chain)).encode()
        digest.update(levels)
        builds.append((name, _builder(sys._getframe(1)),
                       hashlib.sha256(levels).hexdigest()))
        return chain
    monkeypatch.setattr(chains, "_build_chain", recording)
    for inst in instances:
        name = inst.name
        analyze(inst.group, inst.structure, inst.name)
    return builds, digest.hexdigest()


def corpus_chain_digest(monkeypatch):
    """sha256 over chain_levels of every chain _build_chain returns while
    analyze runs on a freshly built corpus, in the order of the builds."""
    return corpus_chain_builds(monkeypatch)[1]


def test_corpus_chains_match_golden_digest(monkeypatch):
    """Every base, strong generator, orbit order and transversal element
    of the chains a corpus analysis builds is pinned."""
    with open(CHAINS_DIGEST) as fh:
        expected, _ = fh.read().split()
    assert corpus_chain_digest(monkeypatch) == expected


# the digest of the corpus chains while block quasiprimitivity was decided
# by the block-system recursion alone, pinned in chains.sha256 until the
# socle rule took the cell actions of two corpus instances out
RECURSION_CHAINS_DIGEST = (
    "d11f1cd4e408edbfdf4d44103142f8170896fef503a104d5cfffc1a420cdaab6")


def test_socle_rule_leaves_out_only_the_cell_action_builds(monkeypatch):
    """Without the point report, the local report decides block
    quasiprimitivity by the recursion, and the corpus builds are those of
    RECURSION_CHAINS_DIGEST.  The socle rule leaves out exactly the two
    cell actions of ag2-3-2-agl32 and symplectic-2-2, and every other
    build is the same chain, in the same order."""
    report = DesignAction.local_primitivity_report
    with pytest.MonkeyPatch.context() as m:
        m.setattr(DesignAction, "local_primitivity_report",
                  lambda self, point_report=None: report(self))
        recursion, digest = corpus_chain_builds(m)
    builds, _ = corpus_chain_builds(monkeypatch)
    assert digest == RECURSION_CHAINS_DIGEST
    cells = [b for b in recursion if b[1] == "analysis._cell_action"]
    assert [name for name, *_ in cells] == ["ag2-3-2-agl32",
                                            "symplectic-2-2"]
    assert builds == [b for b in recursion if b not in cells]


TESTS = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("hash_seed", [0, 12345])
def test_corpus_chains_digest_in_a_fresh_interpreter(hash_seed):
    """The chains digest in a new process under a fixed string-hash seed:
    no chain, the ones completed from seeded random elements included,
    depends on set or dict order of hashed strings."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(os.path.dirname(TESTS), "src"), TESTS]))
    code = ("import pytest, test_group\n"
            "with pytest.MonkeyPatch.context() as m:\n"
            "    print(test_group.corpus_chain_digest(m))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    with open(CHAINS_DIGEST) as fh:
        expected, _ = fh.read().split()
    assert run.stdout.decode().split() == [expected]


def test_orbit_full_cycle():
    g = group(7, "(1 2 3 4 5 6 7)")
    assert g.orbit(0) == frozenset(range(7))
    assert g.is_transitive()


def test_orbit_fixed_point():
    g = group(3, "(1 2)")
    assert g.orbit(2) == frozenset({2})
    assert not g.is_transitive()


def test_orbits_of_come_in_order_of_smallest_point():
    g = group(7, "(2 5)(3 7)", "(4 6)")
    assert orbits_of(g.generators, 7) == [
        frozenset({0}), frozenset({1, 4}), frozenset({2, 6}),
        frozenset({3, 5})]
    assert orbit_of(g.generators, 6) == g.orbit(6) == frozenset({2, 6})
    assert not is_semiregular(g)
    assert is_semiregular(group(4, "(1 2)(3 4)"))


def test_orbit_out_of_range(a7):
    with pytest.raises(ValueError):
        a7.orbit(7)


@pytest.mark.parametrize("deg,gens,point,stab_order", [
    (7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)"), 0, 24),   # projective plane group
    (7, ("(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)"), 3, 3),
    (4, ("(1 2)", "(1 2 3 4)"), 2, 6),
])
def test_point_stabilizer_orders(deg, gens, point, stab_order):
    g = group(deg, *gens)
    stab = g.point_stabilizer(point)
    assert stab.order() == stab_order
    assert g.order() == len(g.orbit(point)) * stab.order()
    for x in stab.generators:
        assert x.apply(point) == point


def test_point_stabilizer_of_trivial_group():
    g = GroupWithChain((Permutation.identity(5),))
    assert g.point_stabilizer(2).order() == 1


def test_point_stabilizer_reads_the_chain_tail(fano_pair, chain_builds):
    _, g = fano_pair
    first = g.base()[0]
    assert g.point_stabilizer(first).order() == 24
    assert chain_builds == []
    assert g.point_stabilizer((first + 1) % 7).order() == 24
    assert len(chain_builds) == 1


@pytest.mark.parametrize("deg,gens", [
    (7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)")),   # PGL(3,2)
    (5, ("(1 2)", "(1 2 3 4 5)")),            # S5
])
def test_two_deep_stabilizer_matches_closure(deg, gens):
    g = group(deg, *gens)
    closure = mulclose(g.generators)
    for a in range(deg):
        stab = g.point_stabilizer(a)
        for b in range(deg):
            if b == a:
                continue
            expected = {t for t in closure if t[a] == a and t[b] == b}
            got = stab.point_stabilizer(b)
            assert {p.images for p in got.elements()} == expected, (a, b)


def test_orbit_stabilizer_identity_random_groups():
    rng = random.Random(11)
    for _ in range(20):
        deg = rng.randrange(4, 9)
        gens = []
        for _ in range(2):
            images = list(range(deg))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = GroupWithChain(tuple(gens))
        pt = rng.randrange(deg)
        assert g.order() == len(g.orbit(pt)) * g.point_stabilizer(pt).order()


def test_normal_closure_of_three_cycle_in_s4(s4):
    n = normal_closure(s4, [perm("(1 2 3)", 4)])
    assert n.order() == 12
    # closure is normal: conjugates of its generators stay inside
    for x in n.generators:
        for g in s4.generators:
            assert n.contains(x.conjugated_by(g))


def test_normal_closure_reaching_the_group_returns_it(s4):
    assert normal_closure(s4, [perm("(1 2)", 4)]) is s4


def test_normal_closure_of_identity(s4):
    assert normal_closure(s4, [Permutation.identity(4)]).order() == 1


def test_normal_closure_translation_subgroup(frobenius21):
    n = normal_closure(frobenius21, [perm("(1 2 3 4 5 6 7)", 7)])
    assert n.order() == 7


def test_normal_closure_seed_outside_group(frobenius21):
    with pytest.raises(MembershipError):
        normal_closure(frobenius21, [perm("(1 2)", 7)])


def test_normal_closure_is_smallest(s4):
    # brute force: every normal subgroup of S4 containing (1 2)(3 4) contains
    # the Klein group, and the closure equals it
    n = normal_closure(s4, [perm("(1 2)(3 4)", 4)])
    assert n.order() == 4
    klein = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    assert {p.images for p in n.elements()} == klein


def test_prime_order_class_reps_c6():
    c6 = group(6, "(1 2 3 4 5 6)")
    reps = prime_order_class_representatives(c6)
    assert {r.order() for r in reps} == {2, 3}


def test_prime_order_class_reps_s3():
    s3 = group(3, "(1 2)", "(1 2 3)")
    reps = prime_order_class_representatives(s3)
    assert sorted(r.order() for r in reps) == [2, 3]


def test_prime_order_class_reps_trivial():
    g = GroupWithChain((Permutation.identity(3),))
    assert prime_order_class_representatives(g) == []


def test_prime_order_class_reps_cover_all_prime_elements(s4):
    reps = prime_order_class_representatives(s4)
    # every prime-order element of S4 must be conjugate to a listed rep
    by_rep = set()
    for r in reps:
        stack = [r]
        seen = {r.images}
        while stack:
            x = stack.pop()
            for g in s4.generators:
                c = x.conjugated_by(g)
                if c.images not in seen:
                    seen.add(c.images)
                    stack.append(c)
        by_rep |= seen
    for t in mulclose(s4.generators):
        p = Permutation(t)
        o = p.order()
        if o in (2, 3):
            assert p.images in by_rep


def test_enumeration_limit(monkeypatch):
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "100")
    with pytest.raises(EnumerationLimitError):
        group(7, "(1 2 3)", "(1 2 3 4 5 6 7)").elements()


def test_elements_are_distinct_and_complete(s4):
    els = s4.elements()
    assert len(els) == 24
    assert len({p.images for p in els}) == 24


def test_iter_elements_follows_elements_order(pg132_pair, s4):
    trivial = GroupWithChain((Permutation.identity(3),))
    pgl42 = GroupWithChain(pg132_pair[1].generators)
    for g in (pgl42, trivial, s4):
        assert list(g.iter_elements()) == list(g.elements())
    assert pgl42.order() == 20160


def test_iter_elements_refuses_before_yielding(a7, monkeypatch):
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "100")
    with pytest.raises(EnumerationLimitError):
        a7.iter_elements()


def test_class_reps_store_no_element_list(pg132_pair):
    g = GroupWithChain(pg132_pair[1].generators)
    assert len(prime_order_class_representatives(g)) == 7  # classes of A8
    assert g._elements is None


def _counting_class_reps(monkeypatch):
    """The groups that prime_order_class_representatives walks, one entry
    per walk."""
    walked = []
    walk = chains.prime_order_class_representatives

    def counting(g):
        walked.append(g)
        return walk(g)
    monkeypatch.setattr(chains, "prime_order_class_representatives", counting)
    return walked


def test_class_closures_follow_class_reps(s4, monkeypatch):
    g = GroupWithChain(s4.generators)
    expected = [normal_closure(g, [rep])
                for rep in prime_order_class_representatives(g)]
    walked = _counting_class_reps(monkeypatch)
    closures = class_closures(g)
    assert [n.order() for n in closures] == [n.order() for n in expected]
    assert all(n.generators == m.generators
               for n, m in zip(closures, expected))
    assert class_closures(g) == closures  # kept, same objects
    assert walked == [g]  # one walk for both calls
    assert g in closures  # the full closure S4 is the group itself


def test_kept_closures_form_no_reference_cycle(s4):
    """The full closure is kept without a reference from the group to
    itself, so the group and its closures are freed without the cyclic
    collector.  So are the certificates that classify_point_action keeps:
    an affine witness that is the group itself (C7), another affine
    witness (AGL(1,5)), and perfection and Iwasawa's lemma (PGL(3,2))."""
    import gc
    from permdesign.analysis import classify_point_action
    gc.collect()
    gc.disable()
    try:
        g = GroupWithChain(s4.generators)
        closures = class_closures(g)
        assert g in closures and len(closures) > 1
        del g, closures
        assert gc.collect() == 0
        for degree, gens, tag, witness_is_group in (
                (7, ("(1 2 3 4 5 6 7)",), "HA", True),
                (5, ("(1 2 3 4 5)", "(2 3 5 4)"), "HA", False),
                (7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)"), "AS", True)):
            g = group(degree, *gens)
            report = classify_point_action(g)
            assert report.tag == tag
            assert (report.witness is g) == witness_is_group
            assert g._derived
            del g, report
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_cached_closures_still_refuse_beyond_limit(fano_pair, monkeypatch):
    # the closures, once kept on the group, still refuse past the limit;
    # quasiprimitivity reads block systems, not closures, so it stays
    # exact there and walks neither A5 on ordered pairs (imprimitive with
    # trivial kernels) nor the primitive Fano group
    walked = _counting_class_reps(monkeypatch)
    g = a5_on_ordered_pairs()
    class_closures(g)
    class_closures(g)
    assert walked == [g]
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    with pytest.raises(EnumerationLimitError):
        class_closures(g)
    assert is_quasiprimitive(g) is True
    fresh = a5_on_ordered_pairs()
    assert is_quasiprimitive(fresh) is True
    fano = GroupWithChain(fano_pair[1].generators)
    assert is_quasiprimitive(fano)
    assert walked == [g]


def test_random_element_is_seeded_and_reaches_every_element(s4):
    draws = [s4.random_element(random.Random(3)) for _ in range(2)]
    assert draws[0] == draws[1]
    rng = random.Random(5)
    seen = {s4.random_element(rng).images for _ in range(400)}
    assert seen == mulclose(s4.generators)


def test_induced_action_faithful_on_fano_lines(fano_pair):
    structure, g = fano_pair
    action = induced_action(
        g, structure.blocks,
        lambda blk, x: tuple(sorted(x.images[p] for p in blk)))
    assert action.faithful
    assert action.image.order() == 168


@pytest.mark.parametrize("build", [
    set_action, lambda g, sets: set_stabilizer(g, sets, 0)],
    ids=["set_action", "set_stabilizer"])
def test_set_chains_refuse_a_family_the_group_does_not_preserve(build):
    # (1 2 3 4) maps {0, 1} to {1, 2}, which is no set of the list
    g = group(4, "(1 2 3 4)")
    with pytest.raises(ActionClosureError,
                       match=r"generator \(1 2 3 4\) maps set 0 \(0, 1\)"):
        build(g, SetAction(4, [(0, 1), (2, 3)]))


def test_induced_action_single_fixed_object(s4):
    action = induced_action(s4, ["anchor"], lambda obj, g: obj)
    assert action.image.order() == 1
    assert not action.faithful  # |S4| > 1


def test_induced_action_closure_error(s4):
    with pytest.raises(ActionClosureError):
        induced_action(s4, [0, 1], lambda obj, g: g.images[obj])


def test_induced_action_refuses_repeated_objects_and_non_bijections(s4):
    with pytest.raises(ValueError, match="^objects must be distinct$"):
        induced_action(s4, [0, 1, 0], lambda obj, g: obj)
    with pytest.raises(ActionClosureError,
                       match="^action rule is not a bijection$"):
        induced_action(s4, [0, 1, 2, 3], lambda obj, g: 0)


def test_induced_action_faithfulness_matches_bruteforce_kernel():
    cases = [
        group(6, "(1 2 3 4 5 6)"),          # on the two alternating cells
        group(4, "(1 2 3 4)", "(1 3)"),     # D4 on the two diagonals
    ]
    cells = [({0, 2, 4}, {1, 3, 5}), ({0, 2}, {1, 3})]
    for g, objs in zip(cases, cells):
        action = induced_action(
            g, [frozenset(c) for c in objs],
            lambda cell, x: frozenset(x.images[p] for p in cell))
        kernel = sum(
            1 for t in mulclose(g.generators)
            if all(frozenset(t[p] for p in cell) == cell for cell in objs))
        assert action.faithful == (kernel == 1)
        assert action.image.order() * kernel == g.order()


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(p is g for g in rest) for p in part)


def test_walk_generators_generate_the_group(walk_cases):
    """The generators that grew the chain are a subsequence of the given
    ones, in order, and generate a group of the same order."""
    for name, g in walk_cases:
        walk = g.walk_generators
        assert _is_subsequence(walk, g.generators), name
        assert GroupWithChain(walk).order() == g.order(), name


def test_walk_generators_of_the_geometric_groups_are_few(walk_cases):
    cases = dict(walk_cases)
    assert (len(cases["symplectic-2-3"].generators),
            len(cases["symplectic-2-3"].walk_generators)) == (84, 6)
    assert (len(cases["pg-4-2-1"].generators),
            len(cases["pg-4-2-1"].walk_generators)) == (20, 8)


def test_walk_generators_fall_back_to_the_given_generators(a7, s4):
    trivial = GroupWithChain.trivial(4)
    assert trivial.walk_generators == trivial.generators
    for g in (a7, s4):
        tail = g.point_stabilizer(g.base()[0])
        assert tail.walk_generators == tail.generators
    closure = normal_closure(s4, [perm("(1 2)(3 4)", 4)])
    assert closure.order() == 4
    assert closure.walk_generators == closure.generators


def test_walk_generators_drop_duplicates_and_the_identity():
    a, b = perm("(1 2 3 4 5)", 5), perm("(1 2)", 5)
    identity = Permutation.identity(5)
    g = GroupWithChain((identity, a, a, a * a, identity, b, b * a))
    assert g.walk_generators == (a, b)
    assert g.order() == 120


def test_walks_over_walk_generators_match_the_given_generators(walk_cases):
    for name, g in walk_cases:
        orbits = orbits_of(g.generators, g.degree)
        assert orbits_of(g.walk_generators, g.degree) == orbits, name
        assert g.is_transitive() == (len(orbits) == 1), name
        assert is_semiregular(g) == all(len(o) == g.order()
                                         for o in orbits), name


def test_repr_leaves_deferred_generators_unformed(symplectic_pair):
    structure, g = symplectic_pair
    image = DesignAction(g, structure).block_action.image
    assert repr(image) == (f"GroupWithChain(degree={structure.b}, "
                           f"order={image.order()}, ngens=deferred)")
    assert callable(image._generators)
    assert repr(g).endswith(f"ngens={len(g.generators)})")


def test_set_images_read_one_point_sets_and_refuse_outside_images():
    # sets of one point (read as a slice, not a single item) and larger ones
    sets = [(0,), (1,), (2,), (3,), (0, 1), (2, 3), (0, 2), (1, 3)]
    action = SetAction(4, sets)
    for text in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"):
        g = perm(text, 4)
        for j, s in enumerate(sets):
            assert sets[action.image(j, g)] == tuple(
                sorted(g.images[p] for p in s))
    with pytest.raises(KeyError):
        action.image(4, perm("(2 4)", 4))  # {0, 3} is no set of the list
    assert SetAction(2, [(0,), (1,)]).perm(perm("(1 2)", 2)).images == (1, 0)
