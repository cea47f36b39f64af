"""Randomized stress comparisons against plain closure enumeration: many
small random groups, exercised through the chain, stabilizer, coset, and
block-system code paths."""

import random

from bruteforce import mulclose
from permdesign.analysis import minimal_block_system
from permdesign.cosets import CosetSpace, canonical_coset_representative
from permdesign.group import GroupWithChain
from permdesign.perm import Permutation


def random_group(rng, degree, ngens=2):
    gens = []
    for _ in range(ngens):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return GroupWithChain(tuple(gens))


def test_chain_order_and_membership_random_stress():
    rng = random.Random(2718)
    for _ in range(120):
        degree = rng.randrange(3, 8)
        g = random_group(rng, degree)
        closure = mulclose(g.generators)
        assert g.order() == len(closure)
        # membership agrees with the closure on random permutations
        for _ in range(10):
            images = list(range(degree))
            rng.shuffle(images)
            p = Permutation(images)
            assert g.contains(p) == (p.images in closure)
        # every closure element is a member
        sample = rng.sample(sorted(closure), min(20, len(closure)))
        for t in sample:
            assert g.contains(Permutation(t))


def test_point_stabilizer_random_stress():
    rng = random.Random(577)
    for _ in range(60):
        degree = rng.randrange(3, 8)
        g = random_group(rng, degree)
        closure = mulclose(g.generators)
        point = rng.randrange(degree)
        stab = g.point_stabilizer(point)
        fixing = {t for t in closure if t[point] == point}
        assert stab.order() == len(fixing)
        assert {p.images for p in stab.elements()} == fixing


def test_coset_space_random_stress():
    rng = random.Random(31415)
    for _ in range(40):
        degree = rng.randrange(4, 7)
        g = random_group(rng, degree)
        elems = [Permutation(t) for t in sorted(mulclose(g.generators))]
        a = elems[rng.randrange(len(elems))]
        sub = GroupWithChain((a,))
        space = CosetSpace(g, sub)
        assert space.index * sub.order() == g.order()
        # same coset <=> same canonical representative <=> same position
        for _ in range(15):
            x = elems[rng.randrange(len(elems))]
            s = sub.elements()[rng.randrange(sub.order())]
            assert canonical_coset_representative(sub, s * x) == \
                   canonical_coset_representative(sub, x)
            assert space.position_of(s * x) == space.position_of(x)


def _invariant_partitions_with_pair(group, a, b):
    """All invariant equal-cell partitions whose cells join a and b."""
    from bruteforce import partitions_into_cells
    n = group.degree
    found = []
    for size in range(2, n + 1):
        if n % size:
            continue
        for partition in partitions_into_cells(tuple(range(n)), size):
            cell_sets = {frozenset(c) for c in partition}
            if not any(a in c and b in c for c in cell_sets):
                continue
            if all(frozenset(g.images[x] for x in c) in cell_sets
                   for g in group.generators for c in partition):
                found.append(cell_sets)
    return found


def test_minimal_block_system_is_finest_random_stress():
    rng = random.Random(8128)
    tried = 0
    while tried < 25:
        degree = rng.randrange(4, 8)
        g = random_group(rng, degree)
        if not g.is_transitive():
            continue
        tried += 1
        a = 0
        b = rng.randrange(1, degree)
        system = minimal_block_system(g, a, b)
        ours = frozenset(next(c for c in system.cells if a in c))
        for other in _invariant_partitions_with_pair(g, a, b):
            other_cell = next(c for c in other if a in c)
            assert ours <= other_cell, (g.generators, a, b)


def test_certificates_match_the_walk_random_stress(corpus_instances,
                                                   monkeypatch):
    # random transitive groups: small symmetric groups, and random
    # two-generated subgroups of imprimitive wreath products (kernel
    # elements), of A5 and PGL(3,2) (Iwasawa witnesses), of A6 on 6 and
    # A7 on 15 points (simple stabilizers) and of A5 on ordered pairs
    # (imprimitive but quasiprimitive: the walk types it)
    from conftest import a5_on_ordered_pairs, group, quasiprimitive_by_walk
    from permdesign import analysis
    from permdesign.analysis import (_classify_from_closures,
                                     classify_point_action, is_quasiprimitive)
    fired = []
    certificate = analysis._simple_stabilizer_certificate

    def recording(g):
        out = certificate(g)
        fired.append(out)
        return out
    monkeypatch.setattr(analysis, "_simple_stabilizer_certificate", recording)
    rng = random.Random(1729)
    a7_on_15 = next(inst.group for inst in corpus_instances
                    if inst.name == "a7-cos-15-3-1")
    ambients = (group(6, "(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"),
                group(8, "(1 2)", "(1 3 5 7)(2 4 6 8)", "(1 3)(2 4)"),
                group(5, "(1 2 3)", "(3 4 5)"),
                group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"),
                group(6, "(1 2 3)", "(2 3 4 5 6)"),
                a7_on_15,
                a5_on_ordered_pairs())
    tried = 0
    while tried < 60:
        if tried % 3:
            ambient = ambients[rng.randrange(len(ambients))]
            g = GroupWithChain(tuple(ambient.random_element(rng)
                                     for _ in range(2)))
        else:
            g = random_group(rng, rng.randrange(3, 8))
        if not g.is_transitive():
            continue
        tried += 1
        walk = GroupWithChain(g.generators)
        assert is_quasiprimitive(g) == quasiprimitive_by_walk(walk)
        assert (classify_point_action(g).to_json_dict()
                == _classify_from_closures(walk).to_json_dict()), g.generators
    assert any(fired)


def test_quasiprimitivity_matches_walk_and_lattice_random_stress():
    # coset actions of S4, A5 and S5 on random subgroups of up to two
    # random generators and index at least the degree, the trivial one
    # (the regular action) among them, and random transitive groups of
    # degree at most 7; the lattice oracle runs where its subgroup
    # enumeration stays small
    from bruteforce import quasiprimitive_by_lattice
    from conftest import group, quasiprimitive_by_walk
    from permdesign.analysis import is_quasiprimitive
    from permdesign.cosets import coset_action
    rng = random.Random(4096)
    ambients = (group(4, "(1 2)", "(1 2 3 4)"),
                group(5, "(1 2 3)", "(3 4 5)"),
                group(5, "(1 2)", "(1 2 3 4 5)"))
    cases = []
    for ambient in ambients:
        for ngens in (0, 1, 1, 2):
            sub = GroupWithChain.trivial(ambient.degree)
            while ngens:
                sub = GroupWithChain(tuple(ambient.random_element(rng)
                                           for _ in range(ngens)))
                if ambient.order() // sub.order() >= ambient.degree:
                    break
            cases.append(coset_action(ambient, sub).image)
    while len(cases) < 24:
        g = random_group(rng, rng.randrange(3, 8))
        if g.is_transitive():
            cases.append(g)
    verdicts = set()
    for g in cases:
        verdict = is_quasiprimitive(g)
        verdicts.add(verdict)
        assert verdict == quasiprimitive_by_walk(g), g.generators
        if g.order() <= 60 and g.order() * g.degree <= 1200:
            assert verdict == quasiprimitive_by_lattice(g), g.generators
    assert verdicts == {True, False}
