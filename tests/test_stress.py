"""Randomized stress comparisons against plain closure enumeration: many
small random groups, exercised through the chain, stabilizer, coset, and
block-system code paths."""

import random
from types import SimpleNamespace

from bruteforce import flag_count, mulclose
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


def _generated_by(image_tuples, degree):
    """A few of the given permutations (image tuples of a group) that
    generate them all, picked greedily, as the generators-and-degree record
    the brute-force oracles read."""
    gens, closure = [], {tuple(range(degree))}
    for t in sorted(image_tuples):
        if t not in closure:
            gens.append(Permutation(t))
            closure = mulclose(gens)
    return SimpleNamespace(degree=degree,
                           generators=gens or [Permutation.identity(degree)])


def _images_on(elements, objects, act):
    """The permutations of the object list's indices that the elements
    induce, as image tuples."""
    index = {obj: i for i, obj in enumerate(objects)}
    return {tuple(index[act(x, obj)] for obj in objects) for x in elements}


def _orbit_representatives(elements, objects, act):
    reps, seen = [], set()
    for obj in objects:
        if obj not in seen:
            reps.append(obj)
            seen |= {act(x, obj) for x in elements}
    return reps


def _primitive(group):
    """Primitivity from element sets: the exhaustive partition search up to
    degree 12, beyond it the union-find block cells of each pair (0, b)."""
    from bruteforce import block_cells_by_union_find, primitive_by_partitions
    n = group.degree
    if n <= 12:
        return primitive_by_partitions(group)
    return (len({t[0] for t in mulclose(group.generators)}) == n
            and all(len(block_cells_by_union_find(group.generators, n, 0, b))
                    == 1 for b in range(1, n)))


def test_design_verdicts_match_element_sets_random_stress(monkeypatch):
    # orbit designs of random groups of degree at most 8 and order at most
    # 2 000: random permutations, and random subgroups of affine, projective
    # and imprimitive groups; each analyze verdict is compared with a
    # computation over the group's element set; on a flag-transitive
    # design, lambda against the double-coset counts of (G, G_a, G_B0).
    # Block quasiprimitivity is decided by the point socle or by the
    # block-system recursion, and the lattice oracle checks both
    from bruteforce import (design_accepts, double_coset_ratios,
                            quasiprimitive_by_lattice)
    from conftest import group, orbit_design
    from permdesign import designgroup
    from permdesign.analyzer import FAIL, PASS, analyze
    from permdesign.designgroup import DesignAction
    recursions = []
    recursion = designgroup.is_quasiprimitive
    monkeypatch.setattr(designgroup, "is_quasiprimitive",
                        lambda image: recursions.append(image)
                        or recursion(image))
    rng = random.Random(6174)
    ambients = (group(5, "(1 2 3 4 5)", "(2 3 5 4)"),            # AGL(1,5)
                group(6, "(2 4 3 5 6)", "(1 4 6 3)"),            # PGL(2,5)
                group(6, "(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"),  # S3 wr S2
                group(7, "(1 2 3 4 5 6 7)", "(2 4 3 7 5 6)"),    # AGL(1,7)
                group(8, "(1 2)(3 4)(5 6)(7 8)", "(1 3)(2 4)(5 7)(6 8)",
                      "(1 5)(2 6)(3 7)(4 8)", "(2 3 5)(4 7 6)",
                      "(3 5)(4 6)"),                             # AGL(3,2)
                group(8, "(1 2 3 4 5 6 7)", "(1 2)(3 6)",
                      "(1 8)(2 4)(3 5)(6 7)"),                   # PGL(2,7)
                group(8, "(1 2)", "(1 3 5 7)(2 4 6 8)"))         # S2 wr S4

    def on_points(x, p):
        return x[p]

    def on_blocks(x, blk):
        return tuple(sorted(x[p] for p in blk))

    seen = {"lp": 0, "not lp": 0, "not flag-transitive": 0,
            "failed check, not lp": 0, "lambda checked": 0,
            "socle rule checked": 0, "recursion checked": 0}
    designs = 0
    while designs < 60:
        if designs % 3:
            ambient = ambients[rng.randrange(len(ambients))]
            g = GroupWithChain(tuple(ambient.random_element(rng)
                                     for _ in range(rng.randint(1, 3))))
        else:
            g = random_group(rng, rng.randrange(3, 9), rng.randint(1, 3))
        if g.order() > 2000:
            continue
        v = g.degree
        structure = orbit_design(g, rng.sample(range(v), rng.randrange(2, v)))
        blocks = structure.blocks
        if not design_accepts(v, blocks):
            continue
        designs += 1
        recursions.clear()
        report = analyze(g, structure)
        path = "recursion" if recursions else "socle rule"
        local = report.local
        elements = mulclose(g.generators)

        flag = (blocks[0][0], blocks[0])
        flags = {(x[flag[0]], on_blocks(x, flag[1])) for x in elements}
        assert local.flag_transitive == (len(flags) == flag_count(structure))
        assert local.point_primitive == _primitive(g)
        point_local = block_local = True
        for p in _orbit_representatives(elements, range(v), on_points):
            through = [b for b in blocks if p in b]
            stabilizer = [x for x in elements if x[p] == p]
            point_local &= _primitive(_generated_by(
                _images_on(stabilizer, through, on_blocks), len(through)))
        for b in _orbit_representatives(elements, blocks, on_blocks):
            stabilizer = [x for x in elements if on_blocks(x, b) == b]
            block_local &= _primitive(_generated_by(
                _images_on(stabilizer, b, on_points), len(b)))
        assert local.point_local_primitive == point_local, g.generators
        assert local.block_local_primitive == block_local, g.generators
        if len(elements) <= 200:
            index = {b: j for j, b in enumerate(blocks)}
            image = SimpleNamespace(degree=len(blocks), generators=[
                Permutation([index[on_blocks(x.images, b)] for b in blocks])
                for x in g.generators])
            assert (local.block_quasiprimitive
                    == quasiprimitive_by_lattice(image)), g.generators
            seen[f"{path} checked"] += 1

        if local.flag_transitive:
            action = DesignAction(g, structure)
            left = action.point_stabilizer(blocks[0][0])
            ratios, agrees = double_coset_ratios(
                g, left, action.block_stabilizer(0))
            expected = ((report.parameters.lam,
                         len(elements) - left.order()),)
            assert ((report.checks["lambda_constancy"] == PASS)
                    == (ratios == expected and agrees)), g.generators
            assert action.lambda_crosscheck().ratios == ratios, g.generators
            seen["lambda checked"] += 1

        # exit code 1 means a theorem violation, or a failed check on a
        # locally primitive design
        failed = FAIL in report.checks.values()
        if report.exit_code() == 1:
            assert report.theorem_violation or (
                local.locally_primitive and failed), g.generators
        seen["lp" if local.locally_primitive else "not lp"] += 1
        seen["not flag-transitive"] += not local.flag_transitive
        seen["failed check, not lp"] += failed and not local.locally_primitive
    assert all(seen.values()), seen
