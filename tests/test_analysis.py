import pytest

from bruteforce import (block_cells_by_union_find, is_regular,
                        is_semiregular, primitive_by_partitions,
                        quasiprimitive_by_lattice)
from conftest import group, quasiprimitive_by_walk
from permdesign.analysis import (IntransitiveError, classify_point_action,
                                 is_primitive, is_quasiprimitive,
                                 minimal_block_system,
                                 minimal_normal_subgroups,
                                 primitivity_status)
from permdesign.group import GroupWithChain


def test_minimal_block_system_c4_opposite_seed():
    c4 = group(4, "(1 2 3 4)")
    system = minimal_block_system(c4, 0, 2)
    assert system.cells == ((0, 2), (1, 3))
    assert system.cell_size == 2


def test_minimal_block_system_c4_adjacent_seed():
    c4 = group(4, "(1 2 3 4)")
    system = minimal_block_system(c4, 0, 1)
    assert system.is_trivial
    assert system.cells == ((0, 1, 2, 3),)


def test_minimal_block_system_s4_trivial(s4):
    for x in range(1, 4):
        assert minimal_block_system(s4, 0, x).is_trivial


def test_minimal_block_system_equal_seeds(s4):
    with pytest.raises(ValueError):
        minimal_block_system(s4, 1, 1)


@pytest.mark.parametrize("seeds", [(0, -1), (0, -2), (0, 6)])
def test_minimal_block_system_seed_out_of_range(seeds):
    c6 = group(6, "(1 2 3 4 5 6)")
    with pytest.raises(ValueError):
        minimal_block_system(c6, *seeds)


def test_minimal_block_system_intransitive():
    with pytest.raises(IntransitiveError):
        minimal_block_system(group(4, "(1 2)"), 0, 1)


def test_block_system_invariance_under_generators():
    d6 = group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")
    for x in range(1, 6):
        system = minimal_block_system(d6, 0, x)
        cells = {frozenset(c) for c in system.cells}
        for g in d6.generators:
            for c in system.cells:
                assert frozenset(g.images[p] for p in c) in cells


PRIMITIVITY_CASES = [
    ("pgl32", 7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)"), True),
    ("d4", 4, ("(1 2 3 4)", "(1 3)"), False),
    ("c4", 4, ("(1 2 3 4)",), False),
    ("c5", 5, ("(1 2 3 4 5)",), True),       # prime degree
    ("f21", 7, ("(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)"), True),
    ("s4", 4, ("(1 2)", "(1 2 3 4)"), True),
    ("a4", 4, ("(1 2 3)", "(2 3 4)"), True),
    ("c6", 6, ("(1 2 3 4 5 6)",), False),
    ("d6", 6, ("(1 2 3 4 5 6)", "(2 6)(3 5)"), False),
    ("c2wrc3", 6, ("(1 2)", "(3 4)", "(5 6)", "(1 3 5)(2 4 6)"), False),
    ("a5-on-10", 10, None, True),
]


def _a5_on_pairs():
    from itertools import combinations
    a5 = group(5, "(1 2 3)", "(3 4 5)")
    from permdesign.group import induced_action
    pairs = [frozenset(c) for c in combinations(range(5), 2)]
    return induced_action(
        a5, pairs, lambda o, g: frozenset(g.images[x] for x in o)).image


@pytest.mark.parametrize("name,deg,gens,expected", PRIMITIVITY_CASES,
                         ids=[c[0] for c in PRIMITIVITY_CASES])
def test_is_primitive_matches_partition_bruteforce(name, deg, gens, expected):
    g = _a5_on_pairs() if gens is None else group(deg, *gens)
    assert is_primitive(g) == expected
    assert primitive_by_partitions(g) == expected


def test_primitivity_status_intransitive():
    assert primitivity_status(group(4, "(1 2)")) == "intransitive"
    assert not is_primitive(group(4, "(1 2)"))


A4_REGULAR = ("(1 4 7)(2 5 8)(3 6 9)(10 12 11)",
              "(1 2 3)(4 9 12)(5 7 10)(6 8 11)")

QUASIPRIMITIVITY_CASES = [
    ("c2", 2, ("(1 2)",), True),
    ("d4", 4, ("(1 2 3 4)", "(1 3)"), False),
    ("c4", 4, ("(1 2 3 4)",), False),  # the order-2 subgroup is intransitive
    ("s4", 4, ("(1 2)", "(1 2 3 4)"), True),
    ("a4", 4, ("(1 2 3)", "(2 3 4)"), True),
    ("f21", 7, ("(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)"), True),
    ("pgl32", 7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)"), True),
    ("a5", 5, ("(1 2 3)", "(3 4 5)"), True),
    ("s5", 5, ("(1 2)", "(1 2 3 4 5)"), True),
    ("d6", 6, ("(1 2 3 4 5 6)", "(2 6)(3 5)"), False),
    ("c6", 6, ("(1 2 3 4 5 6)",), False),
    ("c2wrc3", 6, ("(1 2)", "(3 4)", "(5 6)", "(1 3 5)(2 4 6)"), False),
    ("f56", 8, None, True),
    # A4 acting on itself: each of its 11 base block systems is faithful,
    # yet the Klein four-group is normal with three orbits
    ("a4_regular", 12, A4_REGULAR, False),
]


def _f56():
    # one-dimensional affine group over the 8-element field, degree 8
    from permdesign.geometry import classical_group_generators
    return classical_group_generators("AGL", 1, 8)


@pytest.mark.parametrize("name,deg,gens,expected", QUASIPRIMITIVITY_CASES,
                         ids=[c[0] for c in QUASIPRIMITIVITY_CASES])
def test_is_quasiprimitive_matches_lattice_bruteforce(name, deg, gens, expected):
    g = _f56() if gens is None else group(deg, *gens)
    assert g.order() <= 2000
    assert is_quasiprimitive(g) == expected
    assert quasiprimitive_by_lattice(g) == expected


def test_regular_translation_group():
    z7 = group(7, "(1 2 3 4 5 6 7)")
    assert is_regular(z7)
    assert is_semiregular(z7)


def test_regular_translations_of_agl32():
    from permdesign.analysis import minimal_normal_subgroups
    from permdesign.geometry import classical_group_generators
    agl32 = classical_group_generators("AGL", 3, 2)
    witness = minimal_normal_subgroups(agl32)
    assert len(witness) == 1
    assert witness[0].order() == 8
    assert is_regular(witness[0])


def test_s3_not_regular():
    s3 = group(3, "(1 2)", "(1 2 3)")
    assert not is_regular(s3)
    assert not is_semiregular(s3)


def test_minimal_normal_subgroups_f21(frobenius21):
    minimals = minimal_normal_subgroups(frobenius21)
    assert [m.order() for m in minimals] == [7]


def test_minimal_normal_subgroups_s4(s4):
    minimals = minimal_normal_subgroups(s4)
    assert [m.order() for m in minimals] == [4]
    klein = minimals[0]
    assert all(p.order() in (1, 2) for p in klein.elements())


def test_minimal_normal_subgroup_of_simple_group(a7):
    minimals = minimal_normal_subgroups(a7)
    assert len(minimals) == 1
    assert minimals[0].order() == a7.order()


def test_classify_frobenius21_affine(frobenius21):
    report = classify_point_action(frobenius21)
    assert report.tag == "HA"
    assert report.witness.order() == 7
    assert is_regular(report.witness)


def test_classify_pgl42_almost_simple(pg132_pair):
    _, pgl42 = pg132_pair
    report = classify_point_action(pgl42)
    assert report.tag == "AS"
    assert report.witness.order() == pgl42.order()  # simple socle is the group


def test_classify_agl32_affine():
    from permdesign.geometry import classical_group_generators
    agl32 = classical_group_generators("AGL", 3, 2)
    report = classify_point_action(agl32)
    assert report.tag == "HA"
    assert report.witness.order() == 8


def test_classify_other():
    d4 = group(4, "(1 2 3 4)", "(1 3)")
    assert classify_point_action(d4).tag == "OTHER"


def test_ha_witness_degree_is_prime_power(corpus_instances):
    for inst in corpus_instances:
        report = classify_point_action(inst.group)
        if report.tag == "HA":
            n = report.witness.order()
            assert n == inst.group.degree
            p = min(f for f in range(2, n + 1) if n % f == 0)
            while n % p == 0:
                n //= p
            assert n == 1


def test_as_witness_is_simple(corpus_instances):
    from permdesign.analysis import _is_simple
    for inst in corpus_instances:
        report = classify_point_action(inst.group)
        if report.tag == "AS":
            assert _is_simple(report.witness)


def _walk_verdicts(g):
    """Quasiprimitivity and type report from the class-representative walk
    alone, on a fresh copy of the group."""
    from permdesign.analysis import _classify_from_closures
    return (quasiprimitive_by_walk(g),
            _classify_from_closures(
                GroupWithChain(g.generators)).to_json_dict())


def _certificate_verdicts(g):
    fresh = GroupWithChain(g.generators)
    return (is_quasiprimitive(fresh),
            classify_point_action(fresh).to_json_dict())


def test_certificates_match_the_walk_on_corpus(corpus_instances,
                                               monkeypatch):
    # the reports, witnesses included, equal the walk's.  The block-system
    # test decides every quasiprimitivity, and certificates the type of
    # every primitive corpus action but A7 on 15 points, whose certificate
    # walks the 168 elements of its stabilizer, so elsewhere an element
    # limit of 10 changes nothing; analyze types no other action
    from permdesign.designgroup import DesignAction
    for inst in corpus_instances:
        image = DesignAction(inst.group, inst.structure).block_action.image
        for g in (inst.group, image):
            walk = _walk_verdicts(g)
            assert _certificate_verdicts(g) == walk, inst.name
            fresh = GroupWithChain(g.generators)
            with monkeypatch.context() as m:
                m.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
                assert is_quasiprimitive(fresh) == walk[0], inst.name
                if (is_primitive(g)
                        and (g.degree, g.order()) != (15, 2520)):
                    assert _certificate_verdicts(g) == walk, inst.name


def test_imprimitive_quasiprimitive_group_walks_only_for_its_type(
        monkeypatch):
    # its faithful cell actions decide quasiprimitivity; only the type,
    # with no certificate for an imprimitive group, takes the walk
    from conftest import a5_on_ordered_pairs
    from permdesign import group as chains
    calls = []
    original = chains.prime_order_class_representatives

    def counting(g, *args, **kwargs):
        calls.append(g)
        return original(g, *args, **kwargs)
    monkeypatch.setattr(chains, "prime_order_class_representatives",
                        counting)
    g = a5_on_ordered_pairs()
    assert primitivity_status(g) == "imprimitive"
    walk = _walk_verdicts(g)
    calls.clear()
    fresh = GroupWithChain(g.generators)
    assert is_quasiprimitive(fresh) is True
    assert calls == []
    assert classify_point_action(fresh).to_json_dict() == walk[1]
    assert walk[0] is True and walk[1]["tag"] == "AS"
    assert len(calls) == 1


def test_unfaithful_cell_action_decides_non_quasiprimitive(ag322_pair,
                                                           symplectic_pair,
                                                           monkeypatch):
    # the translations fix every parallel class, so G is not faithful on
    # the cells of a base block system; limit 10 would refuse a walk
    from permdesign import analysis
    from permdesign.designgroup import DesignAction
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    for structure, g in (ag322_pair, symplectic_pair):
        image = DesignAction(g, structure).block_action.image
        assert primitivity_status(image) == "imprimitive"
        assert any(analysis._cell_action(image, s).order() < image.order()
                   for s in analysis.base_block_systems(image))
        assert is_quasiprimitive(image) is False


def test_quasiprimitivity_is_exact_past_the_element_limit(corpus_instances,
                                                         monkeypatch):
    # the block-system recursion walks and draws nothing, so an element
    # limit of 1 changes no verdict: A4 regular on 12 points, whose 7 base
    # block systems (one per subgroup of order 2 or 3) are all faithful, A5
    # on ordered pairs, and every
    # corpus block image, also in the local-primitivity report
    from conftest import a5_on_ordered_pairs
    from permdesign import analysis
    from permdesign import group as chains
    from permdesign.designgroup import DesignAction
    a4 = group(12, *A4_REGULAR)
    systems = analysis.base_block_systems(a4)
    assert len(systems) == 7
    assert all(analysis._cell_action(a4, s).order() == 12 for s in systems)
    cases = [(a4, None, False), (a5_on_ordered_pairs(), None, True)]
    for inst in corpus_instances:
        action = DesignAction(GroupWithChain(inst.group.generators),
                              inst.structure)
        image = action.block_action.image
        cases.append((image, action, quasiprimitive_by_walk(image)))
    calls = []

    def refusing(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return spy
    monkeypatch.setattr(analysis, "class_closures", refusing("class_closures"))
    monkeypatch.setattr(chains, "class_closures", refusing("class_closures"))
    monkeypatch.setattr(GroupWithChain, "random_element",
                        refusing("random_element"))
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "1")
    for g, action, expected in cases:
        assert is_quasiprimitive(GroupWithChain(g.generators)) is expected
        if action is not None:
            report = action.local_primitivity_report()
            assert report.block_quasiprimitive is expected
            assert not any("unknown" in note for note in report.notes)
    assert calls == []


def test_primitivity_runs_one_block_system_per_stabilizer_orbit(
        pg132_pair, monkeypatch):
    from permdesign import analysis
    from permdesign.designgroup import DesignAction
    from permdesign.group import orbits_of
    structure, g = pg132_pair
    image = DesignAction(g, structure).block_action.image
    calls = []
    original = analysis.minimal_block_system

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(analysis, "minimal_block_system", counting)
    assert primitivity_status(image) == "primitive"
    b0 = image.base()[0]
    stabilizer = image.point_stabilizer(b0)
    orbits = orbits_of(stabilizer.generators, image.degree)
    assert len(calls) == len(orbits) - 1 == 2  # rank 3 on the 35 lines
    assert all(a == b0 for _, a, _ in calls)


def test_block_systems_match_union_find_over_the_given_generators(
        walk_cases):
    """minimal_block_system merges over the walk generators; the oracle
    merges over all given generators.  Every seed x is tried up to degree
    160, and one x per orbit of G_b0 beyond (the system depends only on
    that orbit)."""
    from permdesign.group import orbits_of
    for name, g in walk_cases:
        if not g.is_transitive():
            continue
        b0 = g.base()[0]
        if g.degree <= 160:
            seeds = [x for x in range(g.degree) if x != b0]
        else:
            stabilizer = g.point_stabilizer(b0)
            seeds = [min(o) for o in orbits_of(stabilizer.generators, g.degree)
                     if b0 not in o]
        for x in seeds:
            expected = block_cells_by_union_find(g.generators, g.degree, b0, x)
            assert minimal_block_system(g, b0, x).cells == expected, (name, x)


def test_base_block_systems_are_the_distinct_nontrivial_oracle_systems(
        walk_cases):
    """base_block_systems against the oracle's union-find over the given
    generators, for one x per orbit of G_b0: the systems with more than
    one cell, each kept where first seen."""
    from conftest import a5_on_ordered_pairs
    from permdesign import analysis
    from permdesign.group import orbits_of
    cases = [*walk_cases, ("a4_regular", group(12, *A4_REGULAR)),
             ("a5_on_ordered_pairs", a5_on_ordered_pairs())]
    for name, g in cases:
        if not g.is_transitive():
            continue
        b0 = g.base()[0]
        stabilizer = g.point_stabilizer(b0)
        expected = []
        for orbit in orbits_of(stabilizer.generators, g.degree):
            if b0 in orbit:
                continue
            cells = block_cells_by_union_find(g.generators, g.degree, b0,
                                              min(orbit))
            if len(cells) > 1 and cells not in expected:
                expected.append(cells)
        assert [s.cells for s in analysis.base_block_systems(g)] == expected, \
            name


def test_analyze_computes_each_block_system_once(corpus_instances,
                                                 monkeypatch):
    from permdesign import analysis
    from permdesign.analyzer import analyze
    (inst,) = [i for i in corpus_instances if i.name == "symplectic-2-2"]
    seen = []
    groups = []  # held, so that no id is reused while counting
    original = analysis.minimal_block_system

    def counting(g, a, b):
        groups.append(g)
        seen.append((id(g), a, b))
        return original(g, a, b)
    monkeypatch.setattr(analysis, "minimal_block_system", counting)
    report = analyze(inst.group, inst.structure, inst.name)
    assert report.block_type == "non-quasiprimitive"
    assert seen and len(seen) == len(set(seen))
    calls = len(seen)
    for g in {id(g): g for g in groups}.values():
        systems = analysis.base_block_systems(g)
        assert isinstance(systems, tuple)
        assert analysis.base_block_systems(g) is systems
    assert len(seen) == calls  # every group's systems came from its cache


def _spy_certificates(monkeypatch):
    """Record each call of the Iwasawa and simple-stabilizer certificates
    and of the class-representative walk, as (name, degree, order) and,
    for the certificates, their answer."""
    from permdesign import analysis
    from permdesign import group as chains
    calls = []

    def spying(name, original):
        def spy(g, *args, **kwargs):
            out = original(g, *args, **kwargs)
            calls.append((name, g.degree, g.order(), out))
            return out
        return spy
    for name in ("_iwasawa_certificate", "_simple_stabilizer_certificate"):
        monkeypatch.setattr(analysis, name,
                            spying(name, getattr(analysis, name)))
    original = chains.prime_order_class_representatives

    def walking(g, *args, **kwargs):
        calls.append(("walk", g.degree, g.order(), None))
        return original(g, *args, **kwargs)
    monkeypatch.setattr(chains, "prime_order_class_representatives", walking)
    return calls


@pytest.mark.parametrize("name, deg, gens, order, socle, calls", [
    # PSL(2,5) on GF(5) and infinity (x -> x + 1, x -> -1/x): Iwasawa
    # decides first, from the order-5 normal subgroup of the stabilizer D5
    ("A5 on 6", 6, ("(1 2 3 4 5)", "(1 6)(2 5)"), 60, 60,
     [("_iwasawa_certificate", 6, 60, True)]),
    # Iwasawa fails (the stabilizer A5 has no abelian normal subgroup),
    # and the stabilizer walk proves A6 simple
    ("A6 on 6", 6, ("(1 2 3)", "(2 3 4 5 6)"), 360, 360,
     [("_iwasawa_certificate", 6, 360, False), ("walk", 6, 60, None),
      ("_simple_stabilizer_certificate", 6, 360, True)]),
    # S6 is not perfect, so neither certificate is tried: the walk
    # decides, and walks the socle A6 to prove it simple
    ("S6 on 6", 6, ("(1 2)", "(1 2 3 4 5 6)"), 720, 360,
     [("walk", 6, 720, None), ("walk", 6, 360, None)]),
    # degree 7 is a prime power: declined before the stabilizer is walked
    ("A7 on 7", 7, ("(1 2 3)", "(1 2 3 4 5 6 7)"), 2520, 2520,
     [("_iwasawa_certificate", 7, 2520, False),
      ("_simple_stabilizer_certificate", 7, 2520, False),
      ("walk", 7, 2520, None)]),
])
def test_simple_stabilizer_certificate_boundaries(name, deg, gens, order,
                                                  socle, calls, monkeypatch):
    from permdesign.analysis import _classify_from_closures
    g = group(deg, *gens)
    assert g.order() == order
    walk = _classify_from_closures(GroupWithChain(g.generators)).to_json_dict()
    spied = _spy_certificates(monkeypatch)
    assert classify_point_action(g).to_json_dict() == walk, name
    assert walk["tag"] == "AS" and walk["witness_order"] == socle, name
    assert spied == calls, name


def test_simple_stabilizer_certificate_needs_both_bounds(monkeypatch):
    # each group is primitive with a simple stabilizer, yet not simple:
    # A5 x A5 on the 60 elements of A5 (x -> a x b) has degree 60, and
    # AGL(3,2) has prime-power degree 8 (its affine search switched off)
    from permdesign import analysis
    from permdesign.geometry import classical_group_generators
    from permdesign.perm import Permutation
    a5 = group(5, "(1 2 3)", "(3 4 5)")
    elements = a5.elements()
    index = {x.images: i for i, x in enumerate(elements)}
    a5xa5 = GroupWithChain(tuple(
        Permutation([index[side(x, s).images] for x in elements])
        for s in a5.generators
        for side in (lambda x, s: s * x, lambda x, s: x * s)))
    assert a5xa5.order() == 3600
    monkeypatch.setattr(analysis, "_AFFINE_TRIES", 0)
    agl32 = classical_group_generators("AGL", 3, 2)
    for g, tag in ((a5xa5, "OTHER"), (agl32, "HA")):
        assert is_primitive(g)
        stabilizer = g.point_stabilizer(g.base()[0])
        assert analysis._is_simple(stabilizer)
        assert not analysis._simple_stabilizer_certificate(g)
        walk = analysis._classify_from_closures(GroupWithChain(g.generators))
        assert walk.tag == tag
        assert (classify_point_action(g).to_json_dict()
                == walk.to_json_dict())


def test_simple_stabilizer_certificate_within_element_limit(
        corpus_instances, monkeypatch):
    # A7 on 15 points: the stabilizer PSL(2,7) has 168 elements.  Below
    # that the certificate declines and the walk of G refuses, naming |G|
    from permdesign.analysis import _classify_from_closures
    from permdesign.group import EnumerationLimitError
    inst = next(i for i in corpus_instances if i.name == "a7-cos-15-3-1")
    walk = _classify_from_closures(
        GroupWithChain(inst.group.generators)).to_json_dict()
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "100")
    with pytest.raises(EnumerationLimitError,
                       match=r"^group order 2520 exceeds enumeration limit "
                             r"100 \(PERMDESIGN_ELEMENT_LIMIT\)$"):
        classify_point_action(GroupWithChain(inst.group.generators))
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "168")
    report = classify_point_action(GroupWithChain(inst.group.generators))
    assert report.to_json_dict() == walk
    assert walk["tag"] == "AS" and walk["witness_order"] == 2520


def test_non_perfect_group_past_the_limit_refuses_without_a_walk(
        monkeypatch):
    # PGL(4,3) on the 40 points of PG(3,3) is primitive and not perfect,
    # so no AS certificate walks its stabilizer of 303 264 elements, and
    # the walk of G refuses before it starts
    from permdesign import group as chains
    from permdesign.geometry import build_PG
    from permdesign.group import EnumerationLimitError
    _, g = build_PG(3, 3, 1)
    monkeypatch.delenv("PERMDESIGN_ELEMENT_LIMIT", raising=False)
    calls = []
    monkeypatch.setattr(chains, "prime_order_class_representatives",
                        lambda *args: calls.append(args))
    with pytest.raises(EnumerationLimitError,
                       match=r"^group order 12130560 exceeds enumeration "
                             r"limit 1000000 \(PERMDESIGN_ELEMENT_LIMIT\)$"):
        classify_point_action(g)
    assert calls == []


def test_is_perfect_forms_commutators_of_the_walk_generators(
        pg132_pair, monkeypatch):
    # redundant generators change neither the answer nor the seed count
    from math import comb
    from random import Random

    from permdesign import analysis
    rng = Random(5)
    seeds = []
    original = analysis.normal_closure

    def counting(g, s):
        seeds.append(len(s))
        return original(g, s)
    monkeypatch.setattr(analysis, "normal_closure", counting)
    _, pgl42 = pg132_pair
    s5 = group(5, "(1 2)", "(1 2 3 4 5)")
    for g, perfect in ((pgl42, True), (s5, False)):
        padded = GroupWithChain(g.generators + tuple(
            g.random_element(rng) for _ in range(6)))
        assert len(padded.walk_generators) < len(padded.generators)
        for h in (g, padded):
            seeds.clear()
            assert analysis._is_perfect(h) is perfect
            assert seeds == [comb(len(h.walk_generators), 2)]


# groups classified by each route: the affine witness (AGammaL(1,8), and
# C7, whose witness is the group itself), Iwasawa's lemma (PGL(3,2) on the
# Fano points), the simple stabilizer (A6 on 6) and the walk (S6 on 6)
KEPT_CASES = (("AGammaL(1,8)", 8, ("(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)",
                                   "(1 8)(2 4)(3 7)(5 6)"), "HA"),
              ("C7", 7, ("(1 2 3 4 5 6 7)",), "HA"),
              ("PGL(3,2)", 7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)"), "AS"),
              ("A6", 6, ("(1 2 3)", "(2 3 4 5 6)"), "AS"),
              ("S6", 6, ("(1 2)", "(1 2 3 4 5 6)"), "AS"))


@pytest.mark.parametrize("name, deg, gens, tag", KEPT_CASES)
def test_second_classification_reads_the_kept_certificates(
        name, deg, gens, tag, monkeypatch):
    # the certificates and walks of the first call are kept on the group:
    # the second call draws no random element and forms no normal closure,
    # and its report is the first one
    from permdesign import analysis
    from permdesign import group as chains
    g = group(deg, *gens)
    first = classify_point_action(g)
    assert first.tag == tag, name
    calls = []

    def refuse(what):
        def called(*args, **kwargs):
            calls.append(what)
            raise AssertionError(f"{what} called again on {name}")
        return called
    monkeypatch.setattr(analysis, "normal_closure", refuse("normal_closure"))
    monkeypatch.setattr(chains, "normal_closure", refuse("normal_closure"))
    monkeypatch.setattr(GroupWithChain, "random_element",
                        refuse("random_element"))
    assert classify_point_action(g) == first, name
    assert calls == []


def _classified(g):
    """The classification's JSON, or the refusal's message."""
    from permdesign.group import EnumerationLimitError
    try:
        return classify_point_action(g).to_json_dict()
    except EnumerationLimitError as exc:
        return str(exc)


@pytest.mark.parametrize("limit", ["10", "100", "400"])
def test_kept_certificates_leave_refusals_to_the_limit(limit, monkeypatch,
                                                       corpus_instances):
    # under a lowered limit, a group classified before answers or refuses
    # as a fresh copy of it does, and at the default limit again it gives
    # its first report: the walks refuse on every call, kept or not.  A7
    # on 15 points refuses below its stabilizer's 168 elements
    a7 = next(inst.group for inst in corpus_instances
              if inst.name == "a7-cos-15-3-1")
    cases = [(name, group(deg, *gens)) for name, deg, gens, _ in KEPT_CASES]
    cases.append(("A7 on 15", GroupWithChain(a7.generators)))
    outcomes = set()
    for name, g in cases:
        monkeypatch.delenv("PERMDESIGN_ELEMENT_LIMIT", raising=False)
        first = _classified(g)
        monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", limit)
        kept = _classified(g)
        assert kept == _classified(GroupWithChain(g.generators)), name
        outcomes.add(type(kept))
        monkeypatch.delenv("PERMDESIGN_ELEMENT_LIMIT")
        assert _classified(g) == first, name
    assert outcomes == {str, dict}  # some refuse, some answer
