import importlib.util
import os
import random
import sys
from collections import Counter

import pytest

from bruteforce import (coset_graph_blocks, coset_kernel,
                        double_coset_ratios, mulclose, right_coset)
from conftest import group, perm
from permdesign.cosets import (CosetGraph, CosetSpace, CrosscheckResult,
                               IndexLimitError, SubgroupError,
                               _coset_orbit,
                               canonical_coset_representative,
                               coset_action, coset_graph_design,
                               coset_graph_faithful,
                               double_coset_lambda, is_trivial_factorization,
                               lambda_constancy_crosscheck,
                               subgroup_intersection, union_generators)
from permdesign.discovery import (DiscoveryError, cyclic_normalizer,
                                  first_element_of_order,
                                  random_subgroups_of_order,
                                  subgroups_conjugate_in)
from permdesign.group import (GroupWithChain, MembershipError, _Chain,
                              generates_order)
from permdesign.incidence import verify_design
from permdesign.io import read_group_file
from permdesign.perm import DegreeMismatchError, Permutation

COSET_INPUTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "coset_inputs")
COSET_TRIPLES = ("a7-cos-15-3-1", "a7-cos-15-7-3", "agl-3-3-lines",
                 "pgl-4-3-lines", "symplectic-2-3")


def _coset_triple(name):
    """(G, L, R) as committed under perfbench/coset_inputs."""
    return tuple(read_group_file(os.path.join(COSET_INPUTS,
                                              f"{name}.{role}.group"))
                 for role in "GLR")


@pytest.fixture(scope="module")
def a7_subgroups(a7):
    rng = random.Random(99)
    left = random_subgroups_of_order(a7, 168, rng=rng)[0]
    right = None
    while right is None:
        cand = random_subgroups_of_order(a7, 72, rng=rng)[0]
        if subgroup_intersection(left, cand).order() == 24:
            right = cand
    return left, right


def test_coset_space_counts(frobenius21):
    stab = frobenius21.point_stabilizer(0)
    space = CosetSpace(frobenius21, stab)
    assert space.index == 7
    assert len(space.representatives) == 7
    # representatives lie in pairwise distinct cosets
    for i, x in enumerate(space.representatives):
        for j, y in enumerate(space.representatives):
            if i != j:
                assert not stab.contains(x * y.inverse())


def test_canonical_representative_is_coset_invariant(frobenius21):
    stab = frobenius21.point_stabilizer(0)
    x = perm("(1 2 3 4 5 6 7)", 7)
    for s in stab.elements():
        assert canonical_coset_representative(stab, s * x) == \
               canonical_coset_representative(stab, x)


def test_canonical_representative_full_subgroup_sweep(fano_pair):
    # every element of the coset L*x reduces to the same representative
    _, g = fano_pair
    left = g.point_stabilizer(0)
    assert left.order() == 24
    for x in (perm("(1 2 3 4 5 6 7)", 7), perm("(2 3)(4 5)", 7)):
        if not g.contains(x):
            continue
        reps = {canonical_coset_representative(left, s * x).images
                for s in left.elements()}
        assert len(reps) == 1
        assert left.contains(Permutation(next(iter(reps))) * x.inverse())


def _least_base_images(subgroup, x):
    """Every element of (subgroup)*x whose images of subgroup.base() are
    lexicographically least, from the coset formed in full."""
    base = subgroup.base()
    coset = right_coset(mulclose(subgroup.generators), x.images)
    least = min([t[b] for b in base] for t in coset)
    return [t for t in coset if [t[b] for b in base] == least]


def test_coset_key_is_the_least_base_image_element(s4):
    """The coset key is the one element of H*x whose images of H's base are
    lexicographically least, against the coset formed in full: subgroups
    of S4 and A4, a tail of S4's chain, and a stabilizer built on a chain
    of its own, for every x of the ambient group."""
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    b0 = s4.base()[0]
    other = next(p for p in range(4) if p != b0)
    cases = [(s4, a4), (s4, group(4, "(1 2 3 4)", "(1 3)")),
             (s4, group(4, "(1 2)(3 4)", "(1 3)(2 4)")),
             (s4, group(4, "(2 3)")), (a4, group(4, "(1 2 3)")),
             (a4, group(4, "(1 2)(3 4)")),
             (s4, s4.point_stabilizer(b0)), (s4, s4.point_stabilizer(other)),
             (a4, a4.point_stabilizer(other))]
    for ambient, sub in cases:
        assert sub.is_subgroup_of(ambient)
        for t in mulclose(ambient.generators):
            x = Permutation(t)
            (least,) = _least_base_images(sub, x)
            assert canonical_coset_representative(sub, x).images == least


def test_position_of_refuses_permutations_outside_the_group():
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    space = CosetSpace(a4, group(4, "(1 2)(3 4)"))
    assert space.position_of(perm("(1 2)(3 4)", 4)) == 0
    with pytest.raises(MembershipError, match=r"\(1 2\) is not in the group"):
        space.position_of(perm("(1 2)", 4))
    with pytest.raises(DegreeMismatchError):
        space.position_of(perm("(1 2 3)", 5))


def test_coset_action_recovers_natural_action(frobenius21):
    stab = frobenius21.point_stabilizer(0)
    action = coset_action(frobenius21, stab)
    image = action.image
    assert image.degree == 7
    assert image.order() == 21
    assert image.is_transitive()
    assert image.point_stabilizer(0).order() == 3
    assert action.faithful


def test_coset_action_on_whole_group(s4):
    action = coset_action(s4, s4)
    assert action.image.degree == 1


def test_coset_action_degree_15(a7, a7_subgroups):
    left, _ = a7_subgroups
    action = coset_action(a7, left)
    assert action.image.degree == 15
    assert action.image.is_transitive()
    assert action.image.order() == 2520
    # the action is 2-transitive: a point stabilizer moves every other point
    # to every other point
    stab = action.image.point_stabilizer(0)
    assert stab.orbit(1) == frozenset(range(1, 15))


def test_coset_action_non_subgroup_rejected(a7):
    with pytest.raises(SubgroupError):
        coset_action(a7, group(7, "(1 2)"))


def test_index_limit(a7, monkeypatch):
    monkeypatch.setenv("PERMDESIGN_INDEX_LIMIT", "3")
    with pytest.raises(IndexLimitError):
        CosetSpace(a7, a7.point_stabilizer(0))


def test_coset_graph_design_fano_parameters(fano_pair):
    structure, g = fano_pair
    alpha = structure.blocks[0][0]
    left = g.point_stabilizer(alpha)
    from permdesign.designgroup import DesignAction
    right = DesignAction(g, structure).block_stabilizer(0)
    rebuilt = coset_graph_design(g, left, right)
    params = verify_design(rebuilt)
    assert (params.v, params.b, params.r, params.k, params.lam) == (7, 7, 3, 3, 1)


def test_coset_graph_design_a7(a7, a7_subgroups):
    left, right = a7_subgroups
    structure = coset_graph_design(a7, left, right)
    params = verify_design(structure)
    assert (params.v, params.b, params.r, params.k, params.lam) == \
           (15, 35, 7, 3, 1)


def test_coset_graph_invariance(a7, a7_subgroups):
    left, right = a7_subgroups
    graph = CosetGraph(a7, left, right)
    blocks = {frozenset(b) for b in graph.structure.blocks}
    for g in a7.generators:
        for block in blocks:
            image = frozenset(
                graph.space_points.position_of(
                    graph.space_points.representatives[i] * g)
                for i in block)
            assert image in blocks


def test_trivial_factorization_cases(s4):
    s3 = group(4, "(1 2)", "(1 2 3)")
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    assert is_trivial_factorization(s4, s3, a4)
    assert is_trivial_factorization(s4, s4, a4)


def test_trivial_factorization_refuses_subgroups_outside_the_group():
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    c3 = group(4, "(1 2 3)")
    outside = group(4, "(1 2)")
    with pytest.raises(SubgroupError):
        is_trivial_factorization(a4, c3, outside)
    with pytest.raises(SubgroupError):
        is_trivial_factorization(a4, outside, c3)
    with pytest.raises(SubgroupError):
        is_trivial_factorization(a4, c3, group(5, "(1 2 3)"))
    assert not is_trivial_factorization(a4, c3, c3)


def test_double_coset_lambda_refuses_elements_outside_the_group():
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    left = group(4, "(1 2 3)")
    right = group(4, "(1 2)(3 4)")
    with pytest.raises(MembershipError, match=r"\(1 2\) is not in the group"):
        double_coset_lambda(a4, left, right, perm("(1 2)", 4))
    with pytest.raises(DegreeMismatchError):
        double_coset_lambda(a4, left, right, perm("(1 2)", 5))
    # for g in L: the replication number |L : L n R| = 3
    assert double_coset_lambda(a4, left, right, Permutation.identity(4)) == 3


def test_double_coset_lambda_refuses_subgroups_outside_the_group():
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    c3 = group(4, "(1 2 3)")
    outside = group(4, "(1 2)")
    identity = Permutation.identity(4)
    with pytest.raises(SubgroupError):
        double_coset_lambda(a4, outside, c3, identity)
    with pytest.raises(SubgroupError):
        double_coset_lambda(a4, c3, outside, identity)


@pytest.mark.parametrize("right", ["(1 2 3)", "(1 2)(3 4)"])
def test_crosscheck_refuses_subgroups_outside_the_given_graph_group(right):
    # the coset graph the crosscheck builds checks both subgroups, also
    # after the walks of a valid triple are kept on them
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    c3, r = group(4, "(1 2 3)"), group(4, right)
    assert lambda_constancy_crosscheck(a4, c3, r).ok
    with pytest.raises(SubgroupError):
        lambda_constancy_crosscheck(a4, group(4, "(1 2)"), r)
    with pytest.raises(SubgroupError):
        lambda_constancy_crosscheck(a4, c3, group(4, "(1 2)"))
    assert lambda_constancy_crosscheck(a4, c3, r).ok


def test_fano_pair_is_not_trivial_factorization(fano_pair):
    structure, g = fano_pair
    from permdesign.designgroup import DesignAction
    left = g.point_stabilizer(structure.blocks[0][0])
    right = DesignAction(g, structure).block_stabilizer(0)
    assert subgroup_intersection(left, right).order() == 8
    assert not is_trivial_factorization(g, left, right)  # 24*24/8 != 168


def test_double_coset_lambda_fano(fano_pair):
    structure, g = fano_pair
    from permdesign.designgroup import DesignAction
    alpha = structure.blocks[0][0]
    left = g.point_stabilizer(alpha)
    right = DesignAction(g, structure).block_stabilizer(0)
    # identity gives the replication number
    assert double_coset_lambda(g, left, right, Permutation.identity(7)) == 3
    outside = next(x for x in g.elements() if not left.contains(x))
    assert double_coset_lambda(g, left, right, outside) == 1


def _oracle_result(grp, left, right):
    ratios, graph_agrees = double_coset_ratios(grp, left, right)
    constant = len(ratios) == 1
    return CrosscheckResult(constant=constant,
                            value=ratios[0][0] if constant else None,
                            ratios=ratios, graph_agrees=graph_agrees)


def _random_subgroup(rng, degree):
    gens = []
    for _ in range(rng.randint(1, 2)):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return GroupWithChain(tuple(gens))


def _oracle_cases(fano_pair, frobenius21, s4):
    from permdesign.designgroup import DesignAction
    structure, pgl32 = fano_pair
    cases = [
        (pgl32, pgl32.point_stabilizer(structure.blocks[0][0]),
         DesignAction(pgl32, structure).block_stabilizer(0)),
        # the two nontrivial suborbits of F21 are paired with each other
        (frobenius21, frobenius21.point_stabilizer(0),
         frobenius21.point_stabilizer(1)),
        (frobenius21, frobenius21.point_stabilizer(0),
         group(7, "(1 2 3 4 5 6 7)")),
        (s4, group(4, "(1 2)"), group(4, "(3 4)")),
    ]
    s5 = group(5, "(1 2)", "(1 2 3 4 5)")
    rng = random.Random(5)
    while len(cases) < 12:
        left, right = _random_subgroup(rng, 5), _random_subgroup(rng, 5)
        if left.order() < s5.order():
            cases.append((s5, left, right))
    return cases


def test_crosscheck_matches_element_oracle(fano_pair, frobenius21, s4):
    cases = _oracle_cases(fano_pair, frobenius21, s4)
    non_constant = 0
    for grp, left, right in cases:
        result = lambda_constancy_crosscheck(grp, left, right)
        assert result == _oracle_result(grp, left, right)
        non_constant += not result.constant
    assert 2 <= non_constant < len(cases)


def _assert_blocks_match_element_oracle(grp, left, right):
    """The coset graph's blocks, as sets of L-cosets, against the element
    oracle's, one block per R-coset: equal as multisets."""
    graph = CosetGraph(grp, left, right)
    l_set = mulclose(left.generators)
    points = [right_coset(l_set, x.images)
              for x in graph.space_points.representatives]
    assert Counter(frozenset(points[i] for i in block)
                   for block in graph.structure.blocks) == \
        Counter(coset_graph_blocks(grp, left, right).values())
    return graph.structure


def test_coset_graph_blocks_match_element_oracle(fano_pair, frobenius21, s4):
    for grp, left, right in _oracle_cases(fano_pair, frobenius21, s4):
        _assert_blocks_match_element_oracle(grp, left, right)


def test_repeated_block_coset_graphs_match_element_oracle(s4):
    """When several R-cosets meet the same L-cosets, the orbit of block 0
    is shorter than |G:R|, and each block is held once per R-coset."""
    c4 = group(4, "(1 2 3 4)")
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    cases = [(c4, group(4, "(1 3)(2 4)"), GroupWithChain.trivial(4),
              ((0,), (0,), (1,), (1,))),
             (s4, a4, group(4, "(1 2 3)"), ((0,),) * 4 + ((1,),) * 4),
             (s4, s4, a4, ((0,), (0,)))]
    for grp, left, right, blocks in cases:
        structure = _assert_blocks_match_element_oracle(grp, left, right)
        assert structure.blocks == blocks


def test_faithfulness_and_factorization_match_element_oracle(
        fano_pair, frobenius21, s4, chain_builds, finishes):
    from permdesign.cosets import coset_graph_faithful
    c4 = group(4, "(1 2 3 4)")
    center = group(4, "(1 3)(2 4)")
    # the Klein four-group is faithful on neither space alone, but on both
    a, b = "(1 2)(3 4)", "(1 3)(2 4)"
    cases = _oracle_cases(fano_pair, frobenius21, s4) + [
        (c4, center, center), (c4, center, GroupWithChain.trivial(4)),
        (group(4, a, b), group(4, a), group(4, b))]
    faithful = []
    unfaithful = []
    builds = set()
    for grp, left, right in cases:
        chain_builds.clear()
        faithful.append(coset_graph_faithful(grp, left, right))
        assert faithful[-1] == (len(coset_kernel(grp, left, right)) == 1)
        # the image chain on the smaller space, on the other one only when
        # that is not faithful, on the union only when neither is
        small, large = ((left, right) if left.order() >= right.order()
                        else (right, left))
        builds.add(len(chain_builds))
        assert len(chain_builds) == (
            1 if len(coset_kernel(grp, small)) == 1 else
            2 if len(coset_kernel(grp, large)) == 1 else 3)
        # generates_order agrees with the deterministic order on each space
        # and on the union; an unfaithful image enters the deterministic
        # finish below |G|
        order = grp.order()
        tables = [CosetSpace(grp, h).action for h in (small, large)]
        for gens in tables + [union_generators(*tables)]:
            faithful_here = GroupWithChain(gens).order() == order
            del finishes[:]
            assert generates_order(gens, order) == faithful_here
            [(entered, bound)] = finishes
            assert bound == order and (entered == order) == faithful_here
            unfaithful.append(not faithful_here)
        g_set = mulclose(grp.generators)
        l_set = mulclose(left.generators)
        r_set = mulclose(right.generators)
        trivial = len(l_set) * len(r_set) == len(g_set) * len(l_set & r_set)
        assert is_trivial_factorization(grp, left, right) == trivial
    assert True in faithful and False in faithful
    assert builds == {1, 2, 3}
    assert True in unfaithful and False in unfaithful


def _counting_walks(monkeypatch):
    """The (subgroup, generators) of every coset walk made from here on,
    and the number of canonical representatives formed."""
    from permdesign import cosets
    walks, reps = [], [0]
    walk, canonical = cosets._coset_orbit, cosets.canonical_coset_representative

    def counting_walk(subgroup, generators):
        walks.append((subgroup, generators))
        return walk(subgroup, generators)

    def counting_rep(*args):
        reps[0] += 1
        return canonical(*args)

    monkeypatch.setattr(cosets, "_coset_orbit", counting_walk)
    monkeypatch.setattr(cosets, "canonical_coset_representative", counting_rep)
    return walks, reps


@pytest.mark.parametrize("name", COSET_TRIPLES)
def test_faithfulness_after_the_design_walks_nothing(name, monkeypatch):
    """On a committed triple L's coset space is the smaller and faithful:
    coset_graph_design walks [G:L] and the L-cosets in LR, and then
    coset_graph_faithful reads the walk kept on L and walks nothing of R.
    The chain of that image is completed from random products of its
    generators at |G| and sifts no Schreier pair, where the deterministic
    build of the same image sifts some."""
    grp, left, right = _coset_triple(name)
    walks, reps = _counting_walks(monkeypatch)
    coset_graph_design(grp, left, right)
    assert walks == [(left, grp.walk_generators),
                     (left, right.walk_generators)]
    if name == "symplectic-2-3":  # 81 * 6 + 1 on [G:L], 46 in LR
        assert reps[0] == 533
    walks.clear()
    reps[0] = 0
    pairs = []
    sift = _Chain._sift_schreier
    monkeypatch.setattr(_Chain, "_sift_schreier",
                        lambda self, *args: pairs.append(1)
                        or sift(self, *args))
    assert coset_graph_faithful(grp, left, right)
    assert walks == [] and reps == [0] and pairs == []
    assert GroupWithChain(CosetSpace(grp, left).action).order() == grp.order()
    assert pairs


def test_faithfulness_walks_the_other_space_only_when_needed(monkeypatch,
                                                             chain_builds):
    """C4 is not faithful on the cosets of its center but is on those of
    the trivial group: both spaces are walked, the center's first, and no
    union is formed.  The Klein four-group is faithful on neither cosets of
    two of its order-2 subgroups, and only the union is faithful."""
    c4 = group(4, "(1 2 3 4)")
    center, trivial = group(4, "(1 3)(2 4)"), GroupWithChain.trivial(4)
    a, b = "(1 2)(3 4)", "(1 3)(2 4)"
    klein, first, second = group(4, a, b), group(4, a), group(4, b)
    walks, _ = _counting_walks(monkeypatch)
    # the order of the walks as positions in (L, R), and the chain degrees
    for case, order, degrees in (((c4, center, trivial), [0, 1], [2, 4]),
                                 ((c4, trivial, center), [1, 0], [2, 4]),
                                 ((klein, first, second), [0, 1], [2, 2, 4])):
        # fresh copies keep no walk
        grp, *subgroups = (GroupWithChain(h.generators) for h in case)
        walks.clear()
        chain_builds.clear()
        assert coset_graph_faithful(grp, *subgroups)
        assert [h for h, _ in walks] == [subgroups[i] for i in order]
        assert [args[0] for args in chain_builds] == degrees


def test_faithfulness_checks_both_subgroups_first(s4, monkeypatch):
    """S4 is faithful on the 4 cosets of S3, the smaller space; a bad R
    still raises before that decides."""
    s3 = group(4, "(1 2)", "(1 2 3)")
    assert coset_graph_faithful(s4, s3, group(4, "(1 2)"))
    with pytest.raises(SubgroupError):
        coset_graph_faithful(s4, s3, group(5, "(1 2)"))
    with pytest.raises(SubgroupError):
        coset_graph_faithful(group(4, "(1 2 3)", "(2 3 4)"),
                             group(4, "(1 2 3)"), group(4, "(1 2)"))
    monkeypatch.setenv("PERMDESIGN_INDEX_LIMIT", "11")
    with pytest.raises(IndexLimitError):
        coset_graph_faithful(s4, s3, group(4, "(1 2)"))
    assert coset_graph_faithful(s4, s3, group(4, "(1 2)", "(3 4)"))


def _table_cases(fano_pair, frobenius21, s4):
    """The oracle cases, the two C4 cases with a normal subgroup, and the
    two A7 pairs behind the 15-point corpus designs."""
    from permdesign.corpus import discover_a7_subgroups
    c4 = group(4, "(1 2 3 4)")
    center = group(4, "(1 3)(2 4)")
    a7, left, right, other = discover_a7_subgroups()
    return _oracle_cases(fano_pair, frobenius21, s4) + [
        (c4, center, center), (c4, center, GroupWithChain.trivial(4)),
        (a7, left, right), (a7, left, other)]


def test_coset_space_action_table(fano_pair, frobenius21, s4):
    # the walk's table is where each walk generator sends each coset
    for grp, left, right in _table_cases(fano_pair, frobenius21, s4):
        for sub in (left, right):
            space = CosetSpace(grp, sub)
            assert len(space.action) == len(grp.walk_generators)
            for g, moved in zip(grp.walk_generators, space.action):
                assert moved.images == tuple(
                    space.position_of(rep * g)
                    for rep in space.representatives)


def test_coset_actions_read_the_walk(fano_pair, frobenius21, s4,
                                     monkeypatch):
    # coset_graph_design canonicalizes each (coset, walk generator) pair of
    # the point space once, plus the walk's start, and walks the L-cosets
    # in LR over R's walk generators; coset_graph_faithful then reads the
    # walk kept on L, and walks R's space only when L's is not faithful or
    # R's is the smaller; a second graph canonicalizes nothing.
    from permdesign import cosets
    from permdesign.cosets import coset_graph_faithful
    original = cosets.canonical_coset_representative
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cosets, "canonical_coset_representative", counting)
    for case in _table_cases(fano_pair, frobenius21, s4):
        # fresh copies: the fixtures may already keep walks
        grp, left, right = (GroupWithChain(g.generators) for g in case)
        order = grp.order()
        walk_gens = len(grp.walk_generators)
        points = order // left.order() * walk_gens + 1
        walk = (len(_coset_orbit(left, right.walk_generators)[0])
                * len(right.walk_generators) + 1)
        calls.clear()
        coset_graph_design(grp, left, right)
        assert len(calls) == points + walk
        calls.clear()
        coset_graph_faithful(grp, left, right)
        on_left = GroupWithChain(CosetSpace(grp, left).action).order()
        walks_right = (order // right.order() < order // left.order()
                       or on_left < order)
        assert len(calls) == walks_right * (
            order // right.order() * walk_gens + 1)
        assert all(args[0] is right for args in calls)
        calls.clear()
        CosetGraph(grp, left, right)
        assert calls == []
    # 6 of symplectic-2-3's 84 generators grow its chain
    grp, _, right = _coset_triple("symplectic-2-3")
    assert (len(grp.walk_generators), len(grp.generators)) == (6, 84)
    calls.clear()
    assert CosetSpace(grp, right).index == 810
    assert len(calls) == 6 * 810 + 1
    assert CosetSpace(grp, right).index == 810
    assert len(calls) == 6 * 810 + 1


def test_walks_kept_on_two_subgroups_form_no_reference_cycle():
    """After a crosscheck L keeps its walk in R and R its walk in L; the
    walks are keyed by the generators walked, not by the groups, so the
    three groups are freed without the cyclic collector."""
    import gc
    gc.collect()
    gc.disable()
    try:
        grp, left, right = _coset_triple("symplectic-2-3")
        assert lambda_constancy_crosscheck(grp, left, right).ok
        del grp, left, right
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_subgroup_keeps_a_walk_per_group(monkeypatch):
    """A walk is kept on the subgroup for each group it is walked in, and
    the subgroup check and the index limit still run when it is read."""
    h = group(4, "(1 2)(3 4)")
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    s4 = group(4, "(1 2)", "(1 2 3 4)")
    h_set = mulclose(h.generators)
    walks, _ = _counting_walks(monkeypatch)
    for grp, index in ((a4, 6), (s4, 12), (a4, 6), (s4, 12)):
        space = CosetSpace(grp, h)
        assert space.index == index
        cosets = [right_coset(h_set, x.images)
                  for x in space.representatives]
        assert len(set(cosets)) == index
        assert set(cosets) == {right_coset(h_set, x)
                               for x in mulclose(grp.generators)}
        for i, x in enumerate(space.representatives):
            assert space.position_of(x) == i
    assert walks == [(h, a4.walk_generators), (h, s4.walk_generators)]
    with pytest.raises(SubgroupError):
        CosetSpace(group(4, "(1 2 3 4)"), h)
    monkeypatch.setenv("PERMDESIGN_INDEX_LIMIT", "11")
    with pytest.raises(IndexLimitError):
        CosetSpace(s4, h)
    assert CosetSpace(a4, h).index == 6


def test_subgroup_intersection_matches_element_oracle(fano_pair, frobenius21,
                                                      s4):
    for grp, left, right in _table_cases(fano_pair, frobenius21, s4):
        common = subgroup_intersection(left, right)
        assert {p.images for p in common.elements()} == (
            mulclose(left.generators) & mulclose(right.generators))


def test_subgroup_intersection_refuses_beyond_element_limit(monkeypatch):
    from permdesign.corpus import discover_a7_subgroups
    from permdesign.group import EnumerationLimitError
    _, left, right, _ = discover_a7_subgroups()
    with monkeypatch.context() as m:
        m.setenv("PERMDESIGN_ELEMENT_LIMIT", "72")
        assert subgroup_intersection(left, right).order() == 24
    with monkeypatch.context() as m:
        m.setenv("PERMDESIGN_ELEMENT_LIMIT", "71")
        with pytest.raises(EnumerationLimitError):
            subgroup_intersection(left, right)


def test_trivial_factorization_bounded_by_index_limit(s4, monkeypatch):
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    with monkeypatch.context() as m:
        m.setenv("PERMDESIGN_INDEX_LIMIT", "2")
        assert is_trivial_factorization(s4, group(4, "(1 2)"), a4)
    with monkeypatch.context() as m:
        m.setenv("PERMDESIGN_INDEX_LIMIT", "11")
        with pytest.raises(IndexLimitError):
            is_trivial_factorization(s4, a4, group(4, "(1 2)"))


def test_crosscheck_enumerates_no_elements(pg132_pair, monkeypatch):
    from permdesign.designgroup import DesignAction
    structure, g = pg132_pair
    left = g.point_stabilizer(structure.blocks[0][0])
    right = DesignAction(g, structure).block_stabilizer(0)
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    result = lambda_constancy_crosscheck(g, left, right)
    assert result.ok and result.value == 1
    assert sum(c for _, c in result.ratios) == 20160 - left.order()


def test_crosscheck_trivial_factorization(s4):
    s3 = group(4, "(1 2)", "(1 2 3)")
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    result = lambda_constancy_crosscheck(s4, s3, a4)
    assert result.ok
    assert result.value == 2  # every point pair shares all b = 2 blocks


def test_crosscheck_broken_pair_reports_ratios(s4):
    left = group(4, "(1 2)")
    right = group(4, "(3 4)")
    result = lambda_constancy_crosscheck(s4, left, right)
    assert not result.constant
    assert len(result.ratios) >= 2
    assert result.graph_agrees  # the two counts agree ratio by ratio


def test_crosscheck_agrees_with_design_acceptance(s4, fano_pair):
    # positive and negative instances: crosscheck verdict must match
    # whether the built structure verifies as a 2-design
    from permdesign.incidence import DesignError
    cases = []
    structure, g = fano_pair
    from permdesign.designgroup import DesignAction
    cases.append((g, g.point_stabilizer(structure.blocks[0][0]),
                  DesignAction(g, structure).block_stabilizer(0)))
    cases.append((s4, group(4, "(1 2)"), group(4, "(3 4)")))
    for grp, left, right in cases:
        result = lambda_constancy_crosscheck(grp, left, right)
        built = coset_graph_design(grp, left, right)
        try:
            params = verify_design(built)
            accepted = True
        except DesignError:
            accepted = False
        assert result.ok == accepted
        if accepted:
            assert result.value == params.lam


def test_replication_number_agreement(a7, a7_subgroups):
    left, right = a7_subgroups
    built = coset_graph_design(a7, left, right)
    params = verify_design(built)
    assert double_coset_lambda(a7, left, right,
                               Permutation.identity(7)) == params.r


def test_discovery_finds_non_conjugate_partner(a7, a7_subgroups):
    left, _ = a7_subgroups
    rng = random.Random(4)
    other = None
    while other is None:
        cand = random_subgroups_of_order(a7, 168, rng=rng,
                                         distinct_from=[left])[0]
        if subgroups_conjugate_in(a7, left, cand):
            continue
        if subgroup_intersection(left, cand).order() == 24:
            other = cand
    assert not subgroups_conjugate_in(a7, left, other)
    sym = coset_graph_design(a7, left, other)
    params = verify_design(sym)
    assert (params.v, params.b, params.k, params.lam) == (15, 15, 7, 3)
    assert params.symmetric


def test_conjugacy_test_positive(a7, a7_subgroups):
    left, _ = a7_subgroups
    x = next(g for g in a7.elements() if not left.contains(g))
    from permdesign.discovery import conjugate_subgroup
    assert subgroups_conjugate_in(a7, left, conjugate_subgroup(left, x))


def test_cyclic_normalizer_gives_frobenius(fano_pair):
    _, g = fano_pair
    sigma = first_element_of_order(g, 7)
    norm = cyclic_normalizer(g, sigma)
    assert norm.order() == 21


def test_discovery_retry_cap(s4):
    with pytest.raises(DiscoveryError):
        random_subgroups_of_order(s4, 7, rng=random.Random(0), max_rounds=5)


def test_crosscheck_vacuous_when_left_is_whole_group(s4):
    a4 = group(4, "(1 2 3)", "(2 3 4)")
    result = lambda_constancy_crosscheck(s4, s4, a4)
    assert result.ok and result.value is None and result.ratios == ()


def test_non_corefree_subgroup_marks_action_unfaithful():
    from permdesign.cosets import coset_graph_faithful
    from permdesign.group import GroupWithChain
    from permdesign.perm import Permutation
    c4 = group(4, "(1 2 3 4)")
    center = group(4, "(1 3)(2 4)")  # normal, so its core is itself
    action = coset_action(c4, center)
    assert action.image.degree == 2
    assert action.image.order() == 2
    assert not action.faithful
    # the construction still yields the quotient action rather than failing
    graph = CosetGraph(c4, center, center)
    assert graph.structure.v == 2
    # the intersection with the center has the center as its core
    assert not coset_graph_faithful(c4, center, center)
    # a core-free intersection is faithful on the union even when one side
    # alone is not: take the trivial subgroup on the other side
    trivial = GroupWithChain((Permutation.identity(4),))
    assert coset_graph_faithful(c4, center, trivial)


def test_crosscheck_over_walk_generators_matches_given_generator_graph(
        symplectic_pair):
    """The crosscheck on G equals the one on G given by its generators in
    reverse order, whose coset graph numbers the cosets by another walk."""
    from permdesign.designgroup import DesignAction
    from permdesign.geometry import build_symplectic_subdesign
    for structure, g in (symplectic_pair, build_symplectic_subdesign(2, 3)):
        assert len(g.walk_generators) < len(g.generators)
        left = g.point_stabilizer(structure.blocks[0][0])
        right = DesignAction(g, structure).block_stabilizer(0)
        walked = lambda_constancy_crosscheck(g, left, right)
        reverse = GroupWithChain(g.generators[::-1])
        assert reverse.walk_generators != g.walk_generators
        given = lambda_constancy_crosscheck(reverse, left, right)
        assert walked == given
        assert walked.ok
        assert sum(c for _, c in walked.ratios) == g.order() - left.order()


def _relabel(monkeypatch):
    """perfbench/workloads.relabel, which renames a design's points by a
    seeded permutation as the beyond-limit benchmark does."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(os.path.dirname(COSET_INPUTS),
                                  "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses
    spec.loader.exec_module(workloads)
    return workloads.relabel


def _triangles_of_k5():
    """S5 on the 10 edges of K5, the blocks the 10 triangles: flag-
    transitive, and no 2-design, as two edges share one triangle when they
    meet and none when they are disjoint."""
    from itertools import combinations

    from permdesign.group import induced_action
    from permdesign.incidence import IncidenceStructure
    edges = [frozenset(e) for e in combinations(range(5), 2)]
    s5 = group(5, "(1 2)", "(1 2 3 4 5)")
    g = induced_action(s5, edges, lambda e, x: frozenset(
        x.images[p] for p in e)).image
    blocks = [[edges.index(frozenset(e)) for e in combinations(t, 2)]
              for t in combinations(range(5), 3)]
    return IncidenceStructure(10, blocks), g


def test_design_crosscheck_matches_coset_triple_crosscheck(corpus_instances,
                                                           monkeypatch):
    """DesignAction.lambda_crosscheck reads the design's own incidence; on
    the corpus and on both beyond-limit designs, relabelled, it equals the
    crosscheck of (G, G_a, G_B0) as a coset triple, field for field.  So it
    does on the triangles of K5, whose incidence side is not one constant,
    and on the corpus and K5 again with G's first base point moved off a,
    so that each point's element u_a^-1 * u_p is no plain transversal
    element."""
    from permdesign.designgroup import DesignAction
    from permdesign.geometry import build_PG, build_symplectic_subdesign
    relabel = _relabel(monkeypatch)
    cases = [(inst.group, inst.structure) for inst in corpus_instances]
    cases.append(_triangles_of_k5()[::-1])
    cases += [(GroupWithChain(g.generators, base_hint=(structure.v - 1,)),
               structure) for g, structure in cases]
    for seed, (structure, g) in enumerate(
            (build_symplectic_subdesign(2, 3), build_PG(4, 2, 1)), 1):
        cases.append(relabel(g, structure, random.Random(seed)))
    for g, structure in cases:
        action = DesignAction(g, structure)
        left = action.point_stabilizer(structure.blocks[0][0])
        right = action.block_stabilizer(0)
        design_side = action.lambda_crosscheck()
        assert design_side == lambda_constancy_crosscheck(g, left, right)
        assert design_side.graph_agrees
        assert design_side.ok == (g.degree != 10)
    assert len(cases) == 20


def test_analyze_builds_no_coset_space(corpus_instances, monkeypatch):
    from permdesign.analyzer import analyze
    from permdesign.designgroup import DesignAction
    original = CosetSpace.__init__
    built = []

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(CosetSpace, "__init__", counting)
    for inst in corpus_instances:
        report = analyze(inst.group, inst.structure, inst.name)
        assert report.checks["lambda_constancy"] == "pass", inst.name
    assert built == []
    # the coset-triple entry point still builds the point space
    inst = corpus_instances[0]
    action = DesignAction(inst.group, inst.structure)
    lambda_constancy_crosscheck(
        inst.group, action.point_stabilizer(inst.structure.blocks[0][0]),
        action.block_stabilizer(0))
    assert len(built) == 1


def test_lambda_off_by_one_on_one_suborbit_fails_both_paths(
        corpus_instances, monkeypatch):
    """A group-side count one too high on one suborbit.  On a 2-design the
    incidence side reads lambda for every pair, so only the group side can
    be miscounted.  PGL(4,2) is 2-transitive on the 15 points: one
    nontrivial suborbit."""
    from permdesign import cosets
    from permdesign.analyzer import analyze
    from permdesign.designgroup import DesignAction
    inst = next(i for i in corpus_instances if i.name == "pg1-3-2-pgl42")
    original = cosets._rl_count
    calls = []

    def off_by_one(right, rl, g):
        calls.append(g)
        return original(right, rl, g) + (len(calls) == 1)

    monkeypatch.setattr(cosets, "_rl_count", off_by_one)
    report = analyze(inst.group, inst.structure, inst.name)
    assert report.checks["lambda_constancy"] == "fail"
    assert report.exit_code() == 1
    assert len(calls) == 1
    action = DesignAction(inst.group, inst.structure)
    left = action.point_stabilizer(inst.structure.blocks[0][0])
    right = action.block_stabilizer(0)
    calls.clear()
    result = lambda_constancy_crosscheck(inst.group, left, right)
    assert not result.graph_agrees and len(calls) == 1


def _conjugated(grp, left, right, seed):
    """L and R conjugated by a product of 24 seeded choices among G's
    generators, as the coset-build benchmark prepares its inputs."""
    rng = random.Random(seed)
    x = Permutation.identity(grp.degree)
    for _ in range(24):
        x = x * rng.choice(grp.generators)
    return grp, *(GroupWithChain(tuple(g.conjugated_by(x)
                                       for g in sub.generators))
                  for sub in (left, right))


def _redundant_generator_cases():
    """A7 on its subgroup pairs behind the 15-point designs, given with
    generator lists that repeat a generator, hold the identity, put a
    redundant generator ahead of one that grows the chain, or carry
    generators skipped once the chain reached the known order 2520."""
    from permdesign.corpus import discover_a7_subgroups
    a7, left, right, other = discover_a7_subgroups()
    a, b = a7.generators
    one = Permutation.identity(7)
    cases = []
    for gens, walk in (((a, b, a, b), (a, b)),
                       ((one, a, one, b), (a, b)),
                       ((a * b, a, b), (a * b, a)),
                       ((a, b, a * b * a, b * a * b), (a, b))):
        grp = GroupWithChain(gens, order_bound=a7.order())
        assert grp.walk_generators == walk
        cases += [(grp, left, right), (grp, left, other)]
    return cases


def _assert_matches_given_generator_walk(grp, left, right):
    """CosetSpace and the coset_action image against _coset_orbit over G's
    walk generators; every given generator g, walk generator or not, sends
    coset i to position_of(rep_i * g), a permutation in the coset action's
    image; and the coset graph's structure equals the one two numbered
    coset spaces make (_two_space_structure)."""
    for sub in (left, right):
        space = CosetSpace(grp, sub)
        position, reps, action = _coset_orbit(sub, grp.walk_generators)
        assert [r.images for r in space.representatives] == \
               [r.images for r in reps]
        assert space._position == position
        assert space.action == action
        image = coset_action(grp, sub).image
        assert image.generators == action
        tables = dict(zip(grp.walk_generators, action))
        for g in grp.generators:
            moved = Permutation(space.position_of(rep * g)
                                for rep in space.representatives)
            assert tables.get(g, moved) == moved
            assert image.contains(moved)
    assert CosetGraph(grp, left, right).structure.blocks == \
        _two_space_structure(grp, left, right).blocks


@pytest.mark.parametrize("name", COSET_TRIPLES)
def test_coset_spaces_match_the_given_generator_walk(name):
    grp, left, right = _coset_triple(name)
    _assert_matches_given_generator_walk(grp, left, right)
    _assert_matches_given_generator_walk(*_conjugated(grp, left, right, 1))


def test_coset_spaces_match_the_given_generator_walk_on_redundant_lists():
    for grp, left, right in _redundant_generator_cases():
        _assert_matches_given_generator_walk(grp, left, right)


def _two_space_structure(grp, left, right):
    """The coset graph as two numbered coset spaces make it: block 0, the
    L-cosets in LR, carried to block j by the walk generators' actions
    on both spaces, the blocks in the R-space's order."""
    from permdesign.incidence import IncidenceStructure
    points, cosets_of_r = CosetSpace(grp, left), CosetSpace(grp, right)
    blocks = [None] * cosets_of_r.index
    blocks[0] = [points._position[key]
                 for key in _coset_orbit(left, right.generators)[0]]
    for j, members in enumerate(blocks):
        for on_points, on_blocks in zip(points.action, cosets_of_r.action):
            target = on_blocks.images[j]
            if blocks[target] is None:
                blocks[target] = [on_points.images[i] for i in members]
    return IncidenceStructure(points.index, blocks)


def _assert_structure_matches_oracles(grp, left, right):
    """CosetGraph's structure against the two-space construction and, for
    groups small enough to enumerate, against the element oracle with the
    L-cosets numbered as the point space numbers them."""
    graph = CosetGraph(grp, left, right)
    assert graph.structure.blocks == _two_space_structure(
        grp, left, right).blocks
    if grp.order() > 5040:
        return False
    l_set = mulclose(left.generators)
    index = {right_coset(l_set, x.images): i
             for i, x in enumerate(graph.space_points.representatives)}
    assert graph.structure.blocks == tuple(sorted(
        tuple(sorted(index[lx] for lx in block))
        for block in coset_graph_blocks(grp, left, right).values()))
    return True


@pytest.mark.parametrize("name", COSET_TRIPLES)
def test_coset_graph_structure_matches_both_constructions(name):
    """On a committed triple and its copies with L and R conjugated for
    seeds 1 to 3; the A7 triples are small enough for the element
    oracle."""
    grp, left, right = _coset_triple(name)
    cases = [(grp, left, right)] + [_conjugated(grp, left, right, seed)
                                    for seed in (1, 2, 3)]
    enumerated = [_assert_structure_matches_oracles(*case) for case in cases]
    assert all(enumerated) == name.startswith("a7-")


def test_coset_graph_structure_matches_both_constructions_on_redundant_lists():
    for grp, left, right in _redundant_generator_cases():
        assert _assert_structure_matches_oracles(grp, left, right)


def test_coset_graph_numbers_only_the_point_space(chain_builds):
    """coset_graph_design on the symplectic triple over GF(3), 6 of whose
    84 given generators grow G's chain, reads both coset spaces off their
    walks: it builds no chain on the 81 points and the 81 L-cosets or the
    810 R-cosets."""
    grp, left, right = _coset_triple("symplectic-2-3")
    coset_graph_design(grp, left, right)
    assert max(args[0] for args in chain_builds) == 81


@pytest.mark.parametrize("name", COSET_TRIPLES)
def test_subgroup_intersection_order_on_coset_triples(name):
    """|L n R| = |L| / (number of R-cosets in RL), and L n R lies in both."""
    _, left, right = _coset_triple(name)
    common = subgroup_intersection(left, right)
    assert common.order() * len(_coset_orbit(right, left.generators)[0]) \
        == left.order()
    assert common.is_subgroup_of(left) and common.is_subgroup_of(right)
