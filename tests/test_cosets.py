import random

import pytest

from bruteforce import double_coset_ratios
from conftest import group, perm
from permdesign.cosets import (CosetGraph, CosetSpace, CrosscheckResult,
                               IndexLimitError, SubgroupError,
                               canonical_coset_representative,
                               coset_action, coset_graph_design,
                               double_coset_lambda, is_trivial_factorization,
                               lambda_constancy_crosscheck,
                               subgroup_intersection)
from permdesign.discovery import (DiscoveryError, cyclic_normalizer,
                                  first_element_of_order,
                                  random_subgroups_of_order,
                                  subgroups_conjugate_in)
from permdesign.group import GroupWithChain
from permdesign.incidence import verify_design
from permdesign.perm import Permutation


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


def test_index_limit(a7):
    with pytest.raises(IndexLimitError):
        CosetSpace(a7, a7.point_stabilizer(0), limit=3)


def test_coset_graph_design_fano_parameters(fano_pair):
    structure, g = fano_pair
    alpha = structure.blocks[0][0]
    left = g.point_stabilizer(alpha)
    from permdesign.designgroup import block_stabilizer
    right = block_stabilizer(g, structure, 0)
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
    blocks = {frozenset(b) for b in graph.blocks}
    for g in a7.generators:
        for block in graph.blocks:
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
    graph = CosetGraph(s4, s3, a4)
    assert graph.trivial


def test_fano_pair_is_not_trivial_factorization(fano_pair):
    structure, g = fano_pair
    from permdesign.designgroup import block_stabilizer
    left = g.point_stabilizer(structure.blocks[0][0])
    right = block_stabilizer(g, structure, 0)
    assert subgroup_intersection(left, right).order() == 8
    assert not is_trivial_factorization(g, left, right)  # 24*24/8 != 168


def test_double_coset_lambda_fano(fano_pair):
    structure, g = fano_pair
    from permdesign.designgroup import block_stabilizer
    alpha = structure.blocks[0][0]
    left = g.point_stabilizer(alpha)
    right = block_stabilizer(g, structure, 0)
    # identity gives the replication number
    assert double_coset_lambda(g, left, right, Permutation.identity(7)) == 3
    outside = next(x for x in g.elements() if not left.contains(x))
    assert double_coset_lambda(g, left, right, outside) == 1


def _oracle_result(grp, left, right):
    ratios, graph_agrees = double_coset_ratios(grp, left, right)
    constant = len(ratios) == 1
    return CrosscheckResult(constant=constant,
                            value=ratios[0][0] if constant else None,
                            ratios=ratios, graph_agrees=graph_agrees,
                            exhaustive=True,
                            sample_count=sum(c for _, c in ratios))


def _random_subgroup(rng, degree):
    gens = []
    for _ in range(rng.randint(1, 2)):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return GroupWithChain(tuple(gens))


def test_crosscheck_matches_element_oracle(fano_pair, frobenius21, s4):
    from permdesign.designgroup import block_stabilizer
    structure, pgl32 = fano_pair
    cases = [
        (pgl32, pgl32.point_stabilizer(structure.blocks[0][0]),
         block_stabilizer(pgl32, structure, 0)),
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
    non_constant = 0
    for grp, left, right in cases:
        result = lambda_constancy_crosscheck(grp, left, right)
        assert result == _oracle_result(grp, left, right)
        non_constant += not result.constant
    assert 2 <= non_constant < len(cases)


def test_crosscheck_enumerates_no_elements(pg132_pair, monkeypatch):
    from permdesign.designgroup import block_stabilizer
    structure, g = pg132_pair
    left = g.point_stabilizer(structure.blocks[0][0])
    right = block_stabilizer(g, structure, 0)
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    result = lambda_constancy_crosscheck(g, left, right)
    assert result.ok and result.value == 1
    assert result.sample_count == 20160 - left.order()


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
    from permdesign.designgroup import block_stabilizer
    cases.append((g, g.point_stabilizer(structure.blocks[0][0]),
                  block_stabilizer(g, structure, 0)))
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
    assert result.ok and result.value is None and result.sample_count == 0


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
