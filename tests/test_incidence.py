import random
import warnings
from itertools import combinations

import pytest

from bruteforce import design_accepts, flag_count, pair_count
from conftest import design_union
from permdesign.incidence import (DesignError, IncidenceStructure, complement,
                                  dual, incidence_graph_diameter,
                                  t_design_strength, verify_design)

# cyclic labeling: lines {i, i+1, i+3} mod 7
FANO_BLOCKS = [[0, 1, 3], [0, 2, 6], [0, 4, 5], [1, 2, 4],
               [1, 5, 6], [2, 3, 5], [3, 4, 6]]


def fano():
    return IncidenceStructure(v=7, blocks=FANO_BLOCKS)


def test_canonical_block_order():
    s = IncidenceStructure(v=3, blocks=[[2, 1], [0, 1]])
    assert s.blocks == ((0, 1), (1, 2))


def test_block_validation():
    with pytest.raises(DesignError):
        IncidenceStructure(v=3, blocks=[[0, 3]])
    with pytest.raises(DesignError):
        IncidenceStructure(v=3, blocks=[[]])
    with pytest.raises(DesignError):
        IncidenceStructure(v=3, blocks=[[1, 1]])
    with pytest.raises(DesignError, match="need at least one point") as err:
        IncidenceStructure(v=0, blocks=[[0]])
    assert err.value.code == "degenerate-v"
    with pytest.raises(DesignError, match="need at least one block") as err:
        IncidenceStructure(v=3, blocks=[])
    assert err.value.code == "no-blocks"


def test_flag_count():
    assert flag_count(fano()) == 21


def test_incidence_index_matches_block_scan():
    s = fano()
    assert s.point_blocks() == tuple(
        tuple(j for j, blk in enumerate(s.blocks) if p in blk)
        for p in range(7))
    assert s.blocks_through(0) == (0, 1, 2)
    for point in (-1, 7):
        with pytest.raises(ValueError, match=f"point {point} out of range"):
            s.blocks_through(point)


def test_verify_fano():
    params = verify_design(fano())
    assert (params.v, params.b, params.r, params.k, params.lam) == (7, 7, 3, 3, 1)
    assert params.symmetric


def test_verify_ag322(ag322_pair):
    params = verify_design(ag322_pair[0])
    assert (params.v, params.b, params.r, params.k, params.lam) == (8, 14, 7, 4, 3)
    assert not params.symmetric


def test_verify_uncovered_pair():
    s = IncidenceStructure(v=3, blocks=[[0, 1]])
    with pytest.raises(DesignError) as err:
        verify_design(s)
    assert err.value.code == "uncovered-pair"


def test_verify_nonconstant_block_size():
    s = IncidenceStructure(v=4, blocks=[[0, 1], [0, 1, 2]])
    with pytest.raises(DesignError) as err:
        verify_design(s)
    assert err.value.code == "block-size"


def test_verify_nonconstant_pair_count():
    s = IncidenceStructure(v=4, blocks=[[0, 1], [0, 1], [2, 3], [0, 2],
                                        [1, 3], [0, 3], [1, 2]])
    with pytest.raises(DesignError) as err:
        verify_design(s)
    assert err.value.code == "pair-count"


def test_verify_trivial_rejected():
    s = IncidenceStructure(v=3, blocks=[[0, 1, 2], [0, 1, 2]])
    with pytest.raises(DesignError) as err:
        verify_design(s)
    assert err.value.code == "trivial"
    assert s.is_trivial()


def test_verify_degenerate():
    with pytest.raises(DesignError) as err:
        verify_design(IncidenceStructure(v=2, blocks=[[0, 1]]))
    assert err.value.code == "degenerate-v"
    with pytest.raises(DesignError) as err:
        verify_design(IncidenceStructure(v=3, blocks=[[0], [1], [2]]))
    assert err.value.code == "degenerate-k"


def test_verify_design_against_pair_counting_oracle():
    rng = random.Random(2024)
    accepted = 0
    for _ in range(1000):
        v = rng.randrange(3, 8)
        if rng.random() < 0.25:
            # complete k-uniform structure: always a 2-design
            k = rng.randrange(2, v)
            blocks = [list(c) for c in combinations(range(v), k)]
        else:
            k_base = rng.randrange(1, v + 1)
            blocks = []
            for _ in range(rng.randrange(1, 11)):
                size = min(v, max(1, k_base + rng.randrange(-1, 2))) \
                    if rng.random() < 0.3 else k_base
                blocks.append(sorted(rng.sample(range(v), size)))
        structure = IncidenceStructure(v=v, blocks=blocks)
        expected = design_accepts(v, [set(b) for b in structure.blocks])
        try:
            params = verify_design(structure)
            ok = True
        except DesignError:
            ok = False
        assert ok == expected, (v, blocks)
        if ok:
            accepted += 1
            assert params.lam == pair_count(structure.blocks, 0, 1)
            assert params.r == sum(1 for b in structure.blocks if 0 in b)
    assert accepted > 50  # the generator must exercise the accepting path


def test_strength_ag322_is_three(ag322_pair):
    t_max, lambdas = t_design_strength(ag322_pair[0])
    assert t_max == 3
    assert lambdas == (7, 3, 1)


def test_strength_symplectic_is_two(symplectic_pair):
    t_max, lambdas = t_design_strength(symplectic_pair[0])
    assert t_max == 2
    assert lambdas == (20, 4)


def test_strength_fano_is_two():
    t_max, lambdas = t_design_strength(fano())
    assert t_max == 2
    assert lambdas == (3, 1)


def test_strength_not_even_one_design():
    s = IncidenceStructure(v=4, blocks=[[0, 1], [0, 2]])
    with pytest.raises(DesignError):
        t_design_strength(s)


def test_strength_needs_one_block_size():
    s = IncidenceStructure(v=4, blocks=[[0, 1], [0, 2, 3]])
    with pytest.raises(DesignError, match="blocks have several sizes") as err:
        t_design_strength(s)
    assert err.value.code == "block-size"


def test_complement_fano():
    params = verify_design(complement(fano()))
    assert (params.v, params.k, params.lam) == (7, 4, 2)


def test_complement_involution(ag322_pair):
    s = ag322_pair[0]
    assert complement(complement(s)) == s


def test_complement_of_full_block_rejected():
    s = IncidenceStructure(v=3, blocks=[[0, 1, 2]])
    with pytest.raises(DesignError):
        complement(s)


def test_dual_of_symmetric_design_is_design(pg232_pair):
    params = verify_design(dual(pg232_pair[0]))
    assert (params.v, params.b, params.r, params.k, params.lam) == \
           (15, 15, 7, 7, 3)


def test_dual_flags_repeated_blocks():
    s = IncidenceStructure(v=3, blocks=[[0, 1], [0, 1], [1, 2], [0, 2]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dual(s)
    assert any("repeated blocks" in str(w.message) for w in caught)


def test_diameter_fano():
    assert incidence_graph_diameter(fano()) == 3


def test_diameter_pg132(pg132_pair):
    assert incidence_graph_diameter(pg132_pair[0]) == 4


def test_diameter_trivial_design():
    s = IncidenceStructure(v=4, blocks=[[0, 1, 2, 3], [0, 1, 2, 3]])
    assert incidence_graph_diameter(s) == 2


def test_diameter_disconnected():
    s = IncidenceStructure(v=4, blocks=[[0, 1], [2, 3]])
    with pytest.raises(DesignError):
        incidence_graph_diameter(s)


def test_diameter_refuses_an_empty_start_list():
    s = IncidenceStructure(v=4, blocks=[[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="no start vertex"):
        incidence_graph_diameter(s, starts=[])
    with pytest.raises(ValueError, match="no start vertex"):
        incidence_graph_diameter(fano(), starts=[])
    with pytest.raises(DesignError):
        incidence_graph_diameter(s, starts=[0])


@pytest.mark.parametrize("start", [-1, 14])
def test_diameter_refuses_a_start_out_of_range(start):
    with pytest.raises(ValueError, match="out of range 0..13"):
        incidence_graph_diameter(fano(), starts=[0, start])


def _union_orbit_minima(g, structure):
    from permdesign.designgroup import DesignAction
    from permdesign.group import orbits_of
    union = design_union(g, structure)
    starts = [min(o) for o in orbits_of(union.generators, union.degree)]
    # analyze takes them from the orbits of the points and of the blocks
    image = DesignAction(g, structure).block_action.image
    v = structure.v
    assert starts == (
        [min(o) for o in orbits_of(g.walk_generators, v)]
        + [v + min(o) for o in orbits_of(image.walk_generators, structure.b)])
    return starts


def test_diameter_from_one_vertex_per_orbit(corpus_instances, fano_pair):
    # automorphisms preserve distances, so one BFS per orbit is exact
    cases = [(inst.group, inst.structure) for inst in corpus_instances]
    structure, g = fano_pair
    cases.append((g.point_stabilizer(0), structure))  # intransitive
    for g, structure in cases:
        starts = _union_orbit_minima(g, structure)
        assert len(starts) < structure.v + structure.b
        assert (incidence_graph_diameter(structure, starts)
                == incidence_graph_diameter(structure))
    # the stabilizer of point 0: itself and the other six points; the
    # three lines through it (vertices 7..9) and the other four
    assert starts == [0, 1, 7, 10]


def test_parameter_identities_on_corpus(corpus_instances):
    for inst in corpus_instances:
        p = verify_design(inst.structure)
        assert p.v * p.r == p.b * p.k
        assert p.lam * (p.v - 1) == p.r * (p.k - 1)
        assert p.b >= p.v and p.r >= p.k
        assert p.lam < p.r
        assert p.symmetric == (p.b == p.v)
