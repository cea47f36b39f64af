import pytest

from conftest import design_union, group
from permdesign.analysis import primitivity_status
from permdesign.designgroup import (DesignAction, PreservationError,
                                    RepeatedBlockError, TrivialDesignError)
from permdesign.incidence import IncidenceStructure, complement

# cyclic labeling: lines {i, i+1, i+3} mod 7
FANO_BLOCKS = [[0, 1, 3], [0, 2, 6], [0, 4, 5], [1, 2, 4],
               [1, 5, 6], [2, 3, 5], [3, 4, 6]]
SINGER_FANO_GROUP = ("(1 2 3 4 5 6 7)", "(1 2)(3 6)")
SINGER_F21 = ("(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)")


def singer_fano():
    return IncidenceStructure(v=7, blocks=FANO_BLOCKS)


def test_preservation_error():
    s3 = group(3, "(1 2)", "(1 2 3)")
    s = IncidenceStructure(v=3, blocks=[[0, 1]])
    with pytest.raises(PreservationError):
        DesignAction(s3, s)


@pytest.mark.parametrize("gens", [
    ("(1 2 3 4 5 6 7)", "(1 3 5 7 2 4 6)", "(1 4 7 3 6 2 5)", "(1 2)"),
    ("(1 2)(3 6)", "(1 2 3 4 5 6 7)", "(1 3)(2 6)", "(1 2 3)"),
])
def test_preservation_error_from_a_later_walk_generator(gens):
    """Preservation is checked over the walk generators: here the one that
    breaks it is the last, after walk generators that preserve the lines
    and redundant generators that lie in the group they generate."""
    grp = group(7, *gens)
    assert grp.walk_generators[-1] == grp.generators[-1]
    assert 1 < len(grp.walk_generators) < len(grp.generators)
    with pytest.raises(PreservationError):
        DesignAction(grp, singer_fano())


def test_degree_mismatch_is_preservation_error():
    with pytest.raises(PreservationError):
        DesignAction(group(4, "(1 2)"), singer_fano())


def test_repeated_blocks_rejected():
    s = IncidenceStructure(v=3, blocks=[[0, 1, 2], [0, 1, 2]])
    with pytest.raises(RepeatedBlockError):
        DesignAction(group(3, "(1 2 3)"), s)


def test_block_stabilizer_order_full_group(fano_pair):
    structure, g = fano_pair
    stab = DesignAction(g, structure).block_stabilizer(0)
    assert stab.order() == 24  # 168 / 7
    blk = set(structure.blocks[0])
    for x in stab.generators:
        assert {x.images[p] for p in blk} == blk


@pytest.mark.parametrize("method, index, kind", [
    ("block_stabilizer", -1, "block index -1 out of range 0..6"),
    ("block_stabilizer", 7, "block index 7 out of range 0..6"),
    ("local_block_action", 7, "block index 7 out of range 0..6"),
    ("local_point_action", 8, "point 8 out of range 0..6"),
    ("local_point_action", -1, "point -1 out of range 0..6"),
    ("point_stabilizer", 7, "point 7 out of range 0..6"),
])
def test_design_action_rejects_out_of_range_indices(fano_pair, method, index,
                                                    kind):
    """A point of at least v would otherwise be read as a block vertex of
    the chain of the points and the blocks, and a negative block index as
    a point."""
    structure, g = fano_pair
    action = DesignAction(g, structure)
    with pytest.raises(ValueError, match=kind):
        getattr(action, method)(index)
    assert action.block_stabilizer(6).order() == 24
    assert action.local_point_action(6).image.degree == 3


def test_stabilizers_are_local_action_sources(fano_pair):
    structure, g = fano_pair
    action = DesignAction(g, structure)
    for p in range(structure.v):
        assert (action.point_stabilizer(p)
                is action.local_point_action(p).source)
    for j in range(structure.b):
        assert (action.block_stabilizer(j)
                is action.local_block_action(j).source)


def test_block_stabilizer_order_frobenius():
    g = group(7, *SINGER_F21)
    stab = DesignAction(g, singer_fano()).block_stabilizer(0)
    assert stab.order() == 3  # 21 / 7


def test_point_block_actions(fano_pair):
    structure, g = fano_pair
    action = DesignAction(g, structure)
    point_action = action.local_point_action(0)
    blk_action = action.local_block_action(0)
    assert point_action.image.degree == 3   # three blocks through each point
    assert blk_action.image.degree == 3     # three points on each block
    assert point_action.image.is_transitive()
    assert blk_action.image.is_transitive()


def test_flag_transitive_frobenius_on_its_plane():
    g = group(7, *SINGER_F21)
    assert DesignAction(g, singer_fano()).is_flag_transitive()


def test_not_flag_transitive_cyclic():
    z7 = group(7, "(1 2 3 4 5 6 7)")
    assert not DesignAction(z7, singer_fano()).is_flag_transitive()


def test_not_flag_transitive_frobenius_on_complement():
    g = group(7, *SINGER_F21)
    assert not DesignAction(g,
                            complement(singer_fano())).is_flag_transitive()


def test_locally_primitive_full_fano_group(fano_pair):
    structure, g = fano_pair
    report = DesignAction(g, structure).local_primitivity_report()
    assert report.locally_primitive
    assert report.flag_transitive and report.point_primitive
    assert report.block_quasiprimitive
    assert report.stabilizer_bound_ok


def test_locally_primitive_agl_on_affine_planes(ag322_pair):
    structure, g = ag322_pair
    report = DesignAction(g, structure).local_primitivity_report()
    assert report.locally_primitive
    assert report.point_primitive
    assert report.block_quasiprimitive is False


def test_cyclic_group_report_short_circuits():
    z7 = group(7, "(1 2 3 4 5 6 7)")
    report = DesignAction(z7, singer_fano()).local_primitivity_report()
    assert not report.flag_transitive
    assert not report.point_local_primitive  # trivial stabilizer on 3 blocks
    assert report.notes


def test_trivial_design_detected():
    s = IncidenceStructure(v=3, blocks=[[0, 1, 2]])
    with pytest.raises(TrivialDesignError):
        action = DesignAction(group(3, "(1 2 3)", "(1 2)"), s)
        action.local_primitivity_report()


def test_stabilizer_bound_on_fano(fano_pair):
    structure, g = fano_pair
    action = DesignAction(g, structure)
    alpha = structure.blocks[0][0]
    g_alpha = action.point_stabilizer(alpha)
    g_alpha_beta = action.block_stabilizer(0).point_stabilizer(alpha)
    assert g.order() == 168
    assert g_alpha.order() == 24
    assert g_alpha_beta.order() == 8
    assert g_alpha.order() ** 3 // g_alpha_beta.order() ** 2 == 216
    assert 168 < 216
    assert action.stabilizer_bound_holds()


def test_stabilizer_bound_on_flag_transitive_corpus(corpus_instances):
    for inst in corpus_instances:
        action = DesignAction(inst.group, inst.structure)
        if action.is_flag_transitive():
            assert action.stabilizer_bound_holds(), inst.name


def test_faithful_on_blocks_across_corpus(corpus_instances):
    for inst in corpus_instances:
        action = DesignAction(inst.group, inst.structure)
        assert action.block_action.faithful, inst.name


def test_local_primitivity_consequences_never_violated(corpus_instances):
    # a locally primitive instance is flag-transitive and point-primitive
    for inst in corpus_instances:
        action = DesignAction(inst.group, inst.structure)
        report = action.local_primitivity_report()
        if report.locally_primitive:
            assert report.flag_transitive and report.point_primitive


def test_dual_of_symmetric_locally_primitive_design(pg232_pair):
    # the dual of a symmetric locally primitive design, under the induced
    # block action, is again locally primitive with the same parameters
    from permdesign.incidence import dual, verify_design
    structure, g = pg232_pair
    action = DesignAction(g, structure)
    dual_structure = dual(structure)
    dual_group = action.block_action.image
    report = DesignAction(dual_group, dual_structure).local_primitivity_report()
    assert report.locally_primitive
    p, pd = verify_design(structure), verify_design(dual_structure)
    assert (p.v, p.b, p.r, p.k, p.lam) == (pd.v, pd.b, pd.r, pd.k, pd.lam)


def test_symmetric_locally_primitive_is_primitive_both_sides(corpus_instances):
    from permdesign.analysis import is_primitive
    from permdesign.incidence import verify_design
    seen_symmetric = 0
    for inst in corpus_instances:
        params = verify_design(inst.structure)
        if not params.symmetric:
            continue
        action = DesignAction(inst.group, inst.structure)
        report = action.local_primitivity_report()
        if report.locally_primitive:
            seen_symmetric += 1
            assert report.point_primitive, inst.name
            assert is_primitive(action.block_action.image), inst.name
    assert seen_symmetric >= 3  # both planes and the coset instance


def test_complement_pair_count_identity(fano_pair, pg232_pair):
    from permdesign.incidence import verify_design
    for structure, _ in (fano_pair, pg232_pair):
        p = verify_design(structure)
        pc = verify_design(complement(structure))
        assert pc.lam == p.b - 2 * p.r + p.lam


def test_imprimitivity_cells_have_disjoint_blocks(corpus_instances):
    from permdesign.analysis import minimal_block_system
    for inst in corpus_instances:
        action = DesignAction(inst.group, inst.structure)
        report = action.local_primitivity_report()
        if not (report.locally_primitive
                and report.block_quasiprimitive is False):
            continue
        image = action.block_action.image
        assert primitivity_status(image) == "imprimitive"
        blocks = inst.structure.blocks
        seen = set()
        for j in range(1, len(blocks)):
            system = minimal_block_system(image, 0, j)
            if system.is_trivial or system.cells in seen:
                continue
            seen.add(system.cells)
            for cell in system.cells:
                covered = set()
                for idx in cell:
                    assert not covered & set(blocks[idx]), inst.name
                    covered |= set(blocks[idx])


def test_point_on_no_block_is_named():
    s = IncidenceStructure(v=4, blocks=[[0, 1], [0, 2], [1, 2]])
    action = DesignAction(group(4, "(1 2 3)"), s)
    with pytest.raises(ValueError, match="point 3 lies on no block"):
        action.local_point_action(3)
    with pytest.raises(ValueError, match="point 3 lies on no block"):
        action.point_stabilizer(3)


def test_quasiprimitivity_is_exact_at_a_small_element_limit(monkeypatch):
    # the block action is A5 on ordered pairs: imprimitive with trivial
    # kernels; its faithful cell actions decide it without a walk
    from conftest import a5_flag_structure
    structure, g = a5_flag_structure()
    with monkeypatch.context() as m:
        m.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
        report = DesignAction(g, structure).local_primitivity_report()
    assert report.block_quasiprimitive is True
    assert not any("unknown" in note for note in report.notes)
    assert report.to_json_dict()["block_quasiprimitive"] is True


def test_point_local_actions_match_the_union_reading(corpus_instances):
    # G_p from the group's own chain, acting on the blocks through p as
    # point sets, against G_p read in the union action on block vertices
    from permdesign.geometry import build_PG, build_symplectic_subdesign
    from permdesign.group import induced_action, orbits_of
    pairs = [(inst.name, inst.structure, inst.group)
             for inst in corpus_instances]
    pairs.append(("symplectic-2-3", *build_symplectic_subdesign(2, 3)))
    pairs.append(("pg-4-2-1", *build_PG(4, 2, 1)))
    for name, structure, g in pairs:
        action = DesignAction(g, structure)
        v = structure.v
        for orbit in orbits_of(g.walk_generators, v):
            p = min(orbit)
            local = action.local_point_action(p)
            union = induced_action(
                design_union(g, structure).point_stabilizer(p),
                [v + j for j in structure.blocks_through(p)],
                lambda x, h: h.images[x])
            assert local.source.order() == union.source.order(), (name, p)
            assert local.image.order() == union.image.order(), (name, p)
            assert (primitivity_status(local.image)
                    == primitivity_status(union.image)), (name, p)
            assert (orbits_of(local.image.walk_generators, local.image.degree)
                    == orbits_of(union.image.walk_generators,
                                 union.image.degree)), (name, p)


def test_every_export_resolves_and_is_listed_once():
    import permdesign
    names = permdesign.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from permdesign import *", namespace)
    assert all(namespace[name] is getattr(permdesign, name) for name in names)
    # design verdicts come from one DesignAction per (group, design)
    for gone in ("block_stabilizer", "point_block_actions",
                 "is_flag_transitive", "is_locally_primitive"):
        assert not hasattr(permdesign, gone)
