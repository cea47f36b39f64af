from conftest import group
from permdesign.analyzer import (CHECK_NAMES, analyze,
                                 reduction_pair_allowed)
from permdesign.designgroup import DesignAction
from permdesign.incidence import IncidenceStructure


def test_fano_full_group_report(fano_pair):
    structure, g = fano_pair
    report = analyze(g, structure, "fano")
    assert report.point_type == "AS"
    assert report.block_type == "AS"
    assert not report.theorem_violation
    assert report.exit_code() == 0
    applicable = {k for k, v in report.checks.items() if v == "pass"}
    assert applicable == {"lambda_constancy", "diameter_bound",
                          "stabilizer_order_bound", "faithful_block_action",
                          "local_primitivity_consequences"}
    not_applicable = {k for k, v in report.checks.items()
                      if v == "not-applicable"}
    assert not_applicable == set(CHECK_NAMES) - applicable


def test_affine_report_runs_all_checks(ag322_pair):
    structure, g = ag322_pair
    report = analyze(g, structure, "ag")
    assert (report.point_type, report.block_type) == \
           ("HA", "non-quasiprimitive")
    assert all(v == "pass" for v in report.checks.values())
    assert report.exit_code() == 0


def test_symplectic_report(symplectic_pair):
    structure, g = symplectic_pair
    report = analyze(g, structure, "symplectic")
    assert (report.point_type, report.block_type) == \
           ("HA", "non-quasiprimitive")
    assert report.checks["normal_orbit_size"] == "pass"
    assert report.checks["origin_blocks_are_subspaces"] == "pass"
    # imprimitivity-cell disjointness presumes local primitivity, which this
    # instance does not have (the point-stabilizer action on incident blocks
    # is paired up by perpendicular complements)
    assert not report.local.locally_primitive
    assert report.checks["imprimitivity_cell_disjointness"] == "not-applicable"
    assert report.checks["local_primitivity_consequences"] == "not-applicable"
    assert not report.theorem_violation
    assert report.exit_code() == 0


def test_symplectic_witness_orbit_size_is_four(symplectic_pair):
    structure, g = symplectic_pair
    from permdesign.analysis import classify_point_action
    action = DesignAction(g, structure)
    witness = classify_point_action(g).witness
    gens = [action.block_image_of(x) for x in witness.generators]
    seen = set()
    sizes = set()
    for start in range(structure.b):
        if start in seen:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for p in gens:
                y = p.images[x]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        sizes.add(len(orbit))
    assert sizes == {4}  # v/k = 16/4 = b/r = 80/20


def test_trivial_design_report():
    s = IncidenceStructure(v=3, blocks=[[0, 1, 2]])
    g = group(3, "(1 2 3)", "(1 2)")
    report = analyze(g, s, "trivial")
    assert report.trivial
    assert report.parameters is None
    assert all(v == "not-applicable" for v in report.checks.values())
    assert report.exit_code() == 0


def test_reduction_pair_logic():
    assert reduction_pair_allowed("AS", "AS")
    assert reduction_pair_allowed("AS", "HA")
    assert not reduction_pair_allowed("AS", "non-quasiprimitive")
    assert reduction_pair_allowed("HA", "HA")
    assert reduction_pair_allowed("HA", "non-quasiprimitive")
    assert not reduction_pair_allowed("HA", "AS")
    assert not reduction_pair_allowed("OTHER", "AS")
    assert not reduction_pair_allowed("OTHER", "non-quasiprimitive")


def test_unknown_exit_code_when_limit_hit(fano_pair, monkeypatch):
    structure, g = fano_pair
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    report = analyze(g, structure, "fano")
    assert report.local.block_quasiprimitive is None
    assert report.block_type == "unknown"
    assert report.point_type == "unknown"
    assert not report.failed
    assert report.exit_code() == 3


def test_intransitive_group_reports_other(fano_pair):
    structure, g = fano_pair
    stab = g.point_stabilizer(0)  # preserves the design, fixes a point
    report = analyze(stab, structure, "stab")
    assert report.point_type == "OTHER"
    assert not report.local.flag_transitive
    assert not report.local.point_transitive
    assert not report.theorem_violation
    # consistency checks that presume flag-transitivity stay not-applicable
    assert report.checks["normal_orbit_size"] == "not-applicable"
    assert report.checks["lambda_constancy"] == "not-applicable"


def test_lambda_exact_on_large_group(pg132_pair):
    structure, g = pg132_pair
    assert g.order() == 20160
    report = analyze(g, structure, "pg1")
    assert not any("sampled" in note for note in report.notes)
    assert report.checks["lambda_constancy"] == "pass"


def test_index_limit_leaves_only_lambda_unknown(pg132_pair, monkeypatch):
    structure, g = pg132_pair
    monkeypatch.setenv("PERMDESIGN_INDEX_LIMIT", "10")
    report = analyze(g, structure, "pg1")
    assert report.checks["lambda_constancy"] == "unknown"
    assert any("lambda constancy unknown" in note
               and "coset index limit 10" in note for note in report.notes)
    assert report.exit_code() == 3
    others = dict(report.checks, point_type=report.point_type,
                  block_type=report.block_type)
    del others["lambda_constancy"]
    assert "unknown" not in others.values()


def test_element_limit_leaves_lambda_exact(pg132_pair, monkeypatch):
    structure, g = pg132_pair
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    report = analyze(g, structure, "pg1")
    assert report.checks["lambda_constancy"] == "pass"


def test_type_row_properties_on_corpus(corpus_instances):
    # rows of the reduction table: affine/affine pairs are symmetric
    # 2-designs; affine with non-quasiprimitive blocks is non-symmetric of
    # strength two or three; almost-simple rows have strength at most six
    from permdesign.incidence import t_design_strength, verify_design
    for inst in corpus_instances:
        report = analyze(inst.group, inst.structure, inst.name)
        if not (report.local and report.local.locally_primitive):
            continue
        params = verify_design(inst.structure)
        t_max, _ = t_design_strength(inst.structure)
        pair = (report.point_type, report.block_type)
        if pair == ("HA", "HA"):
            assert params.symmetric and t_max == 2, inst.name
        elif pair == ("HA", "non-quasiprimitive"):
            assert not params.symmetric, inst.name
            assert t_max in (2, 3), inst.name
        else:
            assert report.point_type == "AS", inst.name
            assert t_max <= 6, inst.name
