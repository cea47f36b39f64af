import dataclasses
import gc
import inspect
import os
import subprocess
import sys

import pytest

from bruteforce import origin_blocks_are_subgroups
from conftest import group, orbit_design, relabelled
from permdesign import analyzer
from permdesign.analysis import classify_point_action
from permdesign.analyzer import (CHECK_NAMES, FAIL,
                                 LOCALLY_PRIMITIVE_ONLY_CHECKS, PASS,
                                 _check_origin_blocks, analyze,
                                 reduction_pair_allowed)
from permdesign.designgroup import DesignAction
from permdesign.geometry import build_symplectic_subdesign
from permdesign.group import ActionImage, GroupWithChain
from permdesign.incidence import IncidenceStructure

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


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


@pytest.mark.parametrize("degree, generators, k, failing", [
    # AGL(1,5) on the 2-subsets of 5 points: a 2-(5,2,1) design
    (5, ("(1 3 4 2)", "(1 3 5 2 4)"), 2,
     {"normal_orbit_size", "origin_blocks_are_subspaces"}),
    # a group of order 120 on the 3-subsets of 6 points: a 2-(6,3,4) design
    (6, ("(2 4 3 5 6)", "(1 4 6 3)"), 3, {"normal_orbit_size"}),
])
def test_consequence_checks_do_not_fail_a_design_that_is_not_lp(
        degree, generators, k, failing):
    # both designs are flag-transitive, point-primitive and block-locally
    # primitive, but their point stabilizers are not primitive on the
    # blocks through the point; the identities need local primitivity
    g = group(degree, *generators)
    report = analyze(g, orbit_design(g, range(k)))
    local = report.local
    assert local.flag_transitive and local.point_primitive
    assert local.block_local_primitive and not local.point_local_primitive
    assert {n for n, v in report.checks.items() if v == FAIL} == failing
    assert not report.theorem_violation
    assert report.exit_code() == 0


def test_consequence_checks_fail_a_locally_primitive_design(ag322_pair):
    structure, g = ag322_pair
    report = analyze(g, structure, "ag")
    assert report.local.locally_primitive and report.exit_code() == 0
    for name in LOCALLY_PRIMITIVE_ONLY_CHECKS:
        checks = dict(report.checks, **{name: FAIL})
        assert dataclasses.replace(report, checks=checks).exit_code() == 1


def test_origin_blocks_check_matches_product_oracle(corpus_instances):
    """_check_origin_blocks against every product of two elements of each
    block through 0, formed in full: on the HA corpus designs, the
    relabelled symplectic design over GF(3), AGL(1,5) on the 2-subsets of
    5 points, and the 3-subsets of GF(2)^2 with its translations, where
    each block through 0 holds c + c = 0 but not every a + c."""
    cases = [(inst.structure, inst.group) for inst in corpus_instances]
    cases.append(relabelled(*build_symplectic_subdesign(2, 3), 1))
    agl15 = group(5, "(1 3 4 2)", "(1 3 5 2 4)")
    cases.append((orbit_design(agl15, (0, 1)), agl15))
    verdicts = []
    for structure, g in cases:
        report = classify_point_action(g)
        if report.tag == "HA":
            witness = report.witness
            verdicts.append(_check_origin_blocks(
                DesignAction(g, structure), witness))
            assert verdicts[-1] == (PASS if origin_blocks_are_subgroups(
                witness, structure.blocks) else FAIL)
    assert verdicts == [FAIL, PASS, PASS, PASS, FAIL]
    # x -> x XOR 1 and x -> x XOR 2 on GF(2)^2 numbered 0..3
    translations = group(4, "(1 2)(3 4)", "(1 3)(2 4)")
    s4 = group(4, "(1 2)", "(1 2 3 4)")
    triples = orbit_design(s4, (0, 1, 2))
    assert not origin_blocks_are_subgroups(translations, triples.blocks)
    assert _check_origin_blocks(DesignAction(s4, triples),
                                translations) == FAIL


def test_origin_blocks_check_fails_on_a_witness_that_is_not_regular(s4):
    """A witness that is not regular fails before any block is read: S4 on
    4 points, of order 24, and <(1 2), (3 4)>, of order 4 but
    intransitive; the product oracle refuses both."""
    triples = orbit_design(s4, (0, 1, 2))
    action = DesignAction(s4, triples)
    for witness in (s4, group(4, "(1 2)", "(3 4)")):
        assert not origin_blocks_are_subgroups(witness, triples.blocks)
        assert _check_origin_blocks(action, witness) == FAIL


def test_analyze_memory_on_symplectic_3_2():
    """analyze on the symplectic design over GF(2) with m = 3 (v = 64,
    b = 5 376), in a fresh process, grows its peak RSS by less than 100 MB:
    no chain of the block action holds b permutations of degree b."""
    script = (
        "import resource, sys\n"
        "from permdesign.analyzer import analyze\n"
        "from permdesign.geometry import build_symplectic_subdesign\n"
        "structure, g = build_symplectic_subdesign(3, 2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = analyze(g, structure).exit_code()\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "kb = 1024 if sys.platform == 'darwin' else 1\n"  # bytes there
        "print(code, (after - before) / kb / 1024)\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    code, grown_mb = run.stdout.split()
    assert int(code) == 0
    assert float(grown_mb) < 100


def test_analyze_makes_no_library_call_outside_a_stage(monkeypatch,
                                                       corpus_instances):
    """A clock that only library calls advance: each function the analyzer
    imports from the package, each method of the design action and the
    block action's faithfulness read advance it by one.  The remainder of
    the timings, the clock outside every stage, is then 0 on the Fano
    plane, which is locally primitive, and on the symplectic design over
    GF(2) with m = 3, which also runs the non-quasiprimitive checks."""
    now = [0]
    monkeypatch.setattr(analyzer.time, "perf_counter", lambda: now[0])

    def ticking(fn):
        def call(*args, **kwargs):
            now[0] += 1
            return fn(*args, **kwargs)
        return call
    for owner in (analyzer, DesignAction):
        for name, value in list(vars(owner).items()):
            if (inspect.isfunction(value)
                    and value.__module__ != analyzer.__name__):
                monkeypatch.setattr(owner, name, ticking(value))
    monkeypatch.setattr(ActionImage, "faithful",
                        property(ticking(ActionImage.faithful.fget)))
    fano = next(inst for inst in corpus_instances
                if inst.name == "fano-pgl32")
    structure, g = build_symplectic_subdesign(3, 2)
    for grp, design in ((fano.group, fano.structure), (g, structure)):
        timings = analyze(grp, design, collect_timings=True).timings
        assert timings["remainder"] == 0
        assert timings["block_primitivity"] > 0 and timings["diameter"] > 2
        assert sum(timings.values()) == now[0] > 0
        now[0] = 0


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


def test_unknown_exit_code_when_limit_hit(corpus_instances, fano_pair,
                                          monkeypatch):
    # A7 on 15 points, on both sides here, is typed only by the
    # class-representative walk, which the limit refuses
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    inst = next(inst for inst in corpus_instances
                if inst.name == "a7-cos-15-7-3")
    report = analyze(inst.group, inst.structure, inst.name)
    assert report.local.block_quasiprimitive is True
    assert report.block_type == "unknown"
    assert report.point_type == "unknown"
    assert not report.failed
    assert report.exit_code() == 3
    # each unknown note names the limit and the value that exceeded it
    refusal = ("group order 2520 exceeds enumeration limit 10 "
               "(PERMDESIGN_ELEMENT_LIMIT)")
    assert report.notes == (
        f"reduction-theorem comparison incomplete: point type unknown: "
        f"{refusal}; block type unknown: {refusal}",)
    # every Fano verdict comes from a checked certificate
    structure, g = fano_pair
    report = analyze(GroupWithChain(g.generators), structure, "fano")
    assert report.local.block_quasiprimitive is True
    assert (report.point_type, report.block_type) == ("AS", "AS")
    assert report.notes == ()
    assert report.exit_code() == 0


def test_refused_normal_witness_reads_unknown(ag322_pair, monkeypatch):
    # with the affine search switched off, the walk types the points and
    # finds the intransitive normal subgroup; the limit refuses both, and
    # the block type still comes from a kernel element
    from permdesign import analysis
    monkeypatch.setattr(analysis, "_AFFINE_TRIES", 0)
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    structure, g = ag322_pair
    report = analyze(GroupWithChain(g.generators), structure, "ag")
    assert (report.point_type, report.block_type) == \
           ("unknown", "non-quasiprimitive")
    assert report.checks["normal_orbit_size"] == "unknown"
    refusal = ("group order 1344 exceeds enumeration limit 10 "
               "(PERMDESIGN_ELEMENT_LIMIT)")
    assert report.notes == (
        f"normal orbit size unknown: {refusal}",
        f"reduction-theorem comparison incomplete: point type unknown: "
        f"{refusal}")
    assert not report.failed
    assert report.exit_code() == 3


def test_normal_witness_block_orbits_are_formed_once(ag322_pair,
                                                     monkeypatch):
    # the affine witness is intransitive on the blocks, and the orbits
    # that show it are the ones the orbit-size check reads
    from permdesign import analyzer
    structure, g = ag322_pair
    calls = []
    original = analyzer.orbits_of

    def counting(generators, degree):
        calls.append(degree)
        return original(generators, degree)
    monkeypatch.setattr(analyzer, "orbits_of", counting)
    report = analyze(GroupWithChain(g.generators), structure, "ag")
    assert (report.point_type, report.block_type) == \
           ("HA", "non-quasiprimitive")
    assert report.checks["normal_orbit_size"] == "pass"
    assert calls == [structure.b]


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


def test_index_limit_leaves_analyze_exact(pg132_pair, monkeypatch):
    # the lambda check reads the design's own incidence and builds no coset
    # space, so an index limit below b = 35 (and v = 15) refuses nothing
    structure, g = pg132_pair
    monkeypatch.setenv("PERMDESIGN_INDEX_LIMIT", "10")
    report = analyze(g, structure, "pg1")
    assert report.checks["lambda_constancy"] == "pass"
    assert report.exit_code() == 0
    assert not any("limit" in note for note in report.notes)


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


def test_analyze_reads_stabilizers_as_chain_tails(corpus_instances,
                                                 chain_builds):
    # four builds: the block image, G on the points and the blocks based
    # at block 0, and the two local actions.  G_B on the points is that
    # chain's tail, and G_a on the points is a tail of the group's own
    # chain, except on the two affine instances: there a is not the first
    # base point of G, so G is rebuilt at a once, for the local point
    # action and the lambda crosscheck alike.  Their imprimitive block
    # image takes no chain on the cells of a block system: the translations
    # decide block quasiprimitivity.  No chain holds a permutation of
    # degree v + b: the one on the points and the blocks keeps its
    # elements on the points
    for inst in corpus_instances:
        chain_builds.clear()
        analyze(inst.group, inst.structure, inst.name)
        expected = 5 if inst.name in ("ag2-3-2-agl32",
                                      "symplectic-2-2") else 4
        assert len(chain_builds) == expected, inst.name
        union_degree = inst.structure.v + inst.structure.b
        assert all(g.degree < union_degree
                   for args in chain_builds for g in args[1]), inst.name


def test_analyze_builds_each_local_action_once(corpus_instances,
                                               monkeypatch):
    # G_0 on the blocks through point 0 and G_B on the points of block 0:
    # the flag-transitivity check, the local-primitivity verdict, the
    # stabilizer bound and the block stabilizer all read these two
    from permdesign import designgroup
    original = designgroup.induced_action
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(designgroup, "induced_action", counting)
    for inst in corpus_instances:
        calls.clear()
        analyze(inst.group, inst.structure, inst.name)
        assert len(calls) == 2, inst.name


def test_class_reps_run_once_per_group(pg132_pair, monkeypatch):
    # PGL(4,2) is shown simple by Iwasawa's lemma and its block action is
    # primitive and faithful, so neither needs the class-representative walk
    from permdesign import group as group_module
    original = group_module.prime_order_class_representatives
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "permdesign" and getattr(
                module, "prime_order_class_representatives", None) is original):
            monkeypatch.setattr(module, "prime_order_class_representatives",
                                counting)
    structure, g = pg132_pair
    g = GroupWithChain(g.generators)
    report = analyze(g, structure, "pg132")
    assert (report.point_type, report.block_type) == ("AS", "AS")
    assert calls == []


def test_corpus_walks_only_the_a7_point_stabilizer(corpus_instances,
                                                   monkeypatch):
    # A7 on 15 points is proven simple from its stabilizer PSL(2,7), so the
    # only walk is of those 168 elements; the block type follows from the
    # faithful block action of a simple group
    from permdesign import group as chains
    original = chains.prime_order_class_representatives
    calls = []

    def counting(g, *args, **kwargs):
        calls.append((g.degree, g.order()))
        return original(g, *args, **kwargs)

    monkeypatch.setattr(chains, "prime_order_class_representatives",
                        counting)
    for inst in corpus_instances:
        calls.clear()
        analyze(GroupWithChain(inst.group.generators), inst.structure,
                inst.name)
        expected = [(15, 168)] if inst.name.startswith("a7-") else []
        assert calls == expected, inst.name


def test_analyze_leaves_no_group_in_cyclic_garbage(pg132_pair):
    structure, g = pg132_pair
    gc.collect()
    gc.disable()
    try:
        g = GroupWithChain(g.generators)
        report = analyze(g, structure, "pg132")
        assert report.point_type == "AS"
        del g, report
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [x for x in gc.garbage if isinstance(x, GroupWithChain)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


def test_disallowed_type_pair_is_a_theorem_violation(fano_pair, tmp_path,
                                                     capsys, monkeypatch):
    # a recognizer that types every action OTHER puts a locally primitive
    # design outside the pairs the reduction theorem allows
    from permdesign import analyzer
    from permdesign.analysis import TypeReport
    from permdesign.cli import main
    from permdesign.io import write_design_file, write_group_file
    monkeypatch.setattr(analyzer, "classify_point_action",
                        lambda group: TypeReport(tag="OTHER", witness=None,
                                                 minimal_normals=()))
    structure, g = fano_pair
    report = analyze(GroupWithChain(g.generators), structure, "fano-pgl32")
    assert report.local.locally_primitive
    assert (report.point_type, report.block_type) == ("OTHER", "OTHER")
    assert report.theorem_violation
    assert report.notes == (
        "THEOREM VIOLATION: locally primitive with (point, block) types "
        "(OTHER, OTHER); allowed: AS+quasiprimitive, HA+HA, "
        "HA+non-quasiprimitive",)
    assert report.exit_code() == 1
    write_group_file(tmp_path / "fano-pgl32.group", g)
    write_design_file(tmp_path / "fano-pgl32.design", structure)
    assert main(["census", str(tmp_path)]) == 1
    assert "*** THEOREM VIOLATION ***" in capsys.readouterr().out


def test_failed_consequence_is_a_theorem_violation(fano_pair, monkeypatch):
    # a locally primitive design is flag-transitive and point-primitive;
    # a local report that says otherwise fails the consequence check
    original = DesignAction.local_primitivity_report
    monkeypatch.setattr(
        DesignAction, "local_primitivity_report",
        lambda self, point_report=None: dataclasses.replace(
            original(self, point_report), point_primitive=False))
    structure, g = fano_pair
    report = analyze(GroupWithChain(g.generators), structure, "fano-pgl32")
    assert report.local.locally_primitive
    assert report.checks["local_primitivity_consequences"] == FAIL
    assert report.theorem_violation
    assert report.notes == ("THEOREM VIOLATION: locally primitive but not "
                            "flag-transitive and point-primitive",)
    assert report.exit_code() == 1


def test_cell_disjointness_fails_on_overlapping_cells(ag322_pair,
                                                      symplectic_pair):
    # AGL(1,5) on the 2-subsets of 5 points and the binary symplectic
    # design have imprimitive block actions with a cell whose blocks meet;
    # the planes of AG(3,2) keep every cell's blocks disjoint
    from permdesign.analysis import primitivity_status
    from permdesign.analyzer import _check_cell_disjointness
    agl15 = group(5, "(1 3 4 2)", "(1 3 5 2 4)")
    cases = [((orbit_design(agl15, (0, 1)), agl15), FAIL),
             (symplectic_pair, FAIL), (ag322_pair, PASS)]
    for (structure, g), expected in cases:
        action = DesignAction(g, structure)
        assert primitivity_status(action.block_action.image) == "imprimitive"
        assert _check_cell_disjointness(action) == expected


def test_regular_a7_orbit_design_is_decided_by_the_socle(tmp_path,
                                                         corpus_instances):
    # the A7 of a7-cos-15-3-1 is 2-transitive on its 15 points and regular
    # on the orbit of {1, ..., 6}: a 2-design with 2 520 blocks.  Its block
    # systems form a lattice that the recursion of is_quasiprimitive walks
    # for minutes; A7 is simple and faithful on the blocks, so the socle
    # decides at once, and `analyze` ends well inside 10 s
    import time
    from permdesign.io import write_design_file, write_group_file
    a7 = next(inst.group for inst in corpus_instances
              if inst.name == "a7-cos-15-3-1")
    structure = orbit_design(a7, range(6))
    assert structure.b == 2520
    write_group_file(tmp_path / "a7.group", a7)
    write_design_file(tmp_path / "a7.design", structure)
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "permdesign.cli", "analyze",
                          str(tmp_path / "a7.group"),
                          str(tmp_path / "a7.design")],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=10)
    assert time.monotonic() - start < 10
    assert run.returncode in (0, 3), run.stderr
    assert "types: point=AS block=AS" in run.stdout
