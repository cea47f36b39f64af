"""Acceptance suite: every criterion runs its checks at the stated exact
values and wall-clock budget and prints one PASS/FAIL line (run with -s to
see them).  Each criterion collects all of its sub-failures before
asserting, so a red criterion names exactly what failed."""

import random
import time
from itertools import combinations

from bruteforce import (design_accepts, mulclose, primitive_by_partitions,
                        quasiprimitive_by_lattice)
from conftest import group
from permdesign.analyzer import analyze
from permdesign.analysis import classify_point_action, is_primitive, \
    is_quasiprimitive, primitivity_status
from permdesign.cli import main as cli_main
from permdesign.corpus import (CORPUS_SEED, bundled_corpus,
                               discover_a7_subgroups, frobenius21_in)
from permdesign.cosets import (coset_action, coset_graph_design,
                               lambda_constancy_crosscheck)
from permdesign.designgroup import DesignAction, is_flag_transitive
from permdesign.geometry import (build_AG, build_PG,
                                 build_symplectic_subdesign,
                                 gaussian_coefficient)
from permdesign.group import induced_action
from permdesign.incidence import (DesignError, IncidenceStructure,
                                  complement, incidence_graph_diameter,
                                  t_design_strength, verify_design)


def run_criterion(number, name, budget_seconds, body):
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)

    start = time.perf_counter()
    try:
        body(check)
    except Exception as exc:  # a crash is a failure, not an error
        failures.append(f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        failures.append(f"runtime {elapsed:.1f}s exceeds budget "
                        f"{budget_seconds}s")
    verdict = "PASS" if not failures else "FAIL"
    detail = f" :: {'; '.join(failures)}" if failures else ""
    print(f"\nACCEPTANCE {number} [{name}]: {verdict} "
          f"({elapsed:.1f}s){detail}")
    assert not failures, f"criterion {number} ({name}): {'; '.join(failures)}"


def test_criterion_1_fano_suite():
    def body(check):
        structure, pgl32 = build_PG(2, 2, 1)
        params = verify_design(structure)
        check((params.v, params.b, params.r, params.k, params.lam,
               params.symmetric) == (7, 7, 3, 3, 1, True),
              f"projective plane parameters {params}")
        check(pgl32.order() == 168, f"group order {pgl32.order()} != 168")

        report = analyze(pgl32, structure, "fano-pgl32")
        check(report.local.locally_primitive, "full group not locally primitive")
        check(report.point_type == "AS", f"point type {report.point_type}")
        check(report.block_type not in ("non-quasiprimitive", "unknown"),
              f"block action {report.block_type}")
        check(not report.theorem_violation, "theorem violation flagged")

        frob = frobenius21_in(pgl32)
        check(frob.order() == 21, f"Frobenius subgroup order {frob.order()}")
        frep = analyze(frob, structure, "fano-f21")
        check(frep.local.locally_primitive,
              "Frobenius subgroup not locally primitive")
        check((frep.point_type, frep.block_type) == ("HA", "HA"),
              f"Frobenius types ({frep.point_type}, {frep.block_type})")

        comp = complement(structure)
        cparams = verify_design(comp)
        check((cparams.v, cparams.k, cparams.lam) == (7, 4, 2),
              f"complement parameters {cparams}")
        check(not is_flag_transitive(frob, comp),
              "complement is Frobenius-flag-transitive")

    run_criterion(1, "projective plane suite", 5.0, body)


def test_criterion_2_pg32_suite():
    def body(check):
        line_design, pgl42 = build_PG(3, 2, 1)
        params = verify_design(line_design)
        check((params.v, params.b, params.r, params.k, params.lam) ==
              (15, 35, 7, 3, 1), f"line design parameters {params}")
        check(gaussian_coefficient(4, 2, 2) == 35 == params.b,
              "block count disagrees with the subspace count")
        check(gaussian_coefficient(3, 1, 2) == 7 == params.r,
              "replication disagrees with the subspace count")

        plane_design, _ = build_PG(3, 2, 2)
        params2 = verify_design(plane_design)
        check((params2.v, params2.b, params2.k, params2.lam,
               params2.symmetric) == (15, 15, 7, 3, True),
              f"plane design parameters {params2}")

        for name, structure in (("lines", line_design),
                                ("planes", plane_design)):
            report = DesignAction(pgl42, structure).local_primitivity_report()
            check(report.locally_primitive,
                  f"group not locally primitive on {name}")

    run_criterion(2, "projective 3-space suite", 30.0, body)


def test_criterion_3_a7_coset_suite():
    def body(check):
        a7, left, right, other = discover_a7_subgroups(
            random.Random(CORPUS_SEED))
        check(left.order() == 168, f"L order {left.order()}")
        check(right.order() == 72, f"R order {right.order()}")

        nonsym = coset_graph_design(a7, left, right)
        params = verify_design(nonsym)
        check((params.v, params.b, params.r, params.k, params.lam) ==
              (15, 35, 7, 3, 1), f"coset design parameters {params}")
        cross = lambda_constancy_crosscheck(a7, left, right)
        check(cross.exhaustive and cross.ok and cross.value == 1,
              f"exhaustive ratio check: {cross}")

        from permdesign.discovery import subgroups_conjugate_in
        check(other.order() == 168, f"second subgroup order {other.order()}")
        check(not subgroups_conjugate_in(a7, left, other),
              "order-168 subgroups are conjugate")
        sym = coset_graph_design(a7, left, other)
        params2 = verify_design(sym)
        check((params2.v, params2.b, params2.k, params2.lam,
               params2.symmetric) == (15, 15, 7, 3, True),
              f"symmetric design parameters {params2}")
        cross2 = lambda_constancy_crosscheck(a7, left, other)
        check(cross2.exhaustive and cross2.ok and cross2.value == 3,
              f"symmetric exhaustive ratio check: {cross2}")

        point_group = coset_action(a7, left).image
        for name, structure in (("2-(15,3,1)", nonsym), ("2-(15,7,3)", sym)):
            report = DesignAction(point_group,
                                  structure).local_primitivity_report()
            check(report.locally_primitive,
                  f"not locally primitive on {name}")
            tr = classify_point_action(point_group)
            check(tr.tag == "AS", f"point type {tr.tag} on {name}")

    run_criterion(3, "alternating-group coset suite", 120.0, body)


def test_criterion_4_affine_suite():
    def body(check):
        structure, agl32 = build_AG(3, 2, 2)
        params = verify_design(structure)
        check((params.v, params.b, params.r, params.k, params.lam) ==
              (8, 14, 7, 4, 3), f"affine design parameters {params}")
        t_max, lambdas = t_design_strength(structure)
        check(t_max >= 3, f"strength {t_max} below 3")
        check(lambdas[2] == 1, f"triple count {lambdas[2]} != 1")

        report = analyze(agl32, structure, "ag322")
        check(report.local.locally_primitive, "not locally primitive")
        check(report.local.block_quasiprimitive is False,
              "block action unexpectedly quasiprimitive")
        check(report.checks["normal_orbit_size"] == "pass",
              f"orbit-size check {report.checks['normal_orbit_size']}")
        check(report.checks["imprimitivity_cell_disjointness"] == "pass",
              f"cell disjointness {report.checks['imprimitivity_cell_disjointness']}")
        check(report.checks["origin_blocks_are_subspaces"] == "pass",
              f"origin-subspace check {report.checks['origin_blocks_are_subspaces']}")

        # the intransitive normal witness has block orbits of size v/k = 2
        action = DesignAction(agl32, structure)
        witness = classify_point_action(agl32).witness
        gens = [action.block_image_of(g) for g in witness.generators]
        orbit = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g.images[x]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        check(len(orbit) == 2 == params.v // params.k == params.b // params.r,
              f"witness orbit size {len(orbit)}")

    run_criterion(4, "affine suite", 10.0, body)


def test_criterion_5_symplectic_suite():
    def body(check):
        structure, sp_group = build_symplectic_subdesign(2, 2)
        params = verify_design(structure)
        check((params.v, params.b, params.r, params.k, params.lam) ==
              (16, 80, 20, 4, 4), f"symplectic design parameters {params}")
        check(sp_group.order() == 11520,
              f"group order {sp_group.order()} != 2^4 * 720")

        report = analyze(sp_group, structure, "symplectic-2-2")
        # m = 2 is not locally primitive: W -> W^perp pairs up the blocks
        # through a point, and the witness below proves that pairing
        local = report.local
        check(not local.point_local_primitive,
              "point-local action reported primitive")
        check(local.block_local_primitive, "block-local action imprimitive")
        check(local.flag_transitive, "not flag-transitive")
        check(local.point_primitive, "not point-primitive")
        check(report.point_type == "HA", f"point type {report.point_type}")
        check(report.block_type == "non-quasiprimitive",
              f"block action {report.block_type}")
        check(not report.theorem_violation, "theorem violation flagged")

        t_max, _ = t_design_strength(structure)
        check(t_max == 2, f"strength {t_max} != 2")

        affine, _ = build_AG(4, 2, 2)
        check(set(structure.blocks) < set(affine.blocks),
              "blocks are not a proper subset of the affine design")

        # independent witness: the perpendicular-complement pairing, from
        # the alternating form with hyperbolic pairs on (2j, 2j+1)
        def form(u, v):
            return sum(u[j] * v[j + 1] - u[j + 1] * v[j]
                       for j in range(0, len(u), 2)) % 2

        vectors = [tuple((i >> c) & 1 for c in range(4)) for i in range(16)]
        incident = {frozenset(b) for b in structure.blocks if 0 in b}
        cells = set()
        for plane in incident:
            perp = frozenset(x for x in range(16)
                             if all(form(vectors[x], vectors[w]) == 0
                                    for w in plane))
            check(perp in incident, f"perp of {sorted(plane)} not a block")
            cells.add(frozenset((plane, perp)))
        check(len(cells) == 10 and all(len(c) == 2 for c in cells),
              f"perp pairing is not 10 cells of size 2: "
              f"{sorted(len(c) for c in cells)}")
        check(set().union(*cells) == incident,
              "perp pairing does not cover the incident blocks")
        g_0 = sp_group.point_stabilizer(0)
        check(g_0.order() == 720, f"|G_0| = {g_0.order()} != |Sp(4,2)|")
        for h in g_0.generators:
            image = {frozenset(frozenset(h.apply(x) for x in plane)
                               for plane in cell) for cell in cells}
            check(image == cells, "a generator of G_0 breaks the pairing")

        # m = 3 is the smallest symplectic instance with a primitive
        # point-local action: Sp(6,2) on the 336 planes through the origin
        structure3, sp_group3 = build_symplectic_subdesign(3, 2)
        g_0 = sp_group3.point_stabilizer(0)
        check(g_0.order() == 1451520, f"|G_0| = {g_0.order()} != |Sp(6,2)|")
        incident = [frozenset(b) for b in structure3.blocks if 0 in b]
        check(len(incident) == 336, f"{len(incident)} blocks through 0")
        local_action = induced_action(
            g_0, incident, lambda b, h: frozenset(h.apply(x) for x in b))
        status = primitivity_status(local_action.image)
        check(status == "primitive",
              f"m=3 point-local action on blocks is {status}")

    run_criterion(5, "symplectic suite", 120.0, body)


def test_criterion_6_identity_and_property_suite():
    def body(check):
        instances = bundled_corpus()
        for inst in instances:
            p = verify_design(inst.structure)
            check(p.v * p.r == p.b * p.k, f"{inst.name}: vr != bk")
            check(p.lam * (p.v - 1) == p.r * (p.k - 1),
                  f"{inst.name}: pair-count identity fails")
            check(p.b >= p.v, f"{inst.name}: block count below point count")
            check(p.lam < p.r, f"{inst.name}: lambda not below r")

            action = DesignAction(inst.group, inst.structure)
            if action.is_flag_transitive():
                check(action.stabilizer_bound_holds(),
                      f"{inst.name}: stabilizer order bound fails")
            check(action.block_action.faithful,
                  f"{inst.name}: unfaithful on blocks")

            diameter = incidence_graph_diameter(inst.structure)
            check(diameter <= 4, f"{inst.name}: diameter {diameter} > 4")
            if p.symmetric:
                check(diameter == 3,
                      f"{inst.name}: symmetric with diameter {diameter}")
            if inst.name == "pg1-3-2-pgl42":
                check(diameter == 4, f"line design diameter {diameter} != 4")

            report = action.local_primitivity_report(strict=True)
            if report.locally_primitive:
                check(report.flag_transitive and report.point_primitive,
                      f"{inst.name}: local primitivity consequence fails")

        # the exact worked bound for the projective plane with full group
        fano, pgl32 = build_PG(2, 2, 1)
        action = DesignAction(pgl32, fano)
        alpha = fano.blocks[0][0]
        g_a = action.point_stabilizer_union(alpha)
        g_ab = g_a.point_stabilizer(fano.v)
        check(g_a.order() ** 3 // g_ab.order() ** 2 == 216,
              "stabilizer bound constant is not 216")
        check(pgl32.order() < 216, "168 < 216 fails")

    run_criterion(6, "identity and property suite", 60.0, body)


def test_criterion_7_oracle_equivalence():
    def body(check):
        # primitivity vs exhaustive partition search, degree <= 12
        primitivity_corpus = [
            group(4, "(1 2 3 4)", "(1 3)"),
            group(4, "(1 2)", "(1 2 3 4)"),
            group(6, "(1 2 3 4 5 6)"),
            group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)"),
            group(7, "(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)"),
            group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"),
            group(8, "(1 2 3 4 5 6 7 8)", "(2 8)(3 7)(4 6)"),
            group(12, "(1 2 3 4 5 6 7 8 9 10 11 12)"),
            group(6, "(1 2)", "(3 4)", "(5 6)", "(1 3 5)(2 4 6)"),
        ]
        for g in primitivity_corpus:
            check(g.degree <= 12, "primitivity corpus degree too large")
            check(is_primitive(g) == primitive_by_partitions(g),
                  f"primitivity mismatch on degree {g.degree} "
                  f"order {g.order()}")

        # quasiprimitivity vs the full normal-subgroup lattice, order <= 2000
        lattice_corpus = [
            group(2, "(1 2)"),
            group(4, "(1 2 3 4)"),
            group(4, "(1 2 3 4)", "(1 3)"),
            group(4, "(1 2 3)", "(2 3 4)"),
            group(4, "(1 2)", "(1 2 3 4)"),
            group(5, "(1 2 3)", "(3 4 5)"),
            group(5, "(1 2)", "(1 2 3 4 5)"),
            group(6, "(1 2 3 4 5 6)"),
            group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)"),
            group(6, "(1 2)", "(3 4)", "(5 6)", "(1 3 5)(2 4 6)"),
            group(7, "(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)"),
            group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"),
        ]
        for g in lattice_corpus:
            check(g.order() <= 2000, "lattice corpus order too large")
            check(is_quasiprimitive(g) == quasiprimitive_by_lattice(g),
                  f"quasiprimitivity mismatch at order {g.order()}")

        # design acceptance vs direct pair counting, 1000 random structures
        rng = random.Random(7)
        accepted = 0
        for _ in range(1000):
            v = rng.randrange(3, 8)
            if rng.random() < 0.25:
                k = rng.randrange(2, v)
                blocks = [list(c) for c in combinations(range(v), k)]
            else:
                k = rng.randrange(1, v + 1)
                blocks = [sorted(rng.sample(range(v), k))
                          for _ in range(rng.randrange(1, 11))]
            structure = IncidenceStructure(v=v, blocks=blocks)
            try:
                verify_design(structure)
                ok = True
                accepted += 1
            except DesignError:
                ok = False
            check(ok == design_accepts(v, [set(b) for b in structure.blocks]),
                  f"design acceptance mismatch at v={v} blocks={blocks}")
        check(accepted > 50, "random structures never verified")

        # chain order vs plain closure enumeration, order <= 5000
        closure_corpus = [
            group(4, "(1 2)", "(1 2 3 4)"),
            group(6, "(1 2)", "(1 2 3 4 5 6)"),
            group(7, "(1 2 3)", "(1 2 3 4 5 6 7)"),
            group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"),
            build_AG(3, 2, 2)[1],
            build_PG(2, 2, 1)[1],
        ]
        from permdesign.geometry import classical_group_generators
        closure_corpus.append(classical_group_generators("Sp", 4, 2))
        for g in closure_corpus:
            check(g.order() <= 5000, "closure corpus order too large")
            check(g.order() == len(mulclose(g.generators)),
                  f"chain order mismatch at order {g.order()}")

    run_criterion(7, "oracle equivalence suite", 120.0, body)


def test_criterion_8_census(corpus_dir, capsys):
    def body(check):
        code = cli_main(["census", str(corpus_dir)])
        out = capsys.readouterr().out
        check(code == 0, f"census exit code {code}")
        check("THEOREM VIOLATION" not in out, "census reported a violation")
        for row in ("AS , AS", "HA , HA", "HA , non-quasiprimitive"):
            check(row in out, f"census table missing the row ({row})")

    run_criterion(8, "bundled census", 600.0, body)
