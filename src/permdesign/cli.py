"""Command-line front end.

Exit codes: 0 all checks pass, 1 check failure or theorem violation,
2 input error, 3 a resource limit left some check unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analyzer import AnalysisReport, analyze
from .corpus import write_corpus
from .cosets import (CosetGraph, IndexLimitError, SubgroupError,
                     coset_graph_faithful, is_trivial_factorization,
                     lambda_constancy_crosscheck)
from .designgroup import PreservationError, RepeatedBlockError
from .geometry import (SizeLimitError, build_AG, build_PG,
                       build_symplectic_subdesign)
from .gf import UnsupportedFieldError
from .group import EnumerationLimitError, MembershipError
from .incidence import DesignError, t_design_strength, verify_design
from .io import (FileFormatError, read_design_file, read_group_file,
                 write_design_file, write_group_file)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_build(args):
    if args.family == "pg":
        structure, group = build_PG(args.d, args.q, args.i)
        stem = f"pg{args.i}_{args.d}_{args.q}"
    elif args.family == "ag":
        structure, group = build_AG(args.d, args.q, args.i)
        stem = f"ag{args.i}_{args.d}_{args.q}"
    else:
        structure, group = build_symplectic_subdesign(args.m, args.q)
        stem = f"symplectic_{args.m}_{args.q}"
    stem = args.prefix or stem
    os.makedirs(args.out, exist_ok=True)
    dpath = os.path.join(args.out, f"{stem}.design")
    gpath = os.path.join(args.out, f"{stem}.group")
    write_design_file(dpath, structure)
    write_group_file(gpath, group)
    params = verify_design(structure)
    print(f"wrote {dpath} and {gpath}")
    print(f"2-({params.v},{params.k},{params.lam}) design, b={params.b}, "
          f"r={params.r}, group order {group.order()}")
    return EXIT_OK


def cmd_coset(args):
    group = read_group_file(args.group)
    left = read_group_file(args.left)
    right = read_group_file(args.right)
    graph = CosetGraph(group, left, right)
    record = {
        "index_L": graph.space_points.index,
        "index_R": graph.space_blocks.index,
        "trivial_factorization": is_trivial_factorization(group, left, right),
        "faithful": coset_graph_faithful(group, left, right),
    }
    crosscheck = lambda_constancy_crosscheck(group, left, right)
    record["lambda_constant"] = crosscheck.value if crosscheck.ok else None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = args.prefix or "coset"
        dpath = os.path.join(args.out, f"{stem}.design")
        write_design_file(dpath, graph.structure)
        print(f"wrote {dpath}")
    print(json.dumps(record, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args):
    structure = read_design_file(args.design)
    try:
        params = verify_design(structure)
    except DesignError as exc:
        print(f"not a 2-design [{exc.code}]: {exc}")
        return EXIT_FAIL
    t_max, lambdas = t_design_strength(structure)
    print(f"2-({params.v},{params.k},{params.lam}) design: b={params.b}, "
          f"r={params.r}, symmetric={params.symmetric}")
    print(f"t-design strength: {t_max} with lambda sequence "
          f"{', '.join(str(x) for x in lambdas)}")
    return EXIT_OK


def _print_report(report: AnalysisReport):
    p = report.parameters
    if report.trivial:
        print(f"{report.instance_id}: trivial design (all blocks full)")
        return
    print(f"{report.instance_id}: 2-({p.v},{p.k},{p.lam}), b={p.b}, r={p.r}, "
          f"symmetric={p.symmetric}")
    loc = report.local
    print(f"  flag-transitive={loc.flag_transitive} "
          f"locally-primitive={loc.locally_primitive} "
          f"point-primitive={loc.point_primitive}")
    print(f"  types: point={report.point_type} block={report.block_type}")
    for name in sorted(report.checks):
        print(f"  check {name}: {report.checks[name]}")
    if report.theorem_violation:
        print("  *** THEOREM VIOLATION ***")
    for note in report.notes:
        print(f"  note: {note}")


def cmd_analyze(args):
    group = read_group_file(args.group)
    structure = read_design_file(args.design)
    instance_id = os.path.splitext(os.path.basename(args.design))[0]
    report = analyze(group, structure, instance_id=instance_id,
                     collect_timings=args.timings)
    _print_report(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    return report.exit_code()


def cmd_crosscheck(args):
    group = read_group_file(args.group)
    left = read_group_file(args.left)
    right = read_group_file(args.right)
    result = lambda_constancy_crosscheck(group, left, right)
    if result.ok:
        if result.value is None:
            print("vacuously constant: the left subgroup is the whole group")
        else:
            print(f"constant ratio {result.value} (exhaustive over the "
                  f"{result.sample_count} elements outside L); matches the "
                  f"coset-graph neighborhood counts")
        return EXIT_OK
    if not result.constant:
        print("ratio not constant: "
              + ", ".join(f"{v} x{c}" for v, c in result.ratios))
    if not result.graph_agrees:
        print("set-side and graph-side counts disagree")
    return EXIT_FAIL


def cmd_census(args):
    if not os.path.isdir(args.directory):
        return _fail(f"{args.directory} is not a directory", EXIT_INPUT)
    designs = sorted(f for f in os.listdir(args.directory)
                     if f.endswith(".design"))
    rows = []
    reports = []
    any_fail = any_error = any_unknown = False
    for fname in designs:
        stem = fname[:-len(".design")]
        dpath = os.path.join(args.directory, fname)
        gpath = os.path.join(args.directory, stem + ".group")
        try:
            if not os.path.exists(gpath):
                raise FileFormatError(f"missing group file {gpath}")
            group = read_group_file(gpath)
            structure = read_design_file(dpath)
            report = analyze(group, structure, instance_id=stem)
        except (FileFormatError, DesignError, PreservationError,
                RepeatedBlockError, MembershipError, ValueError) as exc:
            any_error = True
            rows.append((stem, "error", str(exc)))
            print(f"{stem}: ERROR {exc}")
            continue
        reports.append(report)
        _print_report(report)
        if report.failed:
            any_fail = True
        if report.has_unknown:
            any_unknown = True
        rows.append((stem, report.point_type, report.block_type))
    table = {}
    for report in reports:
        key = (report.point_type, report.block_type)
        table.setdefault(key, []).append(report.instance_id)
    print()
    print("census by (point type, block action):")
    if not table:
        print("  (no instances)")
    for key in sorted(table):
        print(f"  {key[0]:>4} , {key[1]:<18} : {len(table[key])}  "
              f"[{', '.join(sorted(table[key]))}]")
    if args.json:
        payload = {
            "instances": [r.to_json_dict() for r in reports],
            "errors": [{"instance_id": s, "message": m}
                       for s, kind, m in rows if kind == "error"],
            "table": {f"{k[0]}/{k[1]}": sorted(v) for k, v in table.items()},
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if any_fail:
        return EXIT_FAIL
    if any_error:
        return EXIT_INPUT
    if any_unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_corpus(args):
    written = write_corpus(args.directory)
    for gpath, dpath in written:
        print(f"wrote {gpath} / {dpath}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="permdesign",
        description="Construct and verify block designs carried by finite "
                    "permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a design family instance")
    fam = p_build.add_subparsers(dest="family", required=True)
    p_pg = fam.add_parser("pg", help="projective-space design")
    p_pg.add_argument("d", type=int)
    p_pg.add_argument("q", type=int)
    p_pg.add_argument("i", type=int)
    p_ag = fam.add_parser("ag", help="affine-space design")
    p_ag.add_argument("d", type=int)
    p_ag.add_argument("q", type=int)
    p_ag.add_argument("i", type=int)
    p_sp = fam.add_parser("symplectic", help="non-degenerate-plane subdesign")
    p_sp.add_argument("m", type=int)
    p_sp.add_argument("q", type=int)
    for p in (p_pg, p_ag, p_sp):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--prefix", help="output file stem")
        p.set_defaults(func=cmd_build)

    p_coset = sub.add_parser("coset", help="coset-graph design from (G, L, R)")
    p_coset.add_argument("group")
    p_coset.add_argument("left")
    p_coset.add_argument("right")
    p_coset.add_argument("--out", help="directory for the design file")
    p_coset.add_argument("--prefix", help="output file stem")
    p_coset.set_defaults(func=cmd_coset)

    p_verify = sub.add_parser("verify", help="verify a design file")
    p_verify.add_argument("design")
    p_verify.set_defaults(func=cmd_verify)

    p_analyze = sub.add_parser("analyze", help="full pipeline on one instance")
    p_analyze.add_argument("group")
    p_analyze.add_argument("design")
    p_analyze.add_argument("--json", help="write the JSON report here")
    p_analyze.add_argument("--timings", action="store_true",
                           help="include wall-clock timings in the report "
                                "(omitted by default so reports are "
                                "byte-stable)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_cross = sub.add_parser("crosscheck",
                             help="double-coset ratio constancy check")
    p_cross.add_argument("group")
    p_cross.add_argument("left")
    p_cross.add_argument("right")
    p_cross.set_defaults(func=cmd_crosscheck)

    p_census = sub.add_parser("census",
                              help="analyze every instance pair in a directory")
    p_census.add_argument("directory")
    p_census.add_argument("--json", help="write the aggregate JSON here")
    p_census.set_defaults(func=cmd_census)

    p_corpus = sub.add_parser("corpus", help="write the bundled corpus")
    p_corpus.add_argument("directory")
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except DesignError as exc:
        print(f"not a 2-design [{exc.code}]: {exc}")
        return EXIT_FAIL
    except (FileFormatError, PreservationError, RepeatedBlockError,
            SubgroupError, UnsupportedFieldError, MembershipError,
            ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except (EnumerationLimitError, IndexLimitError, SizeLimitError) as exc:
        return _fail(str(exc), EXIT_UNKNOWN)


if __name__ == "__main__":
    sys.exit(main())
