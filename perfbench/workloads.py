"""The benchmark's workloads: how each one makes its inputs from a seed, and
one pass over its items, from files on disk to checked results.

Library calls go through module attributes (`geometry.build_PG`, not a
name imported from it) so that the layer wrappers of `tracing` see them.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import random
from dataclasses import dataclass, field

from permdesign import cli, corpus, cosets, geometry, group, incidence, io
from permdesign.analyzer import CHECK_NAMES
from permdesign.perm import Permutation

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
COSET_INPUTS = os.path.join(HERE, "coset_inputs")

# the verdict fields of one census instance; any of them may read "unknown"
VERDICT_FIELDS = CHECK_NAMES + ("point_type", "block_type")
UNKNOWN = "unknown"


@dataclass
class Tally:
    """Items attempted and failed, and verdict fields read and unknown."""

    attempted: int = 0
    failed: int = 0
    fields: int = 0
    unknown: int = 0
    problems: list = field(default_factory=list)

    def item(self, name, problems, fields=0, unknown=0):
        self.attempted += 1
        self.fields += fields
        self.unknown += unknown
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _allowed(value):
    return value if isinstance(value, list) else [value]


def judge_census_instance(actual, expected):
    """(problems, verdict fields, unknown fields) of one census instance
    against its expected record.  An expected verdict is one value or a
    list of acceptable values; "unknown" is never a failure."""
    problems = []
    params = actual["parameters"] or {}
    got = {k: params.get(k) for k in expected["parameters"]}
    if got != expected["parameters"]:
        problems.append(f"parameters {got} != {expected['parameters']}")
    local = actual["local_primitivity"] or {}
    locally_primitive = bool(local.get("point_local_primitive")
                             and local.get("block_local_primitive"))
    if locally_primitive != expected["locally_primitive"]:
        problems.append(f"locally_primitive {locally_primitive}")
    if actual["theorem_violation"] != expected["theorem_violation"]:
        problems.append(f"theorem_violation {actual['theorem_violation']}")
    verdicts = dict(actual["checks"], point_type=actual["point_type"],
                    block_type=actual["block_type"])
    wanted = dict(expected["checks"], point_type=expected["point_type"],
                  block_type=expected["block_type"])
    unknown = 0
    for name in VERDICT_FIELDS:
        value = verdicts.get(name)
        if value == UNKNOWN:
            unknown += 1
        elif value not in _allowed(wanted[name]):
            problems.append(f"{name} = {value!r}, expected {wanted[name]!r}")
    return problems, len(VERDICT_FIELDS), unknown


def run_census(directory, expected, tally):
    """`permdesign census <inputs> --json <file>` in-process, every instance
    judged against the expected verdicts.  A crash or an exit code outside
    the expected ones fails every item of the pass."""
    report_path = os.path.join(directory, "census.json")
    inputs = os.path.join(directory, "inputs")
    if os.path.exists(report_path):
        os.remove(report_path)
    instances = expected["instances"]
    try:
        with contextlib.redirect_stdout(stdio.StringIO()):
            code = cli.main(["census", inputs, "--json", report_path])
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except Exception as exc:  # a crash of the command fails the pass
        for name in instances:
            tally.item(name, [f"census raised {exc!r}"])
        return
    if code not in expected["exit_codes"]:
        for name in instances:
            tally.item(name, [f"census exit code {code}"])
        return
    found = {r["instance_id"]: r for r in report["instances"]}
    for name, want in instances.items():
        if name not in found:
            tally.item(name, ["missing from the census report"])
            continue
        tally.item(name, *judge_census_instance(found[name], want))


def _write_pair(directory, name, grp, structure, comment=None):
    io.write_group_file(os.path.join(directory, f"{name}.group"), grp,
                        comment=comment)
    io.write_design_file(os.path.join(directory, f"{name}.design"), structure,
                         comment=comment)


def relabel(grp, structure, rng):
    """The same design and group with points renamed by a random
    permutation: point x becomes perm[x]."""
    perm = list(range(structure.v))
    rng.shuffle(perm)
    gens = []
    for g in grp.generators:
        images = [0] * structure.v
        for x, y in enumerate(g.images):
            images[perm[x]] = perm[y]
        gens.append(Permutation(images))
    renamed = group.GroupWithChain(tuple(gens))
    if renamed.order() != grp.order():
        raise RuntimeError("relabelling changed the group order")
    blocks = [sorted(perm[p] for p in blk) for blk in structure.blocks]
    return renamed, incidence.IncidenceStructure(structure.v, blocks)


class CorpusCensus:
    """`census` over the bundled corpus written from bundled_corpus(rng)."""

    def __init__(self, names=None):
        self.names = names  # None: every bundled instance

    def setup(self, directory, seed):
        inputs = os.path.join(directory, "inputs")
        os.makedirs(inputs, exist_ok=True)
        for inst in corpus.bundled_corpus(rng=random.Random(seed)):
            if self.names is None or inst.name in self.names:
                _write_pair(inputs, inst.name, inst.group, inst.structure,
                            comment=inst.description)

    run_pass = staticmethod(run_census)


BEYOND_LIMIT = (
    ("symplectic-2-3", lambda: geometry.build_symplectic_subdesign(2, 3)),
    ("pg1-4-2", lambda: geometry.build_PG(4, 2, 1)),
)


class GeometryCensus:
    """`census` on designs from the geometry builders, each relabelled by a
    seeded point permutation."""

    def __init__(self, builders=BEYOND_LIMIT):
        self.builders = builders

    def setup(self, directory, seed):
        inputs = os.path.join(directory, "inputs")
        os.makedirs(inputs, exist_ok=True)
        rng = random.Random(seed)
        for name, build in self.builders:
            structure, grp = build()
            grp, structure = relabel(grp, structure, rng)
            _write_pair(inputs, name, grp, structure)

    run_pass = staticmethod(run_census)


COSET_TRIPLES = ("a7-cos-15-3-1", "a7-cos-15-7-3", "agl-3-3-lines",
                 "pgl-4-3-lines", "symplectic-2-3")


class CosetBuild:
    """Designs built from (G, L, R) group files: coset graph, parameters
    and faithfulness, with L and R conjugated by a seeded element of G."""

    def __init__(self, triples=COSET_TRIPLES):
        self.triples = triples

    def setup(self, directory, seed):
        os.makedirs(directory, exist_ok=True)
        rng = random.Random(seed)
        for name in self.triples:
            grp, left, right = (
                io.read_group_file(os.path.join(COSET_INPUTS,
                                                f"{name}.{role}.group"))
                for role in "GLR")
            x = Permutation.identity(grp.degree)
            for _ in range(24):
                x = x * rng.choice(grp.generators)
            io.write_group_file(os.path.join(directory, f"{name}.G.group"),
                                grp)
            for role, sub in (("L", left), ("R", right)):
                conj = group.GroupWithChain(
                    tuple(g.conjugated_by(x) for g in sub.generators))
                io.write_group_file(
                    os.path.join(directory, f"{name}.{role}.group"), conj)

    def run_pass(self, directory, expected, tally):
        for name in self.triples:
            want = expected["triples"][name]
            try:
                grp, left, right = (
                    io.read_group_file(os.path.join(directory,
                                                    f"{name}.{role}.group"))
                    for role in "GLR")
                structure = cosets.coset_graph_design(grp, left, right)
                params = incidence.verify_design(structure)
                faithful = cosets.coset_graph_faithful(grp, left, right)
            except Exception as exc:  # an unexpected raise fails the item
                tally.item(name, [f"raised {exc!r}"], fields=1)
                continue
            problems = []
            got = {"v": params.v, "b": params.b, "r": params.r,
                   "k": params.k, "lambda": params.lam}
            if got != want["parameters"]:
                problems.append(f"parameters {got} != {want['parameters']}")
            if faithful != want["faithful"]:
                problems.append(f"faithful {faithful}")
            tally.item(name, problems, fields=1)


WORKLOADS = {
    "corpus-census": CorpusCensus,
    "beyond-limit": GeometryCensus,
    "coset-build": CosetBuild,
}
