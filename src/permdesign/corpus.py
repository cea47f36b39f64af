"""The bundled instance corpus: one (group, design) pair per construction
studied by the pipeline, covering all three rows of the reduction theorem
(almost simple + quasiprimitive blocks, affine + affine blocks, affine +
non-quasiprimitive blocks).

Every instance comes from an explicit construction, so the corpus is the
same on every build: the subgroups of the alternating group behind the two
15-point coset designs are written out by generators, not searched for."""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import coset_action, coset_graph_design
from .geometry import (build_AG, build_PG, build_symplectic_subdesign,
                       projective_design)
from .group import GroupWithChain, StructureContradiction
from .incidence import IncidenceStructure
from .io import write_design_file, write_group_file
from .perm import Permutation


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    structure: IncidenceStructure
    group: GroupWithChain
    description: str


def frobenius21_in(pgl32):
    """The order-21 normalizer of a cyclic group of order 7 inside the
    projective group of the smallest projective plane, from fixed generators
    of orders 7 and 3, checked by order and by membership."""
    frob = _a7_subgroup(21, "(1 3 6 2 5 4 7)", "(1 5 4)(3 7 6)")
    if not frob.is_subgroup_of(pgl32):
        raise StructureContradiction("Frobenius generators not in PGL(3,2)")
    return frob


def _a7_subgroup(order, *cycles):
    group = GroupWithChain(tuple(Permutation.from_cycles(c, 7)
                                 for c in cycles))
    if group.order() != order:
        raise StructureContradiction(
            f"generators {cycles} give order {group.order()}, not {order}")
    return group


def alternating7():
    return _a7_subgroup(2520, "(1 2 3)", "(1 2 3 4 5 6 7)")


def discover_a7_subgroups():
    """Subgroups L (order 168), R (order 72), and a second order-168
    subgroup from the other conjugacy class, each meeting L in a subgroup
    of order 24, so that the two coset graphs carry the two 15-point
    designs.

    L preserves the Fano plane on 1..7 with lines 126, 137, 145, 234, 257,
    356, 467; R = (S3 x S4) n A7 is the setwise stabilizer of its line
    {1, 3, 7}; the second subgroup is not conjugate to L in A7."""
    a7 = alternating7()
    left = _a7_subgroup(168, "(1 5)(2 3)", "(1 2 4 6 3 7 5)")
    right = _a7_subgroup(72, "(1 3)(2 4 6 5)", "(1 7)(2 4)", "(1 7)(4 6)")
    other = _a7_subgroup(168, "(1 2 4 5 6 7 3)", "(1 7)(3 4)")
    return a7, left, right, other


def a7_instances():
    a7, left, right, other = discover_a7_subgroups()
    point_group = coset_action(a7, left).image
    nonsym = coset_graph_design(a7, left, right)
    sym = coset_graph_design(a7, left, other)
    return (CorpusInstance(
                name="a7-cos-15-3-1", structure=nonsym, group=point_group,
                description="coset graph of the alternating group of degree 7 "
                            "on subgroups of orders 168 and 72"),
            CorpusInstance(
                name="a7-cos-15-7-3", structure=sym, group=point_group,
                description="coset graph on two non-conjugate order-168 "
                            "subgroups (symmetric)"))


def bundled_corpus(rng=None):
    """Deterministic list of all bundled instances.  `rng` is accepted and
    ignored: no instance is random, and benchmark set-up code still passes
    one."""
    out = []
    fano, pgl32 = build_PG(2, 2, 1)
    out.append(CorpusInstance("fano-pgl32", fano, pgl32,
                              "smallest projective plane with its full "
                              "projective group"))
    out.append(CorpusInstance("fano-frobenius21", fano, frobenius21_in(pgl32),
                              "smallest projective plane with the order-21 "
                              "Frobenius subgroup"))
    pg1, pgl42 = build_PG(3, 2, 1)
    out.append(CorpusInstance("pg1-3-2-pgl42", pg1, pgl42,
                              "lines of the binary projective 3-space"))
    pg2 = projective_design(3, 2, 2)
    out.append(CorpusInstance("pg2-3-2-pgl42", pg2, pgl42,
                              "planes of the binary projective 3-space "
                              "(symmetric)"))
    ag, agl32 = build_AG(3, 2, 2)
    out.append(CorpusInstance("ag2-3-2-agl32", ag, agl32,
                              "planes of the binary affine 3-space"))
    sympl, spgroup = build_symplectic_subdesign(2, 2)
    out.append(CorpusInstance("symplectic-2-2", sympl, spgroup,
                              "cosets of the non-degenerate planes of a "
                              "4-dimensional binary symplectic space"))
    out.extend(a7_instances())
    return out


def write_corpus(directory):
    """Write the bundled corpus as <name>.group / <name>.design pairs."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for inst in bundled_corpus():
        gpath = os.path.join(directory, f"{inst.name}.group")
        dpath = os.path.join(directory, f"{inst.name}.design")
        write_group_file(gpath, inst.group, comment=inst.description)
        write_design_file(dpath, inst.structure, comment=inst.description)
        written.append((gpath, dpath))
    return written
