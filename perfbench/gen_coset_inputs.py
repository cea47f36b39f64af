"""Write the (G, L, R) group files of the coset-build workload.

Each triple is a transitive design group G with L the stabilizer of a point
of block 0 and R the setwise stabilizer of block 0, derived through the
library's own constructors.  Deriving the block stabilizer of the largest
triple takes several seconds, so the files are written once and committed;
every benchmark run only conjugates them.

Run from the repository root:  python3 perfbench/gen_coset_inputs.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from permdesign.corpus import a7_instances  # noqa: E402
from permdesign.designgroup import DesignAction  # noqa: E402
from permdesign.geometry import (build_AG, build_PG,  # noqa: E402
                                 build_symplectic_subdesign)
from permdesign.io import write_group_file  # noqa: E402

OUT_DIR = os.path.join(HERE, "coset_inputs")


def triples():
    """(name, comment, group, design) for every coset-build triple."""
    nonsym, sym = a7_instances()
    yield nonsym.name, nonsym.description, nonsym.group, nonsym.structure
    yield sym.name, sym.description, sym.group, sym.structure
    ag, agl = build_AG(3, 3, 1)
    yield "agl-3-3-lines", "lines of the ternary affine 3-space", agl, ag
    pg, pgl = build_PG(3, 3, 1)
    yield "pgl-4-3-lines", "lines of the ternary projective 3-space", pgl, pg
    sp, spgroup = build_symplectic_subdesign(2, 3)
    yield ("symplectic-2-3", "translations and Sp(4,3) on the cosets of "
           "non-degenerate planes", spgroup, sp)


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, comment, group, design in triples():
        alpha = design.blocks[0][0]
        left = group.point_stabilizer(alpha)
        right = DesignAction(group, design).block_stabilizer(0)
        order = group.order()
        if left.order() * design.v != order:
            raise SystemExit(f"{name}: |L| = {left.order()}, expected "
                             f"|G|/v = {order // design.v}")
        if right.order() * design.b != order:
            raise SystemExit(f"{name}: |R| = {right.order()}, expected "
                             f"|G|/b = {order // design.b}")
        for role, sub in (("G", group), ("L", left), ("R", right)):
            write_group_file(os.path.join(OUT_DIR, f"{name}.{role}.group"),
                             sub, comment=f"{name} {role}: {comment}")
        print(f"{name}: |G|={order} [G:L]={design.v} [G:R]={design.b}")


if __name__ == "__main__":
    main()
