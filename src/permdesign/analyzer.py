"""The full analysis pipeline: design verification, local-primitivity
verdicts, point/block type recognition, the consistency checks tied to the
verified group-action properties, and the reduction-theorem comparison.

The reduction statement (a locally primitive pair is almost-simple with
quasiprimitive block action, or affine with affine or non-quasiprimitive
block action) is treated as an oracle to check: both sides are computed
independently and only compared at the end.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .analysis import (IntransitiveError, TypeReport, classify_point_action,
                       minimal_block_system, primitivity_status)
from .config import element_limit
from .cosets import IndexLimitError, lambda_constancy_crosscheck
from .designgroup import DesignAction, LocalPrimitivityReport
from .group import (EnumerationLimitError, normal_closure,
                    prime_order_class_representatives)
from .incidence import incidence_graph_diameter, verify_design

CHECK_NAMES = (
    "lambda_constancy",
    "diameter_bound",
    "stabilizer_order_bound",
    "faithful_block_action",
    "local_primitivity_consequences",
    "imprimitivity_cell_disjointness",
    "normal_orbit_size",
    "origin_blocks_are_subspaces",
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
UNKNOWN = "unknown"

# (point type, block action) pairs the reduction theorem allows for a
# locally primitive design: almost simple with quasiprimitive blocks, or
# affine with affine or non-quasiprimitive blocks
_ALLOWED_PAIRS = ("AS+quasiprimitive", "HA+HA", "HA+non-quasiprimitive")


def reduction_pair_allowed(point_type, block_type):
    if point_type == "AS":
        return block_type != "non-quasiprimitive"
    if point_type == "HA":
        return block_type in ("HA", "non-quasiprimitive")
    return False


@dataclass
class AnalysisReport:
    instance_id: str
    trivial: bool
    parameters: object | None
    local: LocalPrimitivityReport | None
    point_type: str
    block_type: str
    point_type_report: dict | None
    block_type_report: dict | None
    checks: dict
    theorem_violation: bool
    notes: tuple = ()
    timings: dict | None = None

    @property
    def failed(self):
        return self.theorem_violation or FAIL in self.checks.values()

    @property
    def has_unknown(self):
        return (UNKNOWN in self.checks.values()
                or self.point_type == UNKNOWN or self.block_type == UNKNOWN)

    def exit_code(self):
        if self.failed:
            return 1
        if self.has_unknown:
            return 3
        return 0

    def to_json_dict(self):
        params = None
        if self.parameters is not None:
            p = self.parameters
            params = {"v": p.v, "b": p.b, "r": p.r, "k": p.k,
                      "lambda": p.lam, "symmetric": p.symmetric}
        out = {
            "instance_id": self.instance_id,
            "trivial_design": self.trivial,
            "parameters": params,
            "local_primitivity": (None if self.local is None
                                  else self.local.to_json_dict()),
            "point_type": self.point_type,
            "block_type": self.block_type,
            "point_type_report": self.point_type_report,
            "block_type_report": self.block_type_report,
            "checks": dict(self.checks),
            "theorem_violation": self.theorem_violation,
            "notes": list(self.notes),
        }
        if self.timings is not None:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _find_intransitive_normal(action, point_type_report, limit):
    """The canonical intransitive-on-blocks normal subgroup: the affine
    witness when the point type is affine, otherwise the first prime-order
    normal closure that is intransitive on blocks."""
    group = action.group
    b = action.structure.b

    def block_orbit_count(n):
        gens = [action.block_image_of(g) for g in n.generators]
        seen = set()
        count = 0
        for start in range(b):
            if start in seen:
                continue
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                for g in gens:
                    y = g.images[x]
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return count

    candidates = []
    if point_type_report is not None and point_type_report.tag == "HA":
        candidates.append(point_type_report.witness)
    else:
        for rep in prime_order_class_representatives(group, limit):
            candidates.append(normal_closure(group, [rep]))
    for n in candidates:
        if block_orbit_count(n) > 1:
            return n
    return None


def _block_orbits_of(action, subgroup):
    gens = [action.block_image_of(g) for g in subgroup.generators]
    b = action.structure.b
    seen = set()
    orbits = []
    for start in range(b):
        if start in seen:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g.images[x]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def _check_normal_orbit_size(action, witness, params):
    v, k, b, r = params.v, params.k, params.b, params.r
    if v % k or b % r or v // k != b // r:
        return FAIL
    expected = v // k
    orbits = _block_orbits_of(action, witness)
    return PASS if all(len(o) == expected for o in orbits) else FAIL


def _check_origin_blocks(action, witness):
    """Identify points with the regular witness (point 0 <-> identity) and
    test that every block through point 0 is closed under the group
    operation, i.e. is a subgroup, hence a subspace of the elementary
    abelian witness."""
    elems = witness.elements()
    to_element = {}
    for n in elems:
        pt = n.images[0]
        if pt in to_element:
            return FAIL  # witness not regular after all
        to_element[pt] = n
    if len(to_element) != action.structure.v:
        return FAIL
    for block in action.structure.blocks:
        if 0 not in block:
            continue
        members = {to_element[p].images for p in block}
        for a in block:
            na = to_element[a]
            for c in block:
                if (na * to_element[c]).images not in members:
                    return FAIL
    return PASS


def _check_cell_disjointness(action):
    image = action.block_action.image
    blocks = action.structure.blocks
    b = len(blocks)
    seen_systems = set()
    for j in range(1, b):
        system = minimal_block_system(image, 0, j)
        if system.is_trivial or system.cells in seen_systems:
            continue
        seen_systems.add(system.cells)
        for cell in system.cells:
            covered = set()
            for idx in cell:
                pts = set(blocks[idx])
                if covered & pts:
                    return FAIL
                covered |= pts
    return PASS


def _classify_or_unknown(group, limit):
    try:
        return classify_point_action(group, limit)
    except EnumerationLimitError:
        return None
    except IntransitiveError:
        # an intransitive action is neither affine nor almost simple
        return TypeReport(tag="OTHER", witness=None, minimal_normals=())


def analyze(group, structure, instance_id="instance", limit=None,
            collect_timings=False):
    """Run the whole verification pipeline on one (group, design) pair."""
    limit = element_limit() if limit is None else limit
    timings = {}
    clock = time.perf_counter

    def timed(name, fn):
        t0 = clock()
        try:
            return fn()
        finally:
            timings[name] = clock() - t0

    checks = {name: NOT_APPLICABLE for name in CHECK_NAMES}
    notes = []

    action = timed("preservation", lambda: DesignAction(group, structure))
    if structure.is_trivial():
        return AnalysisReport(
            instance_id=instance_id, trivial=True, parameters=None,
            local=None, point_type=NOT_APPLICABLE, block_type=NOT_APPLICABLE,
            point_type_report=None, block_type_report=None, checks=checks,
            theorem_violation=False,
            notes=("trivial design: every block contains every point",),
            timings=timings if collect_timings else None)

    params = timed("verify_design", lambda: verify_design(structure))
    local = timed("local_primitivity",
                  lambda: action.local_primitivity_report(limit, strict=False))
    locally_primitive = local.locally_primitive

    point_report = timed("point_type",
                         lambda: _classify_or_unknown(group, limit))
    point_type = UNKNOWN if point_report is None else point_report.tag

    block_report = None
    if local.block_quasiprimitive is None:
        block_type = UNKNOWN
    elif not local.block_quasiprimitive:
        block_type = "non-quasiprimitive"
    else:
        block_report = timed(
            "block_type",
            lambda: _classify_or_unknown(action.block_action.image, limit))
        block_type = UNKNOWN if block_report is None else block_report.tag

    # incidence-count constancy through the double-coset ratio, against the
    # independently built coset graph
    if local.flag_transitive:
        alpha = structure.blocks[0][0]
        left = group.point_stabilizer(alpha)
        right = action.block_stabilizer(0)

        def run_crosscheck():
            try:
                result = lambda_constancy_crosscheck(group, left, right)
            except IndexLimitError as exc:
                notes.append(f"lambda constancy unknown: {exc} "
                             f"(PERMDESIGN_INDEX_LIMIT)")
                return UNKNOWN
            if result.ok and result.value == params.lam:
                return PASS
            return FAIL

        checks["lambda_constancy"] = timed("lambda_constancy", run_crosscheck)

    diameter = timed("diameter", lambda: incidence_graph_diameter(structure))
    if params.symmetric:
        checks["diameter_bound"] = PASS if diameter == 3 else FAIL
    else:
        checks["diameter_bound"] = PASS if diameter <= 4 else FAIL

    if local.flag_transitive:
        checks["stabilizer_order_bound"] = (
            PASS if local.stabilizer_bound_ok else FAIL)

    checks["faithful_block_action"] = (
        PASS if action.block_action.faithful else FAIL)

    if locally_primitive:
        checks["local_primitivity_consequences"] = (
            PASS if (local.flag_transitive and local.point_primitive)
            else FAIL)
        # disjointness within imprimitivity cells is a consequence of local
        # primitivity and can genuinely fail without it
        if primitivity_status(action.block_action.image) == "imprimitive":
            checks["imprimitivity_cell_disjointness"] = timed(
                "cell_disjointness", lambda: _check_cell_disjointness(action))
    # the orbit-size identity and the subspace structure of the blocks
    # through a fixed point both presume a flag-transitive design, though
    # not local primitivity
    if block_type == "non-quasiprimitive" and local.flag_transitive:
        witness = timed(
            "normal_witness",
            lambda: _find_intransitive_normal(action, point_report, limit))
        if witness is not None:
            checks["normal_orbit_size"] = _check_normal_orbit_size(
                action, witness, params)
            if point_type == "HA":
                checks["origin_blocks_are_subspaces"] = timed(
                    "origin_blocks",
                    lambda: _check_origin_blocks(action, point_report.witness))

    theorem_violation = False
    if locally_primitive:
        if point_type == UNKNOWN or block_type == UNKNOWN:
            notes.append("reduction-theorem comparison incomplete: "
                         "type recognition hit the enumeration limit")
        else:
            theorem_violation = not reduction_pair_allowed(point_type,
                                                           block_type)
            if theorem_violation:
                notes.append(
                    f"THEOREM VIOLATION: locally primitive with "
                    f"(point, block) types ({point_type}, {block_type}); "
                    f"allowed: {', '.join(_ALLOWED_PAIRS)}")
    if checks["local_primitivity_consequences"] == FAIL:
        theorem_violation = True
        notes.append("THEOREM VIOLATION: locally primitive but not "
                     "flag-transitive and point-primitive")

    return AnalysisReport(
        instance_id=instance_id, trivial=False, parameters=params,
        local=local, point_type=point_type, block_type=block_type,
        point_type_report=(None if point_report is None
                           else point_report.to_json_dict()),
        block_type_report=(None if block_report is None
                           else block_report.to_json_dict()),
        checks=checks, theorem_violation=theorem_violation,
        notes=tuple(notes),
        timings=timings if collect_timings else None)
