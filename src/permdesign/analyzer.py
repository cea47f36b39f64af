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

from .analysis import (IntransitiveError, TypeReport, base_block_systems,
                       classify_point_action, primitivity_status)
from .designgroup import DesignAction, LocalPrimitivityReport
from .group import (EnumerationLimitError, class_closures, orbit_minima,
                    orbits_of)
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

# identities checked as consequences of local primitivity: a flag-transitive
# design that is not locally primitive can fail them (AGL(1,5) on the
# 2-subsets of 5 points fails both), and there a fail is reported but does
# not fail the analysis
LOCALLY_PRIMITIVE_ONLY_CHECKS = ("normal_orbit_size",
                                 "origin_blocks_are_subspaces")

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
        lp = self.local is not None and self.local.locally_primitive
        return self.theorem_violation or any(
            value == FAIL for name, value in self.checks.items()
            if lp or name not in LOCALLY_PRIMITIVE_ONLY_CHECKS)

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


def _intransitive_normal_orbits(action, point_type_report):
    """The block orbits of the canonical intransitive-on-blocks normal
    subgroup, or None when there is none: the affine witness when the
    point type is affine, otherwise the first prime-order normal closure
    that is intransitive on blocks."""
    if point_type_report is not None and point_type_report.tag == "HA":
        candidates = [point_type_report.witness]
    else:
        candidates = class_closures(action.group)
    for n in candidates:
        orbits = orbits_of([action.block_image_of(g)
                            for g in n.walk_generators], action.structure.b)
        if len(orbits) > 1:
            return orbits
    return None


def _check_normal_orbit_size(orbits, params):
    v, k, b, r = params.v, params.k, params.b, params.r
    if v % k or b % r or v // k != b // r:
        return FAIL
    expected = v // k
    return PASS if all(len(o) == expected for o in orbits) else FAIL


def _check_origin_blocks(action, witness):
    """Identify points with the regular witness (point 0 <-> identity) and
    test that every block through point 0 is closed under the group
    operation, i.e. is a subgroup, hence a subspace of the elementary
    abelian witness.  A transitive witness of order v is regular, and its
    element n_p sending 0 to p is witness.transporter(0)(p).  n_a * n_c
    sends 0 to a^(n_c), so the block is closed iff it holds a^(n_c) for
    all a and c in it: no product of two points' elements is formed."""
    v = action.structure.v
    if witness.order() != v or not witness.is_transitive():
        return FAIL  # witness not regular after all
    transport = witness.transporter(0)
    to_element = {p: transport(p).images for p in range(v)}
    for block in action.structure.blocks:
        if 0 not in block:
            continue
        members = frozenset(block)
        for c in block:
            nc = to_element[c]
            if any(nc[a] not in members for a in block):
                return FAIL
    return PASS


def _check_cell_disjointness(action):
    """Whether, in each nontrivial block system of the block action
    (base_block_systems, each listed once), the blocks of every cell are
    pairwise disjoint."""
    blocks = action.structure.blocks
    for system in base_block_systems(action.block_action.image):
        for cell in system.cells:
            covered = set()
            for idx in cell:
                pts = set(blocks[idx])
                if covered & pts:
                    return FAIL
                covered |= pts
    return PASS


def _classify_or_unknown(group, what, refusals):
    """The type report, or None when the class-representative walk hits
    the element limit; then a note naming the limit joins `refusals`."""
    try:
        return classify_point_action(group)
    except EnumerationLimitError as exc:
        refusals.append(f"{what} unknown: {exc}")
        return None
    except IntransitiveError:
        # an intransitive action is neither affine nor almost simple
        return TypeReport(tag="OTHER", witness=None, minimal_normals=())


def analyze(group, structure, instance_id="instance", *,
            collect_timings=False):
    """Run the whole verification pipeline on one (group, design) pair.

    With collect_timings, the report's timings give each stage's wall
    seconds, and `remainder` the wall seconds of the whole run outside
    every stage."""
    timings = {}
    clock = time.perf_counter
    start = clock()

    def timed(name, fn):
        t0 = clock()
        try:
            return fn()
        finally:
            timings[name] = clock() - t0

    def report(**fields):
        if not collect_timings:
            return AnalysisReport(instance_id=instance_id, **fields)
        staged = sum(timings.values())
        timings["remainder"] = max(0.0, clock() - start - staged)
        return AnalysisReport(instance_id=instance_id, timings=timings,
                              **fields)

    checks = {name: NOT_APPLICABLE for name in CHECK_NAMES}
    notes = []

    def preserve():
        action = DesignAction(group, structure)
        return action, structure.is_trivial(), action.block_action.faithful

    action, trivial, faithful = timed("preservation", preserve)
    if trivial:
        return report(
            trivial=True, parameters=None,
            local=None, point_type=NOT_APPLICABLE, block_type=NOT_APPLICABLE,
            point_type_report=None, block_type_report=None, checks=checks,
            theorem_violation=False,
            notes=("trivial design: every block contains every point",))

    params = timed("verify_design", lambda: verify_design(structure))
    # the point type comes first: its witness, the socle of a primitive HA
    # or AS group, decides block quasiprimitivity in the local report
    refusals = []
    point_report = timed(
        "point_type",
        lambda: _classify_or_unknown(group, "point type", refusals))
    point_type = UNKNOWN if point_report is None else point_report.tag
    local = timed("local_primitivity",
                  lambda: action.local_primitivity_report(point_report))
    locally_primitive = local.locally_primitive

    block_report = None
    image = action.block_action.image
    if not local.block_quasiprimitive:
        block_type = "non-quasiprimitive"
    elif point_type == "AS" and point_report.witness is group and faithful:
        # the group is simple, and so is its faithful, transitive image
        block_report = TypeReport(tag="AS", witness=image,
                                  minimal_normals=(image,))
        block_type = "AS"
    else:
        block_report = timed(
            "block_type",
            lambda: _classify_or_unknown(image, "block type", refusals))
        block_type = UNKNOWN if block_report is None else block_report.tag

    # incidence-count constancy through the double-coset ratio, against the
    # design's own incidence
    if local.flag_transitive:
        result = timed("lambda_constancy", action.lambda_crosscheck)
        checks["lambda_constancy"] = (
            PASS if result.ok and result.value == params.lam else FAIL)

    # automorphisms preserve distances: one BFS per orbit of the points and
    # one per orbit of the blocks, block j at vertex v + j
    diameter = timed("diameter", lambda: incidence_graph_diameter(
        structure, orbit_minima(group)
        + [structure.v + j for j in orbit_minima(image)]))
    if params.symmetric:
        checks["diameter_bound"] = PASS if diameter == 3 else FAIL
    else:
        checks["diameter_bound"] = PASS if diameter <= 4 else FAIL

    if local.flag_transitive:
        checks["stabilizer_order_bound"] = (
            PASS if local.stabilizer_bound_ok else FAIL)

    checks["faithful_block_action"] = PASS if faithful else FAIL

    if locally_primitive:
        checks["local_primitivity_consequences"] = (
            PASS if (local.flag_transitive and local.point_primitive)
            else FAIL)
        # disjointness within imprimitivity cells is a consequence of local
        # primitivity and can genuinely fail without it
        if timed("block_primitivity",
                 lambda: primitivity_status(image)) == "imprimitive":
            checks["imprimitivity_cell_disjointness"] = timed(
                "cell_disjointness", lambda: _check_cell_disjointness(action))
    # the orbit-size identity and the subspace structure of the blocks
    # through a fixed point presume a flag-transitive design; they are
    # computed on every such design, and a fail fails the analysis only
    # on a locally primitive one (LOCALLY_PRIMITIVE_ONLY_CHECKS)
    if block_type == "non-quasiprimitive" and local.flag_transitive:
        try:
            orbits = timed(
                "normal_witness",
                lambda: _intransitive_normal_orbits(action, point_report))
        except EnumerationLimitError as exc:
            orbits = None
            checks["normal_orbit_size"] = UNKNOWN
            notes.append(f"normal orbit size unknown: {exc}")
        if orbits is not None:
            checks["normal_orbit_size"] = _check_normal_orbit_size(
                orbits, params)
            if point_type == "HA":
                checks["origin_blocks_are_subspaces"] = timed(
                    "origin_blocks", lambda: _check_origin_blocks(
                        action, point_report.witness))

    theorem_violation = False
    if locally_primitive:
        if point_type == UNKNOWN or block_type == UNKNOWN:
            notes.append("reduction-theorem comparison incomplete: "
                         + "; ".join(refusals))
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

    return report(
        trivial=False, parameters=params,
        local=local, point_type=point_type, block_type=block_type,
        point_type_report=(None if point_report is None
                           else point_report.to_json_dict()),
        block_type_report=(None if block_report is None
                           else block_report.to_json_dict()),
        checks=checks, theorem_violation=theorem_violation,
        notes=tuple(notes))
