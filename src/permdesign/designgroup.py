"""Group actions on incidence structures: preservation checks, point and
block stabilizers read from stabilizer chains, flag-transitivity, and the
local-primitivity verdict."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .analysis import is_quasiprimitive, primitivity_status
from .cosets import incidence_crosscheck
from .group import (ActionClosureError, SetAction, StructureContradiction,
                    check_index, induced_action, orbit_minima, orbit_of,
                    set_action, set_stabilizer)


class PreservationError(ValueError):
    """The group does not permute the block set of the structure."""


class TrivialDesignError(ValueError):
    """Every block is incident with every point; such structures are
    classified separately and excluded from design verdicts."""


class RepeatedBlockError(ValueError):
    """Group verdicts need distinct blocks; the induced index action of a
    repeated block is not well defined."""


@dataclass(frozen=True)
class LocalPrimitivityReport:
    flag_transitive: bool
    point_transitive: bool
    block_transitive: bool
    point_local_primitive: bool
    block_local_primitive: bool
    point_primitive: bool
    block_quasiprimitive: bool
    stabilizer_bound_ok: bool
    notes: tuple = ()

    @property
    def locally_primitive(self):
        return self.point_local_primitive and self.block_local_primitive

    def to_json_dict(self):
        return dict(asdict(self), notes=list(self.notes))


def _preserving(fn, *args):
    """fn(*args), raising its ActionClosureError as PreservationError."""
    try:
        return fn(*args)
    except ActionClosureError:
        raise PreservationError(
            "group does not preserve the block set") from None


class DesignAction:
    """A group acting on an incidence structure, with the block action
    built once and shared by the verdict operations.

    Every chain is built from G's walk generators, on the points.  The
    block action's chain (group.set_action) is completed from seeded
    random elements of G, stopped once its order reaches |G|, which it
    does for every faithful block action, and is read out on the block
    indices; the block images of the given generators, the image's
    generators, are formed only where something reads them (a type
    witness, the block-type classification).  Every element maps a block
    by one rule (group.SetAction).  G preserves the block set iff its walk
    generators do, since they generate G, so set_action checks
    preservation on them alone, and its refusal is raised here as
    PreservationError.

    Every stabilizer handed out acts on the points.  G_p is read from the
    group's own chain, a tail of it when p is its first base point; G_B is
    the tail below block B of one chain of G on the points and the blocks
    (group.set_stabilizer), which keeps every element on the points.  Each
    local action is built once and kept, and its source is the stabilizer
    that every verdict reads.

    Block quasiprimitivity is read from the point socle where the point
    report allows it (local_primitivity_report), and otherwise from the
    recursion of analysis.is_quasiprimitive over the block systems."""

    def __init__(self, group, structure):
        if group.degree != structure.v:
            raise PreservationError(
                f"group degree {group.degree} != point count {structure.v}")
        if structure.has_repeated_blocks():
            raise RepeatedBlockError(
                "group verdicts require distinct blocks")
        self.group = group
        self.structure = structure
        self._blocks = SetAction(structure.v, structure.blocks)
        self.block_action = _preserving(set_action, group, self._blocks)
        self._point_local = {}  # point p -> G_p on the blocks through p
        self._block_local = {}  # block index -> G_B on the points of B

    def block_image_of(self, g):
        """Index permutation induced on blocks by an arbitrary group element;
        PreservationError when g maps a block outside the block set."""
        return _preserving(self._blocks.perm, g)

    def point_stabilizer(self, point):
        """Stabilizer of a point, read from the group's own chain."""
        return self.local_point_action(point).source

    def block_stabilizer(self, block_index):
        """Setwise stabilizer of a block, as a group on the original points."""
        return self.local_block_action(block_index).source

    def local_point_action(self, point):
        """Stabilizer of a point acting on the blocks through it, given by
        their indices."""
        if point not in self._point_local:
            through = self.structure.blocks_through(point)
            if not through:
                raise ValueError(f"point {point} lies on no block")
            self._point_local[point] = induced_action(
                self.group.point_stabilizer(point), through,
                self._blocks.image)
        return self._point_local[point]

    def local_block_action(self, block_index):
        """Stabilizer of a block acting on the points of that block."""
        check_index("block index", block_index, self.structure.b)
        if block_index not in self._block_local:
            self._block_local[block_index] = induced_action(
                set_stabilizer(self.group, self._blocks, block_index),
                self.structure.blocks[block_index],
                lambda x, g: g.images[x])
        return self._block_local[block_index]

    def lambda_crosscheck(self):
        """cosets.incidence_crosscheck of (G_a, G_B0) on this flag-transitive
        design, a the first point of block 0: the point p is the G_a-coset
        of the elements sending a to p, such as G.transporter(a)(p), so
        G_a moves those cosets as it moves the points, and the block B is
        the G_B0-coset of the elements sending B0 to B."""
        alpha = self.structure.blocks[0][0]
        left = self.point_stabilizer(alpha)
        return incidence_crosscheck(left, self.block_stabilizer(0),
                                    self.structure, alpha,
                                    left.walk_generators,
                                    self.group.transporter(alpha))

    def is_flag_transitive(self):
        """Computed along both local routes (block-transitive with transitive
        block-local actions, and point-transitive with transitive point-local
        actions), which must agree."""
        via_blocks = self.block_action.image.is_transitive() and all(
            self.local_block_action(j).image.is_transitive()
            for j in orbit_minima(self.block_action.image))
        via_points = self.group.is_transitive() and all(
            self.local_point_action(p).image.is_transitive()
            for p in orbit_minima(self.group))
        if via_blocks != via_points:
            raise StructureContradiction(
                "the two flag-transitivity computations disagree")
        return via_blocks

    def stabilizer_bound_holds(self):
        """Strict bound |G| < |G_a|^3 / |G_aB|^2 on the canonical flag
        (first block B, its smallest point a), with |G_aB| = |G_B|/|a^G_B|."""
        alpha = self.structure.blocks[0][0]
        g_beta = self.block_stabilizer(0)
        g_alpha_beta = g_beta.order() // len(g_beta.orbit(alpha))
        return (self.group.order() * g_alpha_beta ** 2
                < self.point_stabilizer(alpha).order() ** 3)

    def _block_quasiprimitive(self, point_primitive, point_report):
        """Whether G is quasiprimitive on the blocks.  Let G be primitive on
        the points (point_primitive), of type HA or AS (point_report, the
        analysis.classify_point_action report of G), and faithful on the
        blocks.  Then the report's witness M is G's unique minimal normal
        subgroup: the translations, or the socle.  Every nontrivial normal
        subgroup contains M, and faithfulness keeps M's image nontrivial,
        so G is quasiprimitive on the blocks iff M is transitive on them
        (Dixon-Mortimer, Permutation Groups, section 4.3): block 0's orbit
        under the block images of M's walk generators has length b.
        Anywhere else, analysis.is_quasiprimitive decides on the image."""
        if (point_primitive and point_report is not None
                and point_report.tag in ("HA", "AS")
                and self.block_action.faithful):
            socle = point_report.witness.walk_generators
            return len(orbit_of([self.block_image_of(g) for g in socle],
                                0)) == self.structure.b
        return is_quasiprimitive(self.block_action.image)

    def local_primitivity_report(self, point_report=None):
        """Full verdict record.  It records what it finds: that a locally
        primitive action is flag-transitive and point-primitive is judged
        by the analyzer's local_primitivity_consequences check.
        `point_report`, G's classify_point_action report, lets the socle
        decide block quasiprimitivity (_block_quasiprimitive); without it
        the block systems do."""
        if self.structure.is_trivial():
            raise TrivialDesignError(
                "every block is incident with every point")
        notes = []
        point_transitive = self.group.is_transitive()
        block_transitive = self.block_action.image.is_transitive()
        flag_transitive = self.is_flag_transitive()

        point_local = True
        for p in orbit_minima(self.group):
            status = primitivity_status(self.local_point_action(p).image)
            if status != "primitive":
                point_local = False
                notes.append(f"stabilizer of point {p} is {status} "
                             "on its incident blocks")
                break
        block_local = True
        for j in orbit_minima(self.block_action.image):
            status = primitivity_status(self.local_block_action(j).image)
            if status != "primitive":
                block_local = False
                notes.append(f"stabilizer of block {j} is {status} "
                             "on its points")
                break

        point_primitive = primitivity_status(self.group) == "primitive"
        return LocalPrimitivityReport(
            flag_transitive=flag_transitive,
            point_transitive=point_transitive,
            block_transitive=block_transitive,
            point_local_primitive=point_local,
            block_local_primitive=block_local,
            point_primitive=point_primitive,
            block_quasiprimitive=self._block_quasiprimitive(point_primitive,
                                                            point_report),
            stabilizer_bound_ok=self.stabilizer_bound_holds(),
            notes=tuple(notes),
        )
