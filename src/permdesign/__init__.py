"""Block designs carried by finite permutation groups: construction from
coset and classical-geometry data, and verification of transitivity,
primitivity, and local-primitivity properties."""

from .analysis import (BlockSystem, TypeReport, classify_point_action,
                       is_primitive, is_quasiprimitive, minimal_block_system,
                       minimal_normal_subgroups, primitivity_status)
from .analyzer import AnalysisReport, analyze
from .cosets import (CosetSpace, coset_action, coset_graph_design,
                     double_coset_lambda, is_trivial_factorization,
                     lambda_constancy_crosscheck, subgroup_intersection)
from .designgroup import DesignAction, LocalPrimitivityReport
from .geometry import (build_AG, build_PG, build_symplectic_subdesign,
                       classical_group_generators, enumerate_subspaces,
                       gaussian_coefficient)
from .gf import FiniteField, field
from .group import (ActionImage, GroupWithChain, induced_action,
                    normal_closure, prime_order_class_representatives)
from .incidence import (DesignParameters, IncidenceStructure, complement,
                        dual, incidence_graph_diameter, t_design_strength,
                        verify_design)
from .perm import Permutation, parse_permutation

__version__ = "0.1.0"

__all__ = [
    "ActionImage", "AnalysisReport", "BlockSystem", "CosetSpace",
    "DesignAction", "DesignParameters", "FiniteField", "GroupWithChain",
    "IncidenceStructure", "LocalPrimitivityReport", "Permutation",
    "TypeReport", "analyze", "build_AG", "build_PG",
    "build_symplectic_subdesign", "classical_group_generators",
    "classify_point_action", "complement", "coset_action",
    "coset_graph_design", "double_coset_lambda", "dual", "enumerate_subspaces",
    "field", "gaussian_coefficient", "incidence_graph_diameter",
    "induced_action", "is_primitive", "is_quasiprimitive",
    "is_trivial_factorization", "lambda_constancy_crosscheck",
    "minimal_block_system", "minimal_normal_subgroups", "normal_closure",
    "parse_permutation", "prime_order_class_representatives",
    "primitivity_status", "subgroup_intersection", "t_design_strength",
    "verify_design",
]
