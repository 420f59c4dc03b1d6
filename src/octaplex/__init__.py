"""Verification workbench for toric codes on the octaplex tessellation."""

__version__ = "0.1.0"

from .binalg import BinMatrix
from .codes import (
    CodeFamily,
    Codeblock,
    build_2d_pair,
    build_3d_triple,
    build_bounded_family,
    build_family,
    build_periodic_family,
)
from .lattice import CellComplex, CellType, Color, build_octaplex, classify, vertex_color
from .logicals import LogicalBasis, PauliSupport, build_logicals, certify_distances
from .metachecks import build_ladder, verify_counting, verify_global_constraints
from .transversal import (
    PhasePolynomial,
    check_ccz_conditions,
    check_cz_conditions,
    check_cccz_conditions,
    sandwich_identity,
)

__all__ = [
    "BinMatrix",
    "CellComplex",
    "CellType",
    "CodeFamily",
    "Codeblock",
    "Color",
    "LogicalBasis",
    "PauliSupport",
    "PhasePolynomial",
    "build_2d_pair",
    "build_3d_triple",
    "build_bounded_family",
    "build_family",
    "build_ladder",
    "build_logicals",
    "build_octaplex",
    "build_periodic_family",
    "certify_distances",
    "check_ccz_conditions",
    "check_cz_conditions",
    "check_cccz_conditions",
    "classify",
    "sandwich_identity",
    "verify_counting",
    "verify_global_constraints",
    "vertex_color",
]
