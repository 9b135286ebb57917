"""Exact line calculus on complete intersections in projective space.

Builds line-membership systems on the standard Grassmannian chart, the
non-freeness matrix M(h) and its rank certificates, local equations and
Jacobian smoothness verdicts for the locus of non-free lines, splitting
types of normal and restricted tangent bundles along rational curves,
and exhaustive line censuses over prime fields. All arithmetic is exact,
over Q or F_p, optionally with symbolic parameters.
"""

from .bundles import (
    DegreeGateReport,
    SplittingType,
    degree_nonfree_gate,
    normal_splitting_line,
    precompose,
    tangent_cohomology,
    tangent_splitting_from_normal,
)
from .chart import (
    NonFreeMatrix,
    all_lines_fq,
    enumerate_lines_fq,
    membership_system,
    nonfree_matrix,
)
from .errors import ToolkitError
from .exactmatrix import ExactMatrix, RankResult, det, kernel_basis, rank_exact
from .families import (
    BuiltFamily,
    FamilySpec,
    HypothesisReport,
    build_family,
    family_report,
    hypothesis_gates,
    parse_family_spec,
)
from .fields import Field, RATIONALS, field_from_str, prime_field
from .geometry import (
    CIType,
    CompleteIntersection,
    Line,
    RationalCurve,
)
from .multipoly import BinaryForm, MultiPoly, PolyRing, binary_gcd
from .nonfree import (
    LocalEquations,
    SmoothnessReport,
    expected_pair_report,
    jacobian_def_matrix,
)
from .params import ParamRing, ParamScalar
from .polytext import parse_poly

__all__ = [name for name in dir() if not name.startswith("_")]
