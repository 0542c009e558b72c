"""Evaluation codes from zero-dimensional complete intersections over F_q,
with mechanical verification of the Cayley-Bacharach identity, the minimum
distance bound, and the MDS criteria."""

from .gf import Field, field_new
from .poly import Polynomial, monomials_of_degree, parse, poly_text
from .geometry import (
    CIValidation,
    PointSet,
    enumerate_projective,
    validate_ci,
    variety_points,
)
from .code import (
    DistanceResult,
    EvalCode,
    EvalMatrix,
    brouwer_zimmermann,
    build_code,
    choose_f0,
    column_distance,
    evaluation_matrix,
    min_distance,
    weight_distribution,
)
from .cohomology import (
    CohomologyProfile,
    h0,
    h1,
    profile,
    rank_e,
    sigma,
)
from .theorems import (
    BoundReport,
    CBReport,
    CISetup,
    cb_certificate,
    cb_identity,
    ci_setup,
    hansen_bound,
    is_cb_scheme,
    residual,
    verify_cb_all,
    verify_main_theorem,
    verify_mds_corollary,
    verify_projection_injectivity,
    verify_symmetry,
)
from .families import (
    FamilySpec,
    extended_rs,
    hermitian_ci,
    reed_muller_ci,
    rm_exact_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
