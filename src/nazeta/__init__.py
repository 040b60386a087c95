"""Exact zeta functions of curves over finite fields.

Pure non-abelian zetas built from semi-stable bundle counts, group
zetas attached to (split reductive group, maximal parabolic) pairs,
and the machinery to verify their rationality, functional equations,
mass-formula equivalences and zero locations, all in exact rational
arithmetic.
"""

__version__ = "0.1.0"

from .algebra import (
    Poly,
    RationalFunction,
    poly_complex_roots,
    roots_on_circle,
    series_log_coefficients,
    substitute,
)
from .curve import (
    CurveData,
    completed_zeta_factor,
    curve_from_numerator,
    curve_from_point_counts,
    elliptic_curve,
    zeta_special_residue,
)
from .groupzeta import (
    GroupZetaResult,
    UniformityMatch,
    edge_residue,
    fe_check_group,
    fg_involution_check,
    group_zeta,
    group_zeta_zeros,
    omega_D_decompose,
    period_gp,
    uniformity_match,
)
from .multivar import LaurentPoly, MultiRationalFunction, residue_at_one
from .numfield import (
    completed_riemann,
    ks_identity_probe,
    moduli_volume,
    siegel_volume,
)
from .purezeta import (
    PureZetaInputs,
    PureZetaResult,
    RHReport,
    bundle_counts,
    fe_check_pure,
    mass_reformulated,
    mixed_zeta_rank2,
    partial_zeta_rank3_elliptic,
    pure_zeta,
    rh_report,
    zagier_beta,
)
from .residues import (
    iterated_residue,
    residue_period,
    residue_route_equivalence,
)
from .rootsys import (
    CountTable,
    ParabolicData,
    RootSystem,
    WeylGroup,
    build_root_system,
    count_tables,
    enumerate_weyl,
    parabolic_data,
    verify_count_identities,
)
