"""Geometry of minimal-weight-cost ReLU interpolants of 1D data.

The package characterizes, for a finite dataset with scalar inputs and
outputs, every piecewise-linear interpolant whose derivative has the
minimal possible total variation; these are exactly the functions
computed by interpolating one-layer ReLU networks (with a linear unit)
of minimal squared-weight cost.  It tests membership in that family two
independent ways, samples members, synthesizes realizing networks, and
verifies the minimal TV value against a grid-based convex solver.
"""

from .characterize import (
    Characterization,
    MembershipReport,
    Violation,
    characterize,
    check_membership_against,
    connect_the_dots,
    localized_slope_bounds,
)
from .dataset import (
    Dataset,
    DatasetError,
    DuplicateXError,
    MalformedRecordError,
    NonFiniteValueError,
    SlopeProfile,
    TooFewPointsError,
    load_dataset,
    make_dataset,
    save_dataset,
    slope_profile,
)
from .generalization import (
    LipDominationReport,
    LocalizedBoundReport,
    SupErrorReport,
    make_dataset_from,
    verify_lip_domination,
    verify_localized_bounds,
    verify_sup_error,
)
from .network import ReluNetwork, cost, evaluate_network, network_to_pl, pl_to_network
from .oracle import CertificateReport, OracleError, certify, grid_tv_minimize
from .plfun import (
    PiecewiseLinear,
    canonical,
    evaluate,
    from_knots,
    lipschitz_norm,
    one_sided_slopes,
    structurally_equal,
    tv_of_derivative,
)
from .sample import (member_from_tangents, perturb_to_nonmember, sample_member, sample_members,
                     tangent_brackets)

__version__ = "0.1.0"
