"""Joint estimation of states and measurement-noise covariances.

The library solves weighted least-squares problems on product manifolds
(Euclidean and SE(2) blocks) while estimating the noise information matrix
of each measurement group, either by eliminating the information matrix
analytically or by block-coordinate descent.
"""

from .covariance import (
    InnerSolution,
    UnboundedProblem,
    WishartPrior,
    assemble_M,
    diagnose_singularity,
    inner_objective,
    mode_match_prior,
    numeric_inner_oracle,
    solve_inner,
    solve_inner_diag_eig,
    solve_inner_diagonal,
    solve_inner_eig,
    solve_inner_unconstrained,
)
from .manifold import (
    CutLocusError,
    ManifoldPoint,
    ManifoldSpec,
    boxminus,
    boxplus,
    euclidean_block,
    exp_se2,
    log_se2,
    se2_block,
    se2_compose,
    se2_inverse,
)
from .problem import (
    FactorSet,
    JointProblem,
    NoiseGroup,
    linear_set,
    prior_set,
    relative_se2_set,
    residual,
    sample_covariance,
)

__version__ = "0.1.0"
