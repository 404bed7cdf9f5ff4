"""Optimal noise-information estimation at a fixed state.

Given the sample covariance ``S`` of the residuals (and optionally a Wishart
prior on the information matrix), the best information matrix ``P`` under the
joint objective ``F(P) = -log det P + <M, P>`` has a closed form for each of
four constraint variants:

==================  =======================================================
unconstrained       ``P* = M^-1``
diagonal            ``P* = Diag(M)^-1``
eigenvalue bounds   ``P* = U clamp(D)^-1 U^T`` for ``M = U D U^T``, with the
                    covariance eigenvalues clamped into ``[lam_min, lam_max]``
diag + eigenvalue   entrywise clamp applied to ``Diag(M)``
==================  =======================================================

``M`` blends the sample covariance with the prior,
``M = (k S + V^-1) / (k + nu - m - 1)``; without a prior ``M = S`` and the
problem is unbounded below whenever ``S`` is singular (adding ``c u u^T`` to
``P`` along a null direction ``u`` of ``S`` lowers the objective by
``log(1 + c u^T P^-1 u)`` without bound).

A slow projected-gradient oracle (:func:`numeric_inner_oracle`) solves the
same convex problems numerically and exists purely to validate the closed
forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Constraint variants of the inner problem.
UNCONSTRAINED = "unconstrained"
DIAGONAL = "diagonal"
EIG = "eig"
DIAG_EIG = "diag-eig"

INNER_VARIANTS = (UNCONSTRAINED, DIAGONAL, EIG, DIAG_EIG)


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""


class UnboundedProblem(RuntimeError):
    """The covariance update is unbounded below (singular second moment).

    Without an eigenvalue lower bound or a prior, a singular sample
    covariance lets the estimated noise covariance collapse to zero along
    its null directions while the objective diverges to -infinity.
    """

    def __init__(self, message, group_id=None, min_eigenvalue=None):
        super().__init__(message)
        self.group_id = group_id
        self.min_eigenvalue = min_eigenvalue


def symmetrize(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def cholesky_or_none(a: np.ndarray):
    """Lower Cholesky factor, or None if the matrix is not positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def is_positive_definite(a: np.ndarray) -> bool:
    return cholesky_or_none(symmetrize(a)) is not None


def chol_logdet(chol: np.ndarray) -> float:
    """log det of A given its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    chol = cholesky_or_none(symmetrize(a))
    if chol is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    inv = scipy.linalg.cho_solve((chol, True), np.eye(a.shape[0]))
    return symmetrize(inv)


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a small symmetric matrix, with pinned signs.

    LAPACK (``numpy.linalg.eigh``) followed by sign pinning: each
    eigenvector's largest-magnitude component is made positive.  Results
    are deterministic on one machine and BLAS/LAPACK build, not bit-equal
    across platforms.  The name is kept from the earlier cyclic-Jacobi
    implementation because callers and the benchmark tracer refer to it.
    Eigenvalues are returned ascending.

    Returns:
        (eigenvalues ``(m,)``, eigenvectors as columns ``(m, m)``)
    """
    eigvals, v = np.linalg.eigh(symmetrize(a))
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return eigvals, np.where(pivots < 0.0, -v, v)


@dataclass(frozen=True, eq=False)
class WishartPrior:
    """Wishart prior W(P; V, nu) on a noise information matrix.

    ``scale_inv`` caches ``V^-1`` (exact by construction when mode matched);
    ``provenance`` records ``(sigma0, w_prior, k)`` when the prior was built
    by mode matching, else None.
    """

    scale: np.ndarray
    dof: float
    scale_inv: np.ndarray
    provenance: tuple | None = None

    def __post_init__(self):
        v = symmetrize(self.scale)
        if cholesky_or_none(v) is None:
            raise NotPositiveDefiniteError("Wishart scale matrix must be PD")
        m = v.shape[0]
        if self.dof < m + 1:
            raise ValueError(f"degrees of freedom must be >= m + 1 = {m + 1}")
        object.__setattr__(self, "scale", v)
        object.__setattr__(self, "scale_inv", symmetrize(self.scale_inv))

    @classmethod
    def from_scale(cls, scale: np.ndarray, dof: float) -> "WishartPrior":
        return cls(scale=np.asarray(scale, dtype=float), dof=float(dof),
                   scale_inv=spd_inverse(scale))

    @property
    def m(self) -> int:
        return self.scale.shape[0]


def mode_match_prior(sigma0: np.ndarray, w_prior: float, k: int,
                     m: int | None = None) -> WishartPrior:
    """Build a Wishart prior whose mode equals ``sigma0^-1``.

    ``V = (w_prior * k * sigma0)^-1`` and ``nu = w_prior * k + m + 1``; the
    resulting unconstrained optimum blends prior and sample covariance as
    ``sigma* = w/(w+1) * sigma0 + 1/(w+1) * S``.
    """
    sigma0 = symmetrize(sigma0)
    if m is None:
        m = sigma0.shape[0]
    elif sigma0.shape != (m, m):
        raise ValueError("sigma0 shape does not match m")
    if w_prior <= 0.0:
        raise ValueError("w_prior must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if cholesky_or_none(sigma0) is None:
        raise NotPositiveDefiniteError("sigma0 must be positive definite")
    scale_inv = w_prior * k * sigma0
    return WishartPrior(
        scale=spd_inverse(scale_inv),
        dof=w_prior * k + m + 1,
        scale_inv=scale_inv,
        provenance=(sigma0, float(w_prior), int(k)),
    )


def assemble_M(S: np.ndarray, k: int, prior: WishartPrior | None,
               m: int | None = None) -> np.ndarray:
    """Prior-blended second moment ``M = (k S + V^-1) / (k + nu - m - 1)``.

    Without a prior this is the pure likelihood case and ``M = S`` (possibly
    singular).  ``gamma = k + nu - m - 1`` must be positive.
    """
    S = symmetrize(S)
    if m is None:
        m = S.shape[0]
    if prior is None:
        return S
    gamma = k + prior.dof - m - 1
    if gamma <= 0.0:
        raise ValueError(f"normalization k + nu - m - 1 = {gamma} must be > 0")
    return symmetrize((k * S + prior.scale_inv) / gamma)


@dataclass(frozen=True, eq=False)
class InnerSolution:
    """Optimal information matrix for one noise group at a fixed state.

    ``active_lower[i]``/``active_upper[i]`` flag eigenvalues (or diagonal
    entries, for the diagonal variants) clamped at the covariance bounds
    ``lam_min``/``lam_max``; always all-False for unconstrained variants.
    ``objective = -log det P* + <M, P*>``.
    """

    information: np.ndarray
    objective: float
    active_lower: np.ndarray
    active_upper: np.ndarray

    @property
    def covariance(self) -> np.ndarray:
        return spd_inverse(self.information)

    @property
    def any_bound_active(self) -> bool:
        return bool(np.any(self.active_lower) or np.any(self.active_upper))


def _no_flags(m: int) -> np.ndarray:
    return np.zeros(m, dtype=bool)


def solve_inner_unconstrained(M: np.ndarray) -> InnerSolution:
    """``P* = M^-1``; requires ``M`` positive definite.

    At the optimum ``<M, P*> = m`` and the objective reduces to
    ``log det M + m``.
    """
    M = symmetrize(M)
    m = M.shape[0]
    chol = cholesky_or_none(M)
    if chol is None:
        eigvals, _ = jacobi_eigh(M)
        raise UnboundedProblem(
            "second-moment matrix is singular "
            f"(min eigenvalue {eigvals[0]:.3e}); the unconstrained covariance "
            "update is unbounded below — add an eigenvalue lower bound or a prior",
            min_eigenvalue=float(eigvals[0]),
        )
    P = symmetrize(scipy.linalg.cho_solve((chol, True), np.eye(m)))
    objective = chol_logdet(chol) + m
    return InnerSolution(P, float(objective), _no_flags(m), _no_flags(m))


def solve_inner_diagonal(M: np.ndarray) -> InnerSolution:
    """``P* = Diag(M)^-1``; requires a strictly positive diagonal."""
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    d = np.diag(M).copy()
    if np.any(d <= 0.0):
        raise UnboundedProblem(
            "second moment has a nonpositive diagonal entry "
            f"(min {d.min():.3e}); the diagonal covariance update is "
            "unbounded below — add an eigenvalue lower bound or a prior",
            min_eigenvalue=float(d.min()),
        )
    P = np.diag(1.0 / d)
    objective = float(np.sum(np.log(d)) + m)
    return InnerSolution(P, objective, _no_flags(m), _no_flags(m))


def solve_inner_eig(M: np.ndarray, lam_min: float, lam_max: float) -> InnerSolution:
    """Eigenvalue-constrained optimum sharing eigenvectors with ``M``.

    With ``M = U D U^T``, the optimal covariance clamps each ``D_ii`` into
    ``[lam_min, lam_max]`` and keeps ``U``; ``P* = U clamp(D)^-1 U^T``.
    Singular (even zero) ``M`` is legal here: clamping rescues it.
    """
    _check_bounds(lam_min, lam_max)
    M = symmetrize(M)
    m = M.shape[0]
    eigvals, U = jacobi_eigh(M)
    sigma_eigs = np.clip(eigvals, lam_min, lam_max)
    P = symmetrize((U / sigma_eigs) @ U.T)
    objective = float(np.sum(np.log(sigma_eigs)) + np.sum(eigvals / sigma_eigs))
    return InnerSolution(P, objective,
                         active_lower=eigvals <= lam_min,
                         active_upper=eigvals >= lam_max)


def solve_inner_diag_eig(M: np.ndarray, lam_min: float, lam_max: float) -> InnerSolution:
    """Diagonal, eigenvalue-constrained optimum: entrywise clamp of ``Diag(M)``."""
    _check_bounds(lam_min, lam_max)
    M = np.asarray(M, dtype=float)
    d = np.diag(M).copy()
    sigma = np.clip(d, lam_min, lam_max)
    P = np.diag(1.0 / sigma)
    objective = float(np.sum(np.log(sigma)) + np.sum(d / sigma))
    return InnerSolution(P, objective,
                         active_lower=d <= lam_min,
                         active_upper=d >= lam_max)


def _check_bounds(lam_min, lam_max):
    if not (0.0 < lam_min <= lam_max):
        raise ValueError("bounds must satisfy 0 < lam_min <= lam_max")


def solve_inner(M: np.ndarray, variant: str, lam_min: float | None = None,
                lam_max: float | None = None) -> InnerSolution:
    """Dispatch on the constraint variant (caller chooses M vs S)."""
    if variant == UNCONSTRAINED:
        return solve_inner_unconstrained(M)
    if variant == DIAGONAL:
        return solve_inner_diagonal(M)
    if variant == EIG:
        return solve_inner_eig(M, lam_min, lam_max)
    if variant == DIAG_EIG:
        return solve_inner_diag_eig(M, lam_min, lam_max)
    raise ValueError(f"unknown inner variant {variant!r}")


def inner_objective(M: np.ndarray, P: np.ndarray) -> float:
    """``-log det P + <M, P>`` with the log-determinant from a Cholesky factor."""
    P = symmetrize(P)
    chol = cholesky_or_none(P)
    if chol is None:
        raise NotPositiveDefiniteError("information matrix must be PD")
    return float(-chol_logdet(chol) + np.sum(symmetrize(M) * P))


@dataclass(frozen=True)
class SingularityReport:
    """Diagnosis of a sample covariance for covariance-update well-posedness."""

    min_eigenvalue: float
    min_diagonal: float
    rank: int
    threshold: float
    is_ill_posed: bool         # unconstrained update unbounded (min eigenvalue)
    is_ill_posed_diagonal: bool  # diagonal update unbounded (min diagonal entry)


def diagnose_singularity(S: np.ndarray, threshold: float | None = None) -> SingularityReport:
    """Flag sample covariances for which the prior-free updates are ill posed.

    The default threshold is relative, ``1e-12 * trace(S) / m``, so the check
    is scale invariant; comparison is ``<=`` so the exactly-zero matrix (the
    all-residuals-zero case) is flagged.
    """
    S = symmetrize(S)
    m = S.shape[0]
    eigvals, _ = jacobi_eigh(S)
    if threshold is None:
        threshold = 1e-12 * float(np.trace(S)) / m
    rank = int(np.sum(eigvals > threshold))
    min_eig = float(eigvals[0])
    min_diag = float(np.min(np.diag(S)))
    return SingularityReport(
        min_eigenvalue=min_eig,
        min_diagonal=min_diag,
        rank=rank,
        threshold=float(threshold),
        is_ill_posed=min_eig <= threshold,
        is_ill_posed_diagonal=min_diag <= threshold,
    )


class OracleConvergenceError(RuntimeError):
    """The projected-gradient oracle hit its iteration cap."""


def numeric_inner_oracle(M: np.ndarray, variant: str,
                         lam_min: float | None = None,
                         lam_max: float | None = None,
                         grad_tol: float = 1e-10,
                         max_iter: int = 1_000_000) -> np.ndarray:
    """Slow numerical solution of the inner problem, for validation only.

    Projected gradient descent on ``P`` (diagonal variants descend on the
    diagonal entries only) with Armijo backtracking; the projection clamps
    the eigenvalues of ``P`` (entries, for diagonal variants) into
    ``[1/lam_max, 1/lam_min]``.  Runs until the projected-gradient residual
    drops below ``grad_tol``.

    Deliberately independent of the analytic route: it descends on ``P``
    with plain ``numpy.linalg`` calls and uses none of the closed forms or
    the package's eigendecomposition and Cholesky helpers.
    """
    if variant not in INNER_VARIANTS:
        raise ValueError(f"unknown inner variant {variant!r}")
    bounded = variant in (EIG, DIAG_EIG)
    if bounded:
        _check_bounds(lam_min, lam_max)
    M = symmetrize(M)
    m = M.shape[0]

    if variant in (DIAGONAL, DIAG_EIG):
        d = np.diag(M).copy()

        def grad(p):
            return d - 1.0 / p

        def value(p):
            return float(-np.sum(np.log(p)) + np.dot(d, p))

        def project(p):
            if bounded:
                return np.clip(p, 1.0 / lam_max, 1.0 / lam_min)
            return p

        def feasible(p):
            return bool(np.all(p > 0.0))

        p = project(np.ones(m))
        to_matrix = np.diag
    else:

        def grad(P):
            return M - np.linalg.inv(P)

        def value(P):
            sign, logdet = np.linalg.slogdet(P)
            return float(-logdet + np.sum(M * P))

        def project(P):
            if bounded:
                w, U = np.linalg.eigh(0.5 * (P + P.T))
                w = np.clip(w, 1.0 / lam_max, 1.0 / lam_min)
                return (U * w) @ U.T
            return 0.5 * (P + P.T)

        def feasible(P):
            return bool(np.all(np.linalg.eigvalsh(0.5 * (P + P.T)) > 0.0))

        p = project(np.eye(m))

        def to_matrix(P):
            return P

    # Projected gradient descent with spectral (Barzilai-Borwein) step
    # lengths and an Armijo safeguard; projection as documented above.
    step = 1.0
    f = value(p)
    g = grad(p)
    for _ in range(max_iter):
        residual = p - project(p - g)
        if float(np.linalg.norm(residual)) < grad_tol:
            return to_matrix(p)
        trial = step
        accepted = False
        while trial > 1e-18:
            cand = project(p - trial * g)
            delta = cand - p
            if feasible(cand):
                f_cand = value(cand)
                # standard sufficient-decrease condition for projected gradient
                bound = f + float(np.sum(g * delta)) + float(np.sum(delta * delta)) / (2.0 * trial)
                if f_cand <= bound + 1e-15 * (1.0 + abs(f)):
                    accepted = True
                    break
            trial *= 0.5
        if not accepted:
            raise OracleConvergenceError("projected-gradient line search stalled")
        g_cand = grad(cand)
        s = cand - p
        y = g_cand - g
        sy = float(np.sum(s * y))
        if sy > 0.0:
            step = min(max(float(np.sum(s * s)) / sy, 1e-10), 1e10)
        else:
            step = trial * 2.0
        p, f, g = cand, f_cand, g_cand
    raise OracleConvergenceError(f"no convergence after {max_iter} iterations")
