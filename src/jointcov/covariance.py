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

Only the unconstrained update and :func:`spd_inverse` need scipy (LAPACK
``dpotrs`` on a Cholesky factor), and they import ``scipy.linalg`` on their
first call.  The diagonal and eigenvalue-bounded updates, and a mode-matched
prior, which stores ``V^-1`` as formed, run on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def chol_logdet(chol: np.ndarray) -> float:
    """log det of A given its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _cho_inverse(chol: np.ndarray) -> np.ndarray:
    """``A^-1`` from the lower Cholesky factor of ``A``: LAPACK ``dpotrs`` as
    ``scipy.linalg.cho_solve`` calls it, with its finiteness check but
    without the rest of its per-call overhead."""
    import scipy.linalg  # loaded by the first inverse, not by `import jointcov`

    if not np.isfinite(chol).all():
        raise ValueError("array must not contain infs or NaNs")
    return symmetrize(scipy.linalg.lapack.dpotrs(chol, np.eye(chol.shape[0]), lower=True)[0])


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    chol = cholesky_or_none(symmetrize(a))
    if chol is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return _cho_inverse(chol)


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


@dataclass(frozen=True, eq=False, init=False)
class WishartPrior:
    """Wishart prior W(P; V, nu) on a noise information matrix.

    The scale ``V`` must be a finite square positive definite matrix and the
    degrees of freedom ``m + 1 <= nu < inf``.  The prior stores ``V^-1``
    (``scale_inv``), the only form the P update reads: ``WishartPrior(V,
    nu)`` inverts ``V`` once, and :func:`mode_match_prior` forms ``V^-1``
    directly.  ``scale`` is ``V`` as given, or for a mode-matched prior
    ``V^-1`` inverted on first access.
    """

    scale_inv: np.ndarray
    dof: float

    def __init__(self, scale: np.ndarray, dof: float):
        v = np.asarray(scale, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or not np.isfinite(v).all():
            raise ValueError(f"scale must be a finite square matrix, got shape {v.shape}")
        v = symmetrize(v)
        if cholesky_or_none(v) is None:
            raise NotPositiveDefiniteError("Wishart scale matrix must be PD")
        self._store(spd_inverse(v), dof)
        self.__dict__["scale"] = v  # as given: inverting V^-1 back would round

    @classmethod
    def from_scale(cls, scale: np.ndarray, dof: float) -> "WishartPrior":
        return cls(scale=scale, dof=float(dof))

    @classmethod
    def _from_scale_inv(cls, scale_inv: np.ndarray, dof: float) -> "WishartPrior":
        prior = cls.__new__(cls)
        prior._store(scale_inv, dof)
        return prior

    def _store(self, scale_inv: np.ndarray, dof: float) -> None:
        m = scale_inv.shape[0]
        if not m + 1 <= dof < np.inf:  # also rejects NaN
            raise ValueError(f"dof must be finite and >= m + 1 = {m + 1}, got {dof!r}")
        object.__setattr__(self, "scale_inv", scale_inv)
        object.__setattr__(self, "dof", dof)

    @cached_property
    def scale(self) -> np.ndarray:
        return spd_inverse(self.scale_inv)

    @property
    def m(self) -> int:
        return self.scale_inv.shape[0]


def mode_match_prior(sigma0: np.ndarray, w_prior: float, k: int,
                     m: int | None = None) -> WishartPrior:
    """Build a Wishart prior whose mode equals ``sigma0^-1``.

    ``V = (w_prior * k * sigma0)^-1`` and ``nu = w_prior * k + m + 1``; the
    resulting unconstrained optimum blends prior and sample covariance as
    ``sigma* = w/(w+1) * sigma0 + 1/(w+1) * S``.  ``V^-1`` is exact and
    nothing is inverted.
    """
    sigma0 = symmetrize(sigma0)
    if m is None:
        m = sigma0.shape[0]
    elif sigma0.shape != (m, m):
        raise ValueError("sigma0 shape does not match m")
    if not 0.0 < w_prior < np.inf:  # also rejects NaN
        raise ValueError(f"w_prior must be finite and > 0, got {w_prior!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if cholesky_or_none(sigma0) is None:
        raise NotPositiveDefiniteError("sigma0 must be positive definite")
    scale_inv = w_prior * k * sigma0
    if not np.isfinite(scale_inv).all():  # a NaN sigma0 can pass the Cholesky
        raise ValueError("w_prior * k * sigma0 must be finite")
    return WishartPrior._from_scale_inv(scale_inv, w_prior * k + m + 1)


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
    """``P* = M^-1`` from one Cholesky factor of ``M``, accepted when
    ``1/||P||_F`` (a lower bound on ``lambda_min(M)``) clears twice the
    singularity threshold.  Otherwise :func:`diagnose_singularity` decides and
    a singular ``M`` raises :class:`UnboundedProblem`: Cholesky of an exactly
    rank-deficient ``M`` can succeed after rounding and return a huge ``P``.
    At the optimum ``<M, P*> = m``, so the objective is ``log det M + m``.
    """
    M = symmetrize(M)
    chol = cholesky_or_none(M)
    if chol is not None:
        sol = _inverse_solution(chol)
        if 1.0 / np.linalg.norm(sol.information) > 2.0 * _singular_threshold(M):
            return sol
    report = diagnose_singularity(M)
    if chol is None or report.is_ill_posed:
        raise UnboundedProblem(
            "second-moment matrix is singular "
            f"(min eigenvalue {report.min_eigenvalue:.3e}); the unconstrained covariance "
            "update is unbounded below — add an eigenvalue lower bound or a prior",
            min_eigenvalue=report.min_eigenvalue,
        )
    return sol


def _inverse_solution(chol: np.ndarray) -> InnerSolution:
    """``P* = M^-1`` and its objective from the Cholesky factor of ``M``."""
    m = chol.shape[0]
    objective = chol_logdet(chol) + m
    return InnerSolution(_cho_inverse(chol), float(objective), _no_flags(m), _no_flags(m))


def _singular_threshold(M: np.ndarray) -> float:
    """``1e-12 * trace(M) / m``: eigenvalues (or diagonal entries) at or below it count as zero."""
    return 1e-12 * float(np.trace(M)) / M.shape[0]


def solve_inner_diagonal(M: np.ndarray) -> InnerSolution:
    """``P* = Diag(M)^-1``; requires every diagonal entry above the relative
    singularity threshold of :func:`diagnose_singularity`."""
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    d = np.diag(M).copy()
    if d.min() <= _singular_threshold(M):
        raise UnboundedProblem(
            "second moment has a (near-)zero diagonal entry "
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
    is_ill_posed: bool         # unconstrained update unbounded (min eigenvalue)


def diagnose_singularity(S: np.ndarray) -> SingularityReport:
    """Flag sample covariances for which the prior-free updates are ill posed.

    The threshold is relative, ``1e-12 * trace(S) / m``, so the check is
    scale invariant; comparison is ``<=`` so the exactly-zero matrix (the
    all-residuals-zero case) is flagged.
    """
    S = symmetrize(S)
    min_eig = float(jacobi_eigh(S)[0][0])
    return SingularityReport(min_eigenvalue=min_eig,
                             is_ill_posed=min_eig <= _singular_threshold(S))


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
