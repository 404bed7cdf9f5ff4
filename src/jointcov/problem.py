"""Estimation-problem model: measurement factors, noise groups, residuals.

A :class:`JointProblem` bundles a manifold declaration, a factor list, a
table of noise groups, and a gauge (the block ids held fixed).  Residual and
Jacobian evaluation is stateless and reentrant.  Relative-pose factors are
evaluated in batches: a problem compiles each all-SE(2) group once into
pose-row index arrays and stacked measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Mapping

import numpy as np

from .covariance import (
    WishartPrior,
    cholesky_or_none,
    symmetrize,
)
from .manifold import (
    SE2,
    ManifoldPoint,
    ManifoldSpec,
    boxplus,
    log_se2,
    se2_compose,
    se2_inverse,
)

# Residual kinds.
LINEAR_GAUSSIAN = "linear_gaussian"
RELATIVE_SE2 = "relative_se2"
PRIOR_EUCLIDEAN = "prior_euclidean"
CUSTOM = "custom"

# Noise-group variants: estimator (map / ml / fixed) x constraint set.
VARIANTS = (
    "map", "map-diag", "map-eig", "map-diag-eig",
    "ml", "ml-diag", "ml-eig", "ml-diag-eig",
    "fixed",
)

FD_STEP = 1e-6  # central finite-difference step for custom-factor Jacobians

_MAX_PREPROCESS_COND = 1e12


def variant_parts(variant: str) -> tuple[str, str]:
    """Split a group variant into (estimator, inner-constraint) parts."""
    if variant == "fixed":
        return "fixed", "unconstrained"
    estimator, _, rest = variant.partition("-")
    constraint = {"": "unconstrained", "diag": "diagonal", "eig": "eig",
                  "diag-eig": "diag-eig"}[rest]
    return estimator, constraint


@dataclass(frozen=True, eq=False)
class MeasurementFactor:
    """One measurement: residual kind, connected blocks, value, noise group.

    ``preprocess_jacobian`` is the (state-independent) Jacobian of a
    measurement-space transformation applied upstream; when present, its
    inverse maps residuals back to raw-measurement space before the sample
    covariance is formed.  The inverse is computed once here and cached.
    """

    factor_id: int
    kind: str
    block_ids: tuple
    z: np.ndarray
    group_id: Hashable
    H: np.ndarray | None = None
    residual_fn: Callable | None = None
    preprocess_jacobian: np.ndarray | None = None
    preprocess_jacobian_inv: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "block_ids", tuple(self.block_ids))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        if self.kind not in (LINEAR_GAUSSIAN, RELATIVE_SE2, PRIOR_EUCLIDEAN, CUSTOM):
            raise ValueError(f"unknown residual kind {self.kind!r}")
        if self.kind == LINEAR_GAUSSIAN:
            if self.H is None:
                raise ValueError("linear_gaussian factors need an observation matrix")
            object.__setattr__(self, "H", np.asarray(self.H, dtype=float))
        if self.kind == CUSTOM and self.residual_fn is None:
            raise ValueError("custom factors need a residual callable")
        if self.kind == RELATIVE_SE2 and len(self.block_ids) != 2:
            raise ValueError("relative_se2 factors connect exactly two blocks")
        if self.preprocess_jacobian is not None:
            J = np.asarray(self.preprocess_jacobian, dtype=float)
            if J.ndim != 2 or J.shape[0] != J.shape[1]:
                raise ValueError("preprocessing Jacobian must be square")
            if np.linalg.cond(J) >= _MAX_PREPROCESS_COND:
                raise ValueError("preprocessing Jacobian is numerically rank deficient")
            object.__setattr__(self, "preprocess_jacobian", J)
            object.__setattr__(self, "preprocess_jacobian_inv", np.linalg.inv(J))

    @property
    def dim(self) -> int:
        """Residual dimension m."""
        if self.kind == LINEAR_GAUSSIAN:
            return self.H.shape[0]
        if self.kind == RELATIVE_SE2:
            return 3
        return self.z.shape[0]


def linear_factor(factor_id, block_ids, H, z, group_id, preprocess_jacobian=None):
    """r(x) = z - H x over the stacked Euclidean blocks (Jacobian -H)."""
    ids = (block_ids,) if isinstance(block_ids, (str, int)) else tuple(block_ids)
    return MeasurementFactor(factor_id, LINEAR_GAUSSIAN, ids, z, group_id,
                             H=H, preprocess_jacobian=preprocess_jacobian)


def prior_factor(factor_id, block_id, z, group_id):
    """r(x) = z - x_block (Jacobian -I)."""
    return MeasurementFactor(factor_id, PRIOR_EUCLIDEAN, (block_id,), z, group_id)


def relative_se2_factor(factor_id, block_a, block_b, z, group_id,
                        preprocess_jacobian=None):
    """r(x) = log((a^-1 b)^-1 . z) for the measured relative pose z of b in a."""
    return MeasurementFactor(factor_id, RELATIVE_SE2, (block_a, block_b), z,
                             group_id, preprocess_jacobian=preprocess_jacobian)


def custom_factor(factor_id, block_ids, z, group_id, residual_fn):
    """User residual ``residual_fn(z, *block_values) -> (m,)``; FD Jacobians."""
    return MeasurementFactor(factor_id, CUSTOM, tuple(block_ids), z, group_id,
                             residual_fn=residual_fn)


@dataclass(frozen=True, eq=False)
class NoiseGroup:
    """One measurement type: residual dimension, variant, prior, bounds.

    ``information`` is the group's current information matrix: the fixed
    weight for the ``fixed`` variant and the initial value otherwise
    (defaults to identity).  Eigenvalue-constrained variants require
    ``bounds = (lam_min, lam_max)`` with ``lam_max >= lam_min > 0``; MAP
    variants require a Wishart prior.
    """

    group_id: Hashable
    m: int
    variant: str
    prior: WishartPrior | None = None
    bounds: tuple[float, float] | None = None
    information: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown noise-group variant {self.variant!r}")
        estimator, constraint = variant_parts(self.variant)
        if estimator == "map" and self.prior is None:
            raise ValueError(f"group {self.group_id!r}: MAP variants need a prior")
        if self.prior is not None and self.prior.m != self.m:
            raise ValueError("prior dimension does not match group dimension")
        if constraint in ("eig", "diag-eig"):
            if self.bounds is None:
                raise ValueError(f"group {self.group_id!r}: eig variants need bounds")
            lam_min, lam_max = self.bounds
            if not (0.0 < lam_min <= lam_max):
                raise ValueError("bounds must satisfy 0 < lam_min <= lam_max")
        P = self.information
        if P is None:
            P = np.eye(self.m)
        P = symmetrize(np.asarray(P, dtype=float))
        if P.shape != (self.m, self.m):
            raise ValueError("information matrix shape does not match m")
        if cholesky_or_none(P) is None:
            raise ValueError("information matrix must be positive definite")
        if self.bounds is not None and self.variant != "fixed":
            lam_min, lam_max = self.bounds
            sigma_eigs = 1.0 / np.linalg.eigvalsh(P)
            if sigma_eigs.min() < lam_min * (1 - 1e-9) or sigma_eigs.max() > lam_max * (1 + 1e-9):
                raise ValueError("initial covariance eigenvalues violate the bounds")
        object.__setattr__(self, "information", P)

    @property
    def estimator(self) -> str:
        return variant_parts(self.variant)[0]

    @property
    def constraint(self) -> str:
        return variant_parts(self.variant)[1]


@dataclass(frozen=True, eq=False)
class JointProblem:
    """Factors + manifold + noise groups + gauge; what every solver consumes."""

    manifold: ManifoldSpec
    factors: tuple[MeasurementFactor, ...]
    groups: tuple[NoiseGroup, ...]
    gauge_fixed: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if isinstance(self.groups, Mapping):
            object.__setattr__(self, "groups", tuple(self.groups.values()))
        else:
            object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "gauge_fixed", frozenset(self.gauge_fixed))
        ids = [g.group_id for g in self.groups]
        if len(set(ids)) != len(ids):
            raise ValueError("group ids must be unique")
        by_id = {g.group_id: g for g in self.groups}
        counts = {gid: 0 for gid in by_id}
        for f in self.factors:
            for bid in f.block_ids:
                if bid not in self.manifold._by_id:
                    raise ValueError(f"factor {f.factor_id} references unknown block {bid!r}")
            if f.kind == RELATIVE_SE2 and any(
                    self.manifold.block(bid).kind != SE2 for bid in f.block_ids):
                raise ValueError(f"factor {f.factor_id} connects non-SE(2) blocks")
            if f.group_id not in by_id:
                raise ValueError(f"factor {f.factor_id} references unknown group {f.group_id!r}")
            g = by_id[f.group_id]
            if f.dim != g.m:
                raise ValueError(
                    f"factor {f.factor_id} residual dimension {f.dim} != group m {g.m}")
            if f.preprocess_jacobian is not None and f.preprocess_jacobian.shape != (g.m, g.m):
                raise ValueError("preprocessing Jacobian must be m x m")
            counts[f.group_id] += 1
        for gid, n in counts.items():
            if n == 0:
                raise ValueError(f"group {gid!r} has no factors")
        for bid in self.gauge_fixed:
            if bid not in self.manifold._by_id:
                raise ValueError(f"gauge-fixed block {bid!r} is not in the manifold")

    @cached_property
    def group_table(self) -> dict:
        return {g.group_id: g for g in self.groups}

    @cached_property
    def factors_by_group(self) -> dict:
        out: dict = {g.group_id: [] for g in self.groups}
        for f in self.factors:
            out[f.group_id].append(f)
        return {gid: tuple(fs) for gid, fs in out.items()}

    @cached_property
    def se2_batches(self) -> dict:
        """Group id -> compiled :class:`Se2Batch`, for all-SE(2) groups."""
        return {gid: Se2Batch.compile(self.manifold, fs)
                for gid, fs in self.factors_by_group.items()
                if all(f.kind == RELATIVE_SE2 for f in fs)}

    @cached_property
    def active_index(self) -> "ActiveIndex":
        """Tangent indexing of the blocks the solvers move."""
        spec = self.manifold
        offsets, full = {}, []
        for b in spec.blocks:
            if b.block_id in self.gauge_fixed:
                offsets[b.block_id] = -1
                continue
            offsets[b.block_id] = len(full)
            sl = spec.tangent_slice(b.block_id)
            full.extend(range(sl.start, sl.stop))
        pose_offsets = np.array([offsets[bid] for bid in spec.pose_rows], dtype=np.intp)
        return ActiveIndex(offsets, pose_offsets, np.array(full, dtype=np.intp),
                           spec.tangent_dim)

    def group(self, group_id) -> NoiseGroup:
        return self.group_table[group_id]


@dataclass(frozen=True, eq=False)
class ActiveIndex:
    """Tangent indexing with gauge-fixed blocks removed.

    ``offsets`` maps a block id, and ``pose_offsets`` a pose row, to its
    offset in the active tangent (-1 when gauge-fixed); ``full_index`` holds
    each active coordinate's index in the full tangent.
    """

    offsets: dict
    pose_offsets: np.ndarray
    full_index: np.ndarray
    full_dim: int

    @property
    def dim(self) -> int:
        return len(self.full_index)

    def scatter(self, delta: np.ndarray) -> np.ndarray:
        """Embed an active-tangent step into the full tangent space."""
        v = np.zeros(self.full_dim)
        v[self.full_index] = delta
        return v


@dataclass(frozen=True, eq=False)
class Se2Batch:
    """Relative-pose factors compiled for vectorized evaluation.

    ``ia`` and ``ib`` are the rows of the two connected poses in
    :attr:`ManifoldPoint.poses`, ``z`` the stacked measurements ``(n, 3)``.
    """

    ia: np.ndarray
    ib: np.ndarray
    z: np.ndarray

    @classmethod
    def compile(cls, spec: ManifoldSpec, factors) -> "Se2Batch":
        rows = spec.pose_rows
        ia = np.array([rows[f.block_ids[0]] for f in factors], dtype=np.intp)
        ib = np.array([rows[f.block_ids[1]] for f in factors], dtype=np.intp)
        return cls(ia, ib, np.array([f.z for f in factors], dtype=float).reshape(-1, 3))


def _stacked_euclidean(x: ManifoldPoint, block_ids) -> np.ndarray:
    return np.concatenate([x.block(bid) for bid in block_ids])


def residual(f: MeasurementFactor, x: ManifoldPoint) -> np.ndarray:
    """Residual r(x) = z [-] h(x) for one factor."""
    if f.kind == LINEAR_GAUSSIAN:
        return f.z - f.H @ _stacked_euclidean(x, f.block_ids)
    if f.kind == PRIOR_EUCLIDEAN:
        return f.z - x.block(f.block_ids[0])
    if f.kind == RELATIVE_SE2:
        a = x.block(f.block_ids[0])
        b = x.block(f.block_ids[1])
        h = se2_compose(se2_inverse(a), b)
        return log_se2(se2_compose(se2_inverse(h), f.z))
    return np.asarray(f.residual_fn(f.z, *(x.block(bid) for bid in f.block_ids)),
                      dtype=float)


def residual_jacobian(f: MeasurementFactor, x: ManifoldPoint) -> np.ndarray:
    """Jacobian of r with respect to the tangent of the connected blocks.

    Columns are ordered by ``f.block_ids``.  Analytic for linear, prior, and
    relative-pose factors; custom factors fall back to central finite
    differences with step ``1e-6``.
    """
    if f.kind == LINEAR_GAUSSIAN:
        return -f.H
    if f.kind == PRIOR_EUCLIDEAN:
        return -np.eye(f.dim)
    if f.kind == RELATIVE_SE2:
        _, Ja, Jb = _batch_relative_se2(x, Se2Batch.compile(x.spec, (f,)),
                                        with_jacobians=True)
        return np.hstack([Ja[0], Jb[0]])
    return _fd_jacobian(f, x)


def _fd_jacobian(f: MeasurementFactor, x: ManifoldPoint) -> np.ndarray:
    spec = x.spec
    dims = [spec.block(bid).dim for bid in f.block_ids]
    total = sum(dims)
    J = np.empty((f.dim, total))
    col = 0
    v = np.zeros(spec.tangent_dim)
    for bid, dim in zip(f.block_ids, dims):
        sl = spec.tangent_slice(bid)
        for j in range(dim):
            v[sl.start + j] = FD_STEP
            r_plus = residual(f, boxplus(x, v))
            v[sl.start + j] = -FD_STEP
            r_minus = residual(f, boxplus(x, v))
            v[sl.start + j] = 0.0
            J[:, col] = (r_plus - r_minus) / (2.0 * FD_STEP)
            col += 1
    return J


# ---------------------------------------------------------------------------
# Batched evaluation (hot path for pose graphs).
# ---------------------------------------------------------------------------

def _batch_relative_se2(x: ManifoldPoint, batch: Se2Batch, with_jacobians: bool):
    """Residuals (n, 3) and right-perturbation Jacobians (n, 3, 3) of a batch.

    ``r = log(b^-1 . a . z)``; ``Ja`` and ``Jb`` differentiate it with
    respect to the tangent of the first and second pose.
    """
    a = x.poses[batch.ia]
    b = x.poses[batch.ib]
    z = batch.z

    az = se2_compose(a, z)
    b_inv = se2_inverse(b)
    g = se2_compose(b_inv, az)
    r = log_se2(g)
    if not with_jacobians:
        return r, None, None

    # With t_g and th the translation and angle of g, r = (V^-1(th) t_g, th).
    # A right perturbation (rho, w) of a moves t_g by R(th_a - th_b)
    # (rho + w J t_z) and th by w; one (sigma, psi) of b moves t_g by
    # -sigma - psi J t_g and th by -psi, where J is the 90-degree rotation.
    th = g[:, 2]
    small = np.abs(th) < 1e-7
    ths = np.where(small, 1.0, th)
    half = 0.5 * ths
    sin_half = np.sin(half)
    alpha = np.where(small, 1.0 - th * th / 12.0, half * np.cos(half) / sin_half)
    dalpha = np.where(small, -th / 6.0,
                      (np.sin(ths) - ths) / (4.0 * sin_half * sin_half))
    beta = 0.5 * th

    def v_inv(u0, u1):  # V^-1(th) u
        return np.stack([alpha * u0 + beta * u1, alpha * u1 - beta * u0], axis=-1)

    dv = np.stack([dalpha * g[:, 0] + 0.5 * g[:, 1],
                   dalpha * g[:, 1] - 0.5 * g[:, 0]], axis=-1)  # dV^-1/dth t_g
    c, s = np.cos(a[:, 2] - b[:, 2]), np.sin(a[:, 2] - b[:, 2])
    Ja = np.zeros((len(z), 3, 3))
    Ja[:, :2, 0] = v_inv(c, s)
    Ja[:, :2, 1] = v_inv(-s, c)
    Ja[:, :2, 2] = v_inv(-c * z[:, 1] - s * z[:, 0], c * z[:, 0] - s * z[:, 1]) + dv
    Ja[:, 2, 2] = 1.0
    Jb = np.zeros((len(z), 3, 3))
    Jb[:, :2, 0] = v_inv(-np.ones_like(th), np.zeros_like(th))
    Jb[:, :2, 1] = v_inv(np.zeros_like(th), -np.ones_like(th))
    Jb[:, :2, 2] = v_inv(g[:, 1], -g[:, 0]) - dv
    Jb[:, 2, 2] = -1.0
    return r, Ja, Jb


def group_residuals(problem: JointProblem, x: ManifoldPoint, group_id) -> np.ndarray:
    """All residuals of a group stacked into a (k, m) array."""
    batch = problem.se2_batches.get(group_id)
    if batch is not None:
        return _batch_relative_se2(x, batch, with_jacobians=False)[0]
    return np.stack([residual(f, x) for f in problem.factors_by_group[group_id]])


def sample_covariance(problem: JointProblem, x: ManifoldPoint, group_id) -> np.ndarray:
    """Sample covariance (1/k) sum_i r_i r_i^T over the group's residuals.

    Factors carrying a preprocessing Jacobian contribute
    ``J^-1 r r^T J^-T`` instead, so the estimate lives in raw-measurement
    space.  The result is symmetric PSD but may be singular; singularity
    handling is the caller's concern.
    """
    factors = problem.factors_by_group[group_id]
    R = group_residuals(problem, x, group_id)
    for i, f in enumerate(factors):
        if f.preprocess_jacobian_inv is not None:
            R[i] = f.preprocess_jacobian_inv @ R[i]
    return symmetrize(R.T @ R / len(factors))
