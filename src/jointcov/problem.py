"""Estimation-problem model: measurement factors, noise groups, residuals.

A :class:`JointProblem` bundles a manifold declaration, a factor list, a
table of noise groups, and a gauge (the block ids held fixed).  Residual and
Jacobian evaluation is stateless and reentrant.

Every group is compiled once (:attr:`JointProblem.batches`) into batches,
one per maximal run of consecutive factors of one kind, so they cover the
group's factors in order: a run of relative-pose factors becomes a
:class:`Se2Batch`, a run of linear and prior factors on the same blocks a
:class:`LinearBatch`, and each custom factor a :class:`CustomBatch`.  Each
kind has this one residual and Jacobian formula; :func:`residual` and
:func:`residual_jacobian` evaluate a factor as a batch of one.  A batch of k
factors gives residuals ``(k, m)``, Jacobians ``(k, m, D)`` over its D
connected tangent coordinates (:meth:`Batch.jacobian`), its costs and
gradient terms at a weight (:meth:`Batch.gradient_terms`), and each
coordinate's position in the active tangent (:attr:`Batch.positions`,
compiled once).  Positions are laid out factor-major (all of factor i's before
factor i+1's) because assembly adds terms in that order: summed in factor
order, a batch linearizes bit for bit like the same factors as batches of
one.  From the positions, :attr:`JointProblem.hessian_pattern` compiles
once per problem one CSC structure of the sparse Hessian, in a
fill-reducing order of the blocks.

The relative-pose kernel (:func:`_batch_relative_se2`) is one fused pass:
it forms ``b^-1 . a . z`` in closed form from the point's cached pose trig
(:attr:`ManifoldPoint.pose_trig`), wraps the relative angle once, and takes
one half-angle sine and cosine per factor, which its Jacobians reuse.  It
returns the Jacobians as their eight distinct entry arrays, from which
:class:`Se2Batch` forms the gradient terms without the dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Callable, Hashable

import numpy as np

from .covariance import (
    WishartPrior,
    cholesky_or_none,
    symmetrize,
)
from .manifold import (
    _CUT_LOCUS_TOL,
    SE2,
    SMALL_ANGLE,
    ActiveIndex,
    CutLocusError,
    ManifoldPoint,
    ManifoldSpec,
    exp_se2,
    se2_compose,
    wrap_angle,
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

# Below this relative rotation the pose Jacobian's dalpha takes its series,
# where its truncation error meets the closed form's cancellation (2e-13).
_DALPHA_SERIES_ANGLE = 0.04


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
            if not np.all(np.isfinite(J)):
                raise ValueError(f"factor {self.factor_id}: preprocessing Jacobian "
                                 "has non-finite values")
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
    """r(x) = log((a^-1 b)^-1 . z) for the measured relative pose z of b in
    a; the two blocks must differ (a self-loop's residual ignores x)."""
    if block_a == block_b:
        raise ValueError(f"factor {factor_id}: relative pose of block {block_a!r} "
                         "to itself")
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
        if self.bounds is not None and not np.all(np.isfinite(self.bounds)):
            raise ValueError(f"group {self.group_id!r}: bounds must be finite")
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
        if not np.all(np.isfinite(P)):
            raise ValueError(f"group {self.group_id!r}: information matrix is not finite")
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
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "gauge_fixed", frozenset(self.gauge_fixed))
        ids = [g.group_id for g in self.groups]
        if len(set(ids)) != len(ids):
            raise ValueError("group ids must be unique")
        by_id = {g.group_id: g for g in self.groups}
        counts = dict.fromkeys(by_id, 0)
        known = self.manifold._by_id
        for f in self.factors:
            try:
                blocks = [known[bid] for bid in f.block_ids]
            except KeyError as err:
                raise ValueError(f"factor {f.factor_id} references unknown block "
                                 f"{err.args[0]!r}") from None
            if f.kind == RELATIVE_SE2:
                if any(b.kind != SE2 for b in blocks):
                    raise ValueError(f"factor {f.factor_id} connects non-SE(2) blocks")
            elif f.kind != CUSTOM:  # linear or prior: H (a prior's is I) fits x and z
                if any(b.kind == SE2 for b in blocks):
                    raise ValueError(f"factor {f.factor_id} connects an SE(2) block")
                d = sum(b.dim for b in blocks)
                H_shape = (f.dim, f.dim) if f.H is None else f.H.shape
                if f.z.shape != (f.dim,) or H_shape != (f.dim, d):
                    raise ValueError(
                        f"factor {f.factor_id} does not fit its {d} state entries")
            g = by_id.get(f.group_id)
            if g is None:
                raise ValueError(f"factor {f.factor_id} references unknown group {f.group_id!r}")
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
        self._check_finite()

    def _check_finite(self):
        """Reject non-finite measurements and observation matrices with one
        vectorized test (a per-factor test would slow large graphs' set-up)."""
        arrays = [f.z for f in self.factors] + [f.H for f in self.factors if f.H is not None]
        if arrays and not np.isfinite(np.concatenate(arrays, axis=None)).all():
            bad = next(f for f in self.factors
                       if not all(np.all(np.isfinite(a)) for a in (f.z, f.H) if a is not None))
            raise ValueError(f"factor {bad.factor_id} has non-finite values")

    @cached_property
    def factors_by_group(self) -> dict:
        out: dict = {g.group_id: [] for g in self.groups}
        for f in self.factors:
            out[f.group_id].append(f)
        return {gid: tuple(fs) for gid, fs in out.items()}

    @cached_property
    def batches(self) -> dict:
        """Group id -> tuple of compiled batches, one per run of the group's
        factors (see the module docstring and :func:`_run_key`)."""
        spec, index = self.manifold, self.active_index
        return {gid: tuple(_compile_run(spec, index, tuple(run))
                           for _, run in groupby(fs, _run_key))
                for gid, fs in self.factors_by_group.items()}

    @cached_property
    def preprocess_inverses(self) -> dict:
        """Group id -> (rows, stacked inverses) of the group's factors that
        carry a preprocessing Jacobian, or None when none does."""
        out = {}
        for gid, fs in self.factors_by_group.items():
            rows = [i for i, f in enumerate(fs) if f.preprocess_jacobian_inv is not None]
            out[gid] = (np.array(rows, dtype=np.intp),
                        np.array([fs[i].preprocess_jacobian_inv for i in rows])
                        ) if rows else None
        return out

    @cached_property
    def active_index(self) -> ActiveIndex:
        """Tangent indexing of the blocks the solvers move."""
        return ActiveIndex.build(self.manifold, self.gauge_fixed)

    @cached_property
    def hessian_pattern(self) -> "HessianPattern":
        """Structure of the sparse Hessian, compiled on the first sparse
        Hessian build, so solvers that never factorize skip it."""
        return HessianPattern.compile(
            [b for g in self.groups for b in self.batches[g.group_id]],
            self.active_index)


@dataclass(frozen=True, eq=False)
class Batch:
    """Factors compiled for stacked linearization (see the module docstring).

    Slot s is the s-th connected block of every factor: ``dims[s]`` is its
    tangent dimension and ``offsets[s]`` ``(k,)`` each factor's
    :attr:`ActiveIndex.offsets` entry for that block, in an active tangent of
    dimension ``n``.  Subclasses give ``residuals(x)`` ``(k, m)`` and
    ``linearize(x)``: the residuals and the Jacobians in the batch's own form,
    which :meth:`jacobian` expands to ``(k, m, sum(dims))`` and
    :meth:`gradient_terms` reads.

    Assembly adds a batch's gradient terms, and its dense Hessian terms, in
    factor order: a batch with :attr:`shared_positions` (a linear batch) is
    summed over its factors from the accumulator's values at that one row
    and written back once; any other batch is scattered at its positions.
    """

    offsets: tuple
    dims: tuple
    n: int

    # the one position row (D,) every factor shares, or None (see above)
    shared_positions = None

    @cached_property
    def positions(self) -> np.ndarray:
        """Tangent position of each factor's Jacobian columns,
        ``(k, sum(dims))``, int32 and read-only; positions ``>= n`` belong
        to gauge-fixed blocks."""
        p = np.concatenate([off[:, None] + np.arange(d) for off, d in
                            zip(self.offsets, self.dims)], axis=1).astype(np.int32)
        p.setflags(write=False)
        return p

    @cached_property
    def dense_hessian_index(self) -> np.ndarray:
        """Flat index of the factors' ``(D, D)`` Hessian blocks, raveled
        factor-major, into an ``n * n + 1`` buffer whose last entry collects
        gauge-fixed terms (``np.add.at`` is much faster on a 1-D index).
        With :attr:`shared_positions` it indexes the one shared block."""
        n, shared = self.n, self.shared_positions
        p = (self.positions if shared is None else shared[None]).astype(np.intp)
        return np.where((p[:, :, None] < n) & (p[:, None, :] < n),
                        p[:, :, None] * n + p[:, None, :], n * n).ravel()

    def jacobian(self, jac) -> np.ndarray:
        """The Jacobians ``(k, m, D)`` from ``linearize(x)[1]``."""
        return jac

    def gradient_terms(self, r: np.ndarray, jac, W: np.ndarray):
        """Each factor's cost ``1/2 r^T W r`` ``(k,)`` and gradient terms
        ``J^T W r`` ``(k, D)``, as stacked matmuls per factor."""
        Wr = (W @ r[:, :, None])[:, :, 0]
        return 0.5 * np.vecdot(r, Wr), (np.swapaxes(jac, 1, 2) @ Wr[:, :, None])[:, :, 0]


@dataclass(frozen=True, eq=False)
class Se2Batch(Batch):
    """Relative-pose factors: ``ia`` and ``ib`` are the rows of the two
    connected poses in :attr:`ManifoldPoint.poses`, ``z`` the stacked
    measurements ``(k, 3)``.  Its Jacobians are the kernel's eight entry
    arrays: :meth:`gradient_terms` forms ``u = W r``, the costs and ``J^T u``
    from them by whole-vector arithmetic, and :meth:`jacobian` expands them
    to dense ``(k, 3, 6)`` blocks for a Hessian build."""

    ia: np.ndarray
    ib: np.ndarray
    z: np.ndarray

    @classmethod
    def compile(cls, spec: ManifoldSpec, index: ActiveIndex, factors) -> "Se2Batch":
        rows = spec.pose_rows
        ia = np.array([rows[f.block_ids[0]] for f in factors], dtype=np.intp)
        ib = np.array([rows[f.block_ids[1]] for f in factors], dtype=np.intp)
        return cls((index.pose_offsets[ia], index.pose_offsets[ib]), (3, 3), index.dim,
                   ia, ib, np.array([f.z for f in factors], dtype=float).reshape(-1, 3))

    def residuals(self, x: ManifoldPoint) -> np.ndarray:
        return _batch_relative_se2(x, self.ia, self.ib, self.z, with_jacobians=False)[0]

    def linearize(self, x: ManifoldPoint):
        return _batch_relative_se2(x, self.ia, self.ib, self.z, with_jacobians=True)

    def jacobian(self, jac) -> np.ndarray:
        alpha, beta, j00, j10, j02, j12, j05, j15 = jac
        J = np.zeros((3, 6, len(alpha)))  # entry by entry in contiguous rows
        J[0, 0], J[1, 0] = j00, j10
        J[0, 1], J[1, 1] = -j10, j00
        J[0, 2], J[1, 2] = j02, j12
        J[0, 3], J[1, 3] = -alpha, beta
        J[0, 4], J[1, 4] = -beta, -alpha
        J[0, 5], J[1, 5] = j05, j15
        J[2, 2], J[2, 5] = 1.0, -1.0
        return np.ascontiguousarray(J.transpose(2, 0, 1))

    def gradient_terms(self, r: np.ndarray, jac, W: np.ndarray):
        alpha, beta, j00, j10, j02, j12, j05, j15 = jac
        (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = W.tolist()
        r0, r1, r2 = r[:, 0], r[:, 1], r[:, 2]
        u0 = w00 * r0 + w01 * r1 + w02 * r2
        u1 = w10 * r0 + w11 * r1 + w12 * r2
        u2 = w20 * r0 + w21 * r1 + w22 * r2
        # J^T u, column by column of J (see the jacobian layout above)
        terms = np.stack((j00 * u0 + j10 * u1, j00 * u1 - j10 * u0,
                          j02 * u0 + j12 * u1 + u2, beta * u1 - alpha * u0,
                          -(beta * u0 + alpha * u1), j05 * u0 + j15 * u1 - u2), axis=1)
        return 0.5 * (r0 * u0 + r1 * u1 + r2 * u2), terms


@dataclass(frozen=True, eq=False)
class LinearBatch(Batch):
    """Linear and prior factors on the same distinct Euclidean blocks.

    ``cols`` are the blocks' entries in :attr:`ManifoldPoint.vector`, in the
    factors' block order; ``J`` ``(k, m, d)``, read-only, stacks the
    Jacobians, the negated observation matrices (``-I`` for a prior), and
    ``z`` ``(k, m)`` the measurements, so the residuals are ``z + J x``.

    Every factor sits on the same positions, so assembly sums the factors'
    terms, in factor order, onto the accumulator's values at
    :attr:`shared_positions` and writes them back once.  A one-column batch
    has no shared row and is scattered: numpy sums a single column pairwise,
    not in order.
    """

    cols: np.ndarray
    J: np.ndarray
    z: np.ndarray

    @cached_property
    def shared_positions(self) -> np.ndarray | None:
        return self.positions[0] if sum(self.dims) > 1 else None

    @classmethod
    def compile(cls, spec: ManifoldSpec, index: ActiveIndex, factors) -> "LinearBatch":
        ids = factors[0].block_ids
        slices = [spec._storage[spec.position(bid)][1] for bid in ids]
        J = -np.array([f.H if f.kind == LINEAR_GAUSSIAN else np.eye(f.dim) for f in factors])
        J.setflags(write=False)
        return cls(tuple(np.full(len(factors), index.offsets[bid]) for bid in ids),
                   tuple(sl.stop - sl.start for sl in slices), index.dim,
                   np.concatenate([np.arange(sl.start, sl.stop) for sl in slices]),
                   J, np.array([f.z for f in factors]))

    def residuals(self, x: ManifoldPoint) -> np.ndarray:
        # z - H x, bit for bit: negation is exact
        return self.z + self.J @ x.vector[self.cols]

    def linearize(self, x: ManifoldPoint):
        return self.residuals(x), self.J


@dataclass(frozen=True, eq=False)
class CustomBatch(Batch):
    """One custom factor: ``residual_fn`` on its blocks' values, with
    central finite-difference Jacobians of step :data:`FD_STEP`."""

    factor: MeasurementFactor

    @classmethod
    def compile(cls, spec: ManifoldSpec, index: ActiveIndex, factors) -> "CustomBatch":
        (f,) = factors
        return cls(tuple(np.array([index.offsets[bid]]) for bid in f.block_ids),
                   tuple(spec.block(bid).dim for bid in f.block_ids), index.dim, f)

    def _eval(self, values) -> np.ndarray:
        return np.asarray(self.factor.residual_fn(self.factor.z, *values), dtype=float)

    def residuals(self, x: ManifoldPoint) -> np.ndarray:
        return self._eval([x.block(bid) for bid in self.factor.block_ids])[None]

    def linearize(self, x: ManifoldPoint):
        """Each column retracts only the factor's own blocks, by their slice
        of the local tangent step ``t``."""
        ids = self.factor.block_ids
        values = [x.block(bid) for bid in ids]
        kinds = [x.spec.block(bid).kind for bid in ids]
        ends = np.cumsum(self.dims)

        def moved(t):
            return [se2_compose(v, exp_se2(t[e - d:e])) if kind == SE2 else v + t[e - d:e]
                    for v, kind, d, e in zip(values, kinds, self.dims, ends)]

        J = np.empty((self.factor.dim, ends[-1]))
        for j in range(ends[-1]):
            t = np.zeros(ends[-1])
            t[j] = FD_STEP
            r_plus = self._eval(moved(t))
            t[j] = -FD_STEP
            J[:, j] = (r_plus - self._eval(moved(t))) / (2.0 * FD_STEP)
        return self._eval(values)[None], J[None]


@dataclass(frozen=True, eq=False)
class HessianPattern:
    """Compiled CSC structure of the sparse Hessian in a fill-reducing order.

    ``order`` is a symmetric permutation q of the active tangent that keeps
    each block's coordinates contiguous and in their order; ``H[q][:, q]``
    factorizes with less fill than H.  ``indptr`` and ``indices`` (int32,
    rows sorted in each column) are the structure of ``H[q][:, q]``: every
    entry that a factor couples, plus the whole diagonal, whose data indices
    are ``diagonal``.  A factor couples whole blocks, so in each column a
    block's rows have consecutive data indices.  ``heads`` holds per batch
    ``(first, row_slot, row_step)``: ``first`` ``(k, S, D)`` is the data
    index of each connected block's first row in each of the factor's D
    columns, and each of the D rows lies ``row_step`` rows below the first
    row of block ``row_slot``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray
    heads: tuple
    order: np.ndarray

    def __post_init__(self):
        # every sparse Hessian built on this pattern shares these arrays
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    def matrix(self, terms: np.ndarray):
        """``H[q][:, q]``, CSC, from every batch's ``(D, D)`` block terms,
        raveled in assembly order (batches in turn, each factor-major) and
        summed in that order; terms of gauge-fixed blocks are dropped."""
        import scipy.sparse  # here, not at module level: it slows `import jointcov`

        n, nnz = len(self.indptr) - 1, len(self.indices)
        scatter = np.concatenate([np.zeros(0, np.intp)] + [
            (first[:, row_slot, :] + row_step[:, None]).ravel()
            for first, row_slot, row_step in self.heads])
        data = np.bincount(scatter, terms, minlength=nnz)[:nnz]
        return scipy.sparse.csc_matrix((data, self.indices, self.indptr),
                                       shape=(n, n), dtype=float)

    @classmethod
    def compile(cls, batches, index: ActiveIndex) -> "HessianPattern":
        n = index.dim
        starts = np.unique([off for off in index.offsets.values() if off < n])
        firsts = [np.stack(b.offsets, axis=1) for b in batches]  # (k, S)

        # order the blocks, then expand each block to its coordinates
        nb = len(starts)
        blocks = [np.searchsorted(starts, f) for f in firsts]  # gauge-fixed: nb
        block_keys = np.unique(np.concatenate(
            [_pair_keys(b, b, nb).ravel() for b in blocks] + [np.arange(nb) * (nb + 1)]))
        block_order = fill_reducing_order(*_csc_arrays(block_keys[block_keys < nb * nb], nb))
        sizes = np.diff(starts, append=n)[block_order]
        order = np.repeat(starts[block_order] - (np.cumsum(sizes) - sizes), sizes) + np.arange(n)

        # each position's place in that order; gauge-fixed positions map to n
        rank = np.full(n + 1, n)
        rank[order] = np.arange(n)
        firsts = [rank[np.minimum(f, n)] for f in firsts]
        pos = [rank[np.minimum(b.positions, n)] for b in batches]
        keys = np.unique(np.concatenate(
            [_pair_keys(p, p, n).ravel() for p in pos] + [np.arange(n) * (n + 1)]))
        keys = keys[keys < n * n]
        heads = tuple((np.searchsorted(keys, _pair_keys(f, p, n)).astype(np.int32),
                       np.repeat(np.arange(len(b.dims)), b.dims),
                       np.concatenate([np.arange(d) for d in b.dims]))
                      for b, f, p in zip(batches, firsts, pos))
        diagonal = np.searchsorted(keys, np.arange(n) * (n + 1)).astype(np.int32)
        return cls(*_csc_arrays(keys, n), diagonal, heads, order.astype(np.int32))


def _pair_keys(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Keys ``col * n + row`` of each factor's (row, col) pairs, ``(k, R, C)``
    from ``rows`` ``(k, R)`` and ``cols`` ``(k, C)``; ``n * n`` where either
    index is at least n (gauge-fixed)."""
    r, c = rows[:, :, None], cols[:, None, :]
    return np.where((r < n) & (c < n), c * n + r, n * n)


def _csc_arrays(keys: np.ndarray, n: int):
    """int32 ``(indptr, indices)`` of sorted unique keys ``col * n + row``."""
    counts = np.bincount(keys // n, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr, (keys % n).astype(np.int32)


def fill_reducing_order(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Fill-reducing symmetric permutation q (int32) of a symmetric CSC
    pattern: ``H[q][:, q]`` factorizes with less fill than H.

    It is SuperLU's minimum-degree ordering of ``A + A^T`` in symmetric mode,
    taken from the analysis of a strictly diagonally dominant matrix with
    this pattern, so it depends on the pattern alone.  q is the inverse of
    SuperLU's ``perm_c``: column j of ``A Pc`` is column ``q[j]`` of A.
    """
    import scipy.sparse.linalg

    n = len(indptr) - 1
    counts = np.diff(indptr)
    cols = np.repeat(np.arange(n), counts)
    data = np.where(indices == cols, counts[cols].astype(float), -1.0)
    lu = scipy.sparse.linalg.splu(
        scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n)),
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True})
    return np.argsort(lu.perm_c).astype(np.int32)


def _compile_run(spec: ManifoldSpec, index: ActiveIndex, factors) -> Batch:
    """Compile a run of factors that share a :func:`_run_key`."""
    cls = {RELATIVE_SE2: Se2Batch, CUSTOM: CustomBatch}.get(factors[0].kind, LinearBatch)
    return cls.compile(spec, index, factors)


def _run_key(f: MeasurementFactor):
    """Consecutive factors with equal keys share a batch: relative-pose
    factors on any poses, linear and prior factors on the same blocks.  A
    custom factor's key is the factor itself, so it is batched alone."""
    return {RELATIVE_SE2: RELATIVE_SE2, CUSTOM: f}.get(f.kind, f.block_ids)


def _batch_of_one(f: MeasurementFactor, spec: ManifoldSpec) -> Batch:
    return _compile_run(spec, spec.ungauged_index, (f,))


def residual(f: MeasurementFactor, x: ManifoldPoint) -> np.ndarray:
    """Residual r(x) = z [-] h(x) for one factor."""
    return _batch_of_one(f, x.spec).residuals(x)[0]


def residual_jacobian(f: MeasurementFactor, x: ManifoldPoint) -> np.ndarray:
    """Jacobian of r with respect to the tangent of the connected blocks.

    Columns are ordered by ``f.block_ids``.  Analytic for linear, prior, and
    relative-pose factors; custom factors use central finite differences
    with step ``1e-6``.
    """
    batch = _batch_of_one(f, x.spec)
    return batch.jacobian(batch.linearize(x)[1])[0]


# ---------------------------------------------------------------------------
# Relative-pose kernel of Se2Batch.
# ---------------------------------------------------------------------------

def _batch_relative_se2(x: ManifoldPoint, ia, ib, z: np.ndarray, with_jacobians: bool):
    """Residuals (k, 3) and the right-perturbation Jacobians' eight distinct
    entry arrays (k,) of relative-pose factors between the pose rows ``ia``
    and ``ib``.

    ``r = log(g)`` with ``g = b^-1 . a . z`` in closed form: ``t_g = R(b)^T
    (t_a + R(a) t_z - t_b)`` and ``th = wrap(th_a + th_z - th_b)``, from the
    point's cached pose trig (:attr:`ManifoldPoint.pose_trig`); only the
    half-angle trig of the log is computed per factor.  The Jacobian's first
    three columns differentiate r with respect to the tangent of the first
    pose, the last three with respect to the second.  Each 3 x 6 Jacobian is

        [[J00, -J10, J02, -alpha, -beta, J05],
         [J10,  J00, J12,  beta, -alpha, J15],
         [  0,    0,   1,     0,      0,  -1]]

    and the entries are returned as ``(alpha, beta, J00, J10, J02, J12, J05,
    J15)``, or None without ``with_jacobians``; :meth:`Se2Batch.jacobian`
    expands them.

    Raises:
        CutLocusError: if a relative rotation is within ``1e-12`` of ``+/-pi``.
    """
    cos, sin = x.pose_trig
    ca, sa, cb, sb = cos[ia], sin[ia], cos[ib], sin[ib]
    a = np.take(x.poses, ia, axis=0)  # much faster than x.poses[ia]
    b = np.take(x.poses, ib, axis=0)
    zx, zy = z[:, 0], z[:, 1]
    tx = a[:, 0] + (ca * zx - sa * zy) - b[:, 0]
    ty = a[:, 1] + (sa * zx + ca * zy) - b[:, 1]
    gx = cb * tx + sb * ty
    gy = cb * ty - sb * tx
    th = wrap_angle(a[:, 2] + z[:, 2] - b[:, 2])
    abs_th = np.abs(th)
    if abs_th.max() > np.pi - _CUT_LOCUS_TOL:
        raise CutLocusError("relative-pose residual at a rotation of +/-pi (cut locus)")

    # log: t = V^-1(th) t_g with V^-1 = [[alpha, beta], [-beta, alpha]],
    # alpha = (th/2) cot(th/2), beta = th/2; Taylor branch near th = 0
    small = abs_th < SMALL_ANGLE
    half = 0.5 * np.where(small, 1.0, th)
    sin_half, cos_half = np.sin(half), np.cos(half)
    alpha = np.where(small, 1.0 - th * th / 12.0, half * cos_half / sin_half)
    beta = 0.5 * th
    r = np.empty((len(z), 3))
    r[:, 0] = alpha * gx + beta * gy
    r[:, 1] = alpha * gy - beta * gx
    r[:, 2] = th
    if not with_jacobians:
        return r, None

    # A right perturbation (rho, w) of a moves t_g by R(th_a - th_b)
    # (rho + w J t_z) and th by w; one (sigma, psi) of b moves t_g by
    # -sigma - psi J t_g and th by -psi, where J is the 90-degree rotation.
    # Each column of V^-1 u is (alpha u0 + beta u1, alpha u1 - beta u0).
    th2 = th * th  # dalpha = (sin th - th) / (4 sin^2(th/2))
    dalpha = np.where(abs_th < _DALPHA_SERIES_ANGLE, -th * (1 / 6 + th2 * (1 / 180 + th2 / 5040)),
                      (sin_half * cos_half - half) / (2.0 * sin_half * sin_half))
    dv0 = dalpha * gx + 0.5 * gy  # dV^-1/dth t_g
    dv1 = dalpha * gy - 0.5 * gx
    c = ca * cb + sa * sb  # cos(th_a - th_b)
    s = sa * cb - ca * sb  # sin(th_a - th_b)
    u0 = -c * zy - s * zx  # R(th_a - th_b) J t_z
    u1 = c * zx - s * zy
    return r, (alpha, beta, alpha * c + beta * s, alpha * s - beta * c,
               alpha * u0 + beta * u1 + dv0, alpha * u1 - beta * u0 + dv1,
               r[:, 1] - dv0, -r[:, 0] - dv1)


def group_residuals(problem: JointProblem, x: ManifoldPoint, group_id) -> np.ndarray:
    """All residuals of a group stacked into a (k, m) array; a group of one
    batch returns that batch's array, which the caller must not modify."""
    batches = problem.batches[group_id]
    if len(batches) == 1:
        return batches[0].residuals(x)
    return np.concatenate([b.residuals(x) for b in batches])


def sample_covariance(problem: JointProblem, x: ManifoldPoint, group_id) -> np.ndarray:
    """Sample covariance (1/k) sum_i r_i r_i^T over the group's residuals.

    Factors carrying a preprocessing Jacobian contribute
    ``J^-1 r r^T J^-T`` instead, so the estimate lives in raw-measurement
    space.  The result is symmetric PSD but may be singular; singularity
    handling is the caller's concern.
    """
    return residual_covariance(problem, group_id, group_residuals(problem, x, group_id))


def residual_covariance(problem: JointProblem, group_id, R: np.ndarray) -> np.ndarray:
    """:func:`sample_covariance` from the group's residuals ``R`` (k, m)."""
    inverses = problem.preprocess_inverses[group_id]
    if inverses is not None:
        rows, J_inv = inverses
        R = R.copy()
        R[rows] = (J_inv @ R[rows][:, :, None])[:, :, 0]
    return symmetrize(R.T @ R / len(R))
