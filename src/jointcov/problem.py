"""Estimation-problem model: factor sets, noise groups, residuals.

A :class:`JointProblem` bundles a manifold declaration, a tuple of factor
sets, a table of noise groups, and a gauge (the block ids held fixed).
Residual and Jacobian evaluation is stateless and reentrant.

A :class:`FactorSet` holds k measurements of one residual kind in one noise
group as arrays (:func:`relative_se2_set`, :func:`linear_set`,
:func:`prior_set`).  The problem compiles each set into exactly one batch
(:attr:`JointProblem.batches`), a :class:`Se2Batch` or :class:`LinearBatch`,
in the group's set order and the set's row order.  Each kind has this one
residual and Jacobian formula; :func:`residual` evaluates one set.  A batch
of k rows gives residuals ``(k, m)``, Jacobians ``(k, m, D)`` over its D
connected tangent coordinates (:meth:`Batch.jacobian`), its costs and
gradient terms at a weight (:meth:`Batch.gradient_terms`), and each
coordinate's position in the active tangent (:attr:`Batch.positions`,
compiled once).  Positions are laid out row-major (all of row i's before row
i+1's) because assembly adds terms in that order: summed in row order, a
k-row set linearizes bit for bit like the same rows as k one-row sets.  From
the positions, :attr:`JointProblem.hessian_pattern` compiles once per
problem one CSC structure of the sparse Hessian, in a fill-reducing order of
the blocks.

The relative-pose kernel (:func:`_batch_relative_se2`) is one fused pass:
it forms ``b^-1 . a . z`` in closed form from the point's cached pose trig
(:attr:`ManifoldPoint.pose_trig`), wraps the relative angle once, and takes
one half-angle sine and cosine per row, which its Jacobians reuse.  It
returns the Jacobians as their eight distinct entry arrays, from which
:class:`Se2Batch` forms the gradient terms without the dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable

import numpy as np

from .covariance import (
    WishartPrior,
    cholesky_or_none,
    symmetrize,
)
from .manifold import (
    _CUT_LOCUS_TOL,
    SMALL_ANGLE,
    ActiveIndex,
    CutLocusError,
    ManifoldPoint,
    ManifoldSpec,
    wrap_angle,
)

# Residual kinds.
LINEAR_GAUSSIAN = "linear_gaussian"
RELATIVE_SE2 = "relative_se2"

# Noise-group variants: estimator (map / ml / fixed) x constraint set.
VARIANTS = (
    "map", "map-diag", "map-eig", "map-diag-eig",
    "ml", "ml-diag", "ml-eig", "ml-diag-eig",
    "fixed",
)

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


def check_cap(name: str, value) -> None:
    """Reject a count that is not an int >= 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def _read_only(values, dtype, shape=None) -> np.ndarray:
    """``values`` as a read-only array (of ``shape``); writable input is copied."""
    out = np.asarray(values, dtype=dtype)
    out = out if shape is None else out.reshape(shape)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


def _id_array(ids) -> np.ndarray:
    """Block ids as a read-only array.  A sequence that numpy would change
    (mixed types become strings, tuple ids a second axis) is kept as objects."""
    out = np.asarray(ids)
    if (out.ndim and not isinstance(ids, np.ndarray)
            and (out.ndim != 1 or out.tolist() != list(ids))):
        out = np.fromiter(ids, dtype=object, count=len(ids))
    return _read_only(out, None)


@dataclass(frozen=True, eq=False)
class FactorSet:
    """k measurements of one residual kind in one noise group.

    ``blocks`` names the connected blocks: a relative-pose set's id arrays
    ``(a, b)``, ``(k,)`` each (row i measures block ``b[i]`` relative to
    block ``a[i]``), or the one tuple of block ids that every row of a
    linear set connects.  ``z`` ``(k, m)`` holds the measurements and ``H``
    ``(k, m, d)`` a linear set's observation matrices over its stacked
    blocks.  The optional ``preprocess_jacobian`` ``(k, m, m)`` is each
    row's (state-independent) Jacobian of a measurement-space transformation
    applied upstream; its inverse maps the row's residual back to
    raw-measurement space before the sample covariance is formed.  Arrays
    are kept read-only (writable input is copied).  A set checks its shapes,
    finiteness, preprocessing condition numbers and self-loops once,
    vectorized, and an error names the set and the first bad row.
    """

    kind: str
    blocks: tuple
    z: np.ndarray
    group_id: Hashable
    H: np.ndarray | None = None
    preprocess_jacobian: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR_GAUSSIAN, RELATIVE_SE2):
            raise ValueError(f"unknown residual kind {self.kind!r}")
        z = self._keep("z", _read_only(self.z, float))
        if z.ndim != 2 or not len(z):
            raise self._error(f"measurements of shape {z.shape}, not (k, m) with k >= 1")
        k, m = z.shape
        bad = ~np.isfinite(z).all(axis=1)
        if self.kind == RELATIVE_SE2:
            a, b = self._keep("blocks", tuple(_id_array(ids) for ids in self.blocks))
            if m != 3 or a.shape != (k,) or b.shape != (k,):
                raise self._error("needs pose ids (k,) and measurements (k, 3)")
            loops = np.flatnonzero(a == b)
            if len(loops):
                r = int(loops[0])
                raise self._error(f"relative pose of block {a[r:r + 1].tolist()[0]!r} "
                                  "to itself", r)
        else:
            blocks = self.blocks
            self._keep("blocks", (blocks,) if isinstance(blocks, (str, int)) else tuple(blocks))
            H = self._keep("H", _read_only(self.H, float))
            if H.ndim != 3 or H.shape[:2] != (k, m):
                raise self._error(f"observation matrices of shape {H.shape}, not "
                                  f"(k, m, d) with (k, m) = {(k, m)}")
            bad |= ~np.isfinite(H).all(axis=(1, 2))
        self._check(bad, "non-finite values")
        if self.preprocess_jacobian is not None:
            J = self._keep("preprocess_jacobian", _read_only(self.preprocess_jacobian, float))
            if J.shape != (k, m, m):
                raise self._error(f"preprocessing Jacobians of shape {J.shape}, not {(k, m, m)}")
            self._check(~np.isfinite(J).all(axis=(1, 2)),
                        "preprocessing Jacobian has non-finite values")
            self._check(np.linalg.cond(J) >= _MAX_PREPROCESS_COND,
                        "preprocessing Jacobian is numerically rank deficient")

    def _keep(self, name, value):
        object.__setattr__(self, name, value)
        return value

    def _error(self, message: str, row: int | None = None) -> ValueError:
        where = "" if row is None else f", row {row}"
        return ValueError(f"{self.kind} set of group {self.group_id!r}{where}: {message}")

    def _check(self, bad: np.ndarray, message: str):
        """Raise ``message`` for the first row where ``bad`` is set."""
        rows = np.flatnonzero(bad)
        if len(rows):
            raise self._error(message, int(rows[0]))

    def __len__(self) -> int:
        return len(self.z)

    @property
    def m(self) -> int:
        """Residual dimension."""
        return self.z.shape[1]

    def compile(self, spec: ManifoldSpec, index: ActiveIndex) -> "Batch":
        """This set's one batch, positioned in the active tangent ``index``."""
        cls = Se2Batch if self.kind == RELATIVE_SE2 else LinearBatch
        return cls.compile(spec, index, self)


def linear_set(blocks, H, z, group_id, preprocess_jacobian=None) -> FactorSet:
    """Rows ``r_i(x) = z_i - H_i x`` over the stacked Euclidean ``blocks``
    (one id or a tuple), with Jacobians ``-H_i``."""
    return FactorSet(LINEAR_GAUSSIAN, blocks, z, group_id, H=H,
                     preprocess_jacobian=preprocess_jacobian)


def prior_set(block, z, group_id) -> FactorSet:
    """Rows ``r_i(x) = z_i - x_block``: a linear set with ``H_i = I``."""
    z = _read_only(z, float)
    return linear_set(block, np.broadcast_to(np.eye(z.shape[-1]), z.shape + z.shape[-1:]),
                      z, group_id)


def relative_se2_set(a, b, z, group_id, preprocess_jacobian=None) -> FactorSet:
    """Rows ``r_i(x) = log((a_i^-1 b_i)^-1 . z_i)`` for the measured pose
    ``z_i`` of block ``b_i`` relative to block ``a_i``; no row may connect a
    block to itself (its residual would ignore x)."""
    return FactorSet(RELATIVE_SE2, (a, b), z, group_id,
                     preprocess_jacobian=preprocess_jacobian)


@dataclass(frozen=True, eq=False)
class NoiseGroup:
    """One measurement type: residual dimension, variant, prior, bounds.

    ``m`` is an int >= 1.  ``information`` is the ``fixed`` variant's weight
    (defaults to identity); an estimated group takes none, since every
    driver starts from the P update at its start.  Eigenvalue-constrained
    variants require ``bounds = (lam_min, lam_max)`` with ``lam_max >=
    lam_min > 0``; MAP variants require a Wishart prior.
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
        check_cap(f"group {self.group_id!r}: m", self.m)
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
        if estimator != "fixed":
            if self.information is not None:
                raise ValueError(f"group {self.group_id!r}: only the fixed variant takes "
                                 f"an information matrix, not {self.variant!r}")
            return
        P = symmetrize(np.eye(self.m) if self.information is None else self.information)
        if P.shape != (self.m, self.m):
            raise ValueError("information matrix shape does not match m")
        if not np.all(np.isfinite(P)):
            raise ValueError(f"group {self.group_id!r}: information matrix is not finite")
        if cholesky_or_none(P) is None:
            raise ValueError("information matrix must be positive definite")
        object.__setattr__(self, "information", P)

    @property
    def estimator(self) -> str:
        return variant_parts(self.variant)[0]

    @property
    def constraint(self) -> str:
        return variant_parts(self.variant)[1]


@dataclass(frozen=True, eq=False)
class JointProblem:
    """Factor sets + manifold + noise groups + gauge; what every solver consumes.

    Construction checks each set against the manifold and its group and
    compiles it into one batch.  ``batches`` maps a group id to its sets'
    batches, in set order; ``group_sizes`` to its number of rows; and
    ``preprocess_inverses`` to the (rows, stacked inverses) of its rows that
    carry a preprocessing Jacobian, or None when none does.
    """

    manifold: ManifoldSpec
    factors: tuple[FactorSet, ...]
    groups: tuple[NoiseGroup, ...]
    gauge_fixed: frozenset = frozenset()
    batches: dict = field(init=False, repr=False)
    group_sizes: dict = field(init=False, repr=False)
    preprocess_inverses: dict = field(init=False, repr=False)

    def __post_init__(self):
        keep = object.__setattr__
        keep(self, "factors", tuple(self.factors))
        keep(self, "groups", tuple(self.groups))
        keep(self, "gauge_fixed", frozenset(self.gauge_fixed))
        by_id = {g.group_id: g for g in self.groups}
        if len(by_id) != len(self.groups):
            raise ValueError("group ids must be unique")
        for bid in self.gauge_fixed:
            if bid not in self.manifold.ids:
                raise ValueError(f"gauge-fixed block {bid!r} is not in the manifold")
        batches = {gid: [] for gid in by_id}
        sizes = dict.fromkeys(by_id, 0)
        inverses = {gid: [] for gid in by_id}
        for s in self.factors:
            g = by_id.get(s.group_id)
            if g is None:
                raise s._error(f"unknown group {s.group_id!r}")
            if s.m != g.m:
                raise s._error(f"residual dimension {s.m} != group m {g.m}")
            batches[s.group_id].append(s.compile(self.manifold, self.active_index))
            if s.preprocess_jacobian is not None:
                inverses[s.group_id].append((sizes[s.group_id] + np.arange(len(s)),
                                             np.linalg.inv(s.preprocess_jacobian)))
            sizes[s.group_id] += len(s)
        for gid, n in sizes.items():
            if n == 0:
                raise ValueError(f"group {gid!r} has no factors")
        keep(self, "batches", {gid: tuple(bs) for gid, bs in batches.items()})
        keep(self, "group_sizes", sizes)
        keep(self, "preprocess_inverses", {
            gid: tuple(np.concatenate(parts) for parts in zip(*inv)) if inv else None
            for gid, inv in inverses.items()})

    def check_start(self, x: ManifoldPoint) -> ManifoldPoint:
        """``x``, if it lies on this problem's manifold; else a ValueError."""
        if x.spec != self.manifold:
            raise ValueError("the initial point lives on a different manifold spec")
        return x

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
    """One factor set compiled for stacked linearization (see the module
    docstring); each of its k rows is one factor.

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
    """A relative-pose set: ``ia`` and ``ib`` are the rows of the two
    connected poses in :attr:`ManifoldPoint.poses`, ``z`` the set's
    measurements ``(k, 3)``.  Its Jacobians are the kernel's eight entry
    arrays: :meth:`gradient_terms` forms ``u = W r``, the costs and ``J^T u``
    from them by whole-vector arithmetic, and :meth:`jacobian` expands them
    to dense ``(k, 3, 6)`` blocks for a Hessian build."""

    ia: np.ndarray
    ib: np.ndarray
    z: np.ndarray

    @classmethod
    def compile(cls, spec: ManifoldSpec, index: ActiveIndex, fs: FactorSet) -> "Se2Batch":
        # one lookup per id keeps mixed and tuple ids intact
        pa, pb = (spec.positions(ids.tolist()) for ids in fs.blocks)
        pose = np.append(spec.is_se2, False)  # position -1: unknown
        bad = np.flatnonzero(~pose[pa] | ~pose[pb])
        if len(bad):
            r = int(bad[0])
            side = int(pose[pa[r]])  # the first bad one
            bid = fs.blocks[side][r:r + 1].tolist()[0]
            raise fs._error(f"references unknown block {bid!r}" if (pa, pb)[side][r] < 0
                            else f"connects the non-SE(2) block {bid!r}", r)
        return cls((index.offsets[pa], index.offsets[pb]), (3, 3), index.dim,
                   spec.slots[pa], spec.slots[pb], fs.z)

    def residuals(self, x: ManifoldPoint) -> np.ndarray:
        return _batch_relative_se2(x, self.ia, self.ib, self.z, with_jacobians=False)[0]

    def linearize(self, x: ManifoldPoint):
        return _batch_relative_se2(x, self.ia, self.ib, self.z, with_jacobians=True)

    def jacobian(self, jac) -> np.ndarray:
        alpha, beta, j00, j10, j02, j12, j05, j15 = jac
        J = np.zeros((len(alpha), 3, 6))
        J[:, 0, 0], J[:, 1, 0] = j00, j10
        J[:, 0, 1], J[:, 1, 1] = -j10, j00
        J[:, 0, 2], J[:, 1, 2] = j02, j12
        J[:, 0, 3], J[:, 1, 3] = -alpha, beta
        J[:, 0, 4], J[:, 1, 4] = -beta, -alpha
        J[:, 0, 5], J[:, 1, 5] = j05, j15
        J[:, 2, 2], J[:, 2, 5] = 1.0, -1.0
        return J

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
    """A linear set, on distinct Euclidean blocks.

    ``cols`` are the blocks' entries in :attr:`ManifoldPoint.vector`, in the
    set's block order; ``J`` ``(k, m, d)``, read-only, holds the Jacobians,
    the negated observation matrices (``-I`` for a prior), and ``z``
    ``(k, m)`` the measurements, so the residuals are ``z + J x``.

    Every row sits on the same positions, so assembly sums the rows'
    terms, in row order, onto the accumulator's values at
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
    def compile(cls, spec: ManifoldSpec, index: ActiveIndex, fs: FactorSet) -> "LinearBatch":
        try:
            p = np.array([spec.position(bid) for bid in fs.blocks], dtype=np.intp)
        except KeyError as err:
            raise fs._error(f"references unknown block {err.args[0]!r}") from None
        if spec.is_se2[p].any():
            raise fs._error("connects an SE(2) block")
        dims = tuple(spec.dims[p].tolist())
        if fs.H.shape[2] != sum(dims):
            raise fs._error(f"does not fit its {sum(dims)} state entries")
        J = -fs.H
        J.setflags(write=False)
        return cls(tuple(np.full(len(fs), off) for off in index.offsets[p]), dims, index.dim,
                   np.concatenate([np.arange(s, s + d) for s, d in zip(spec.slots[p], dims)]),
                   J, fs.z)

    def residuals(self, x: ManifoldPoint) -> np.ndarray:
        # z - H x, bit for bit: negation is exact
        return self.z + self.J @ x.vector[self.cols]

    def linearize(self, x: ManifoldPoint):
        return self.residuals(x), self.J


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

    def matrix(self, terms: list):
        """``H[q][:, q]``, CSC, from each batch's ``(D, D)`` block terms,
        raveled factor-major, in assembly order (batches in turn) and summed
        in that order; terms of gauge-fixed blocks are dropped."""
        import scipy.sparse  # here, not at module level: it slows `import jointcov`

        n, nnz = len(self.indptr) - 1, len(self.indices)
        # one index buffer in bincount's own type, so it casts no copy
        scatter = np.empty(sum(t.size for t in terms), dtype=np.intp)
        at = 0
        for (first, row_slot, row_step), t in zip(self.heads, terms):
            np.add(first[:, row_slot, :], row_step[:, None],
                   out=scatter[at:at + t.size].reshape(len(first), len(row_step), -1))
            at += t.size
        terms = terms[0] if len(terms) == 1 else np.concatenate([np.zeros(0)] + terms)
        data = np.bincount(scatter, terms, minlength=nnz)[:nnz]
        return scipy.sparse.csc_matrix((data, self.indices, self.indptr),
                                       shape=(n, n), dtype=float)

    @classmethod
    def compile(cls, batches, index: ActiveIndex) -> "HessianPattern":
        n = index.dim
        starts = index.offsets[index.offsets < n]
        firsts = [np.stack(b.offsets, axis=1) for b in batches]  # (k, S)

        # order the blocks, then expand each block to its coordinates
        nb = len(starts)
        blocks = [np.searchsorted(starts, f) for f in firsts]  # gauge-fixed: nb
        block_keys = _sorted_unique(np.concatenate(
            [_pair_keys(b, b, nb).ravel() for b in blocks] + [np.arange(nb) * (nb + 1)]))
        block_order = fill_reducing_order(*_csc_arrays(block_keys[block_keys < nb * nb], nb))
        sizes = np.diff(starts, append=n)[block_order]
        order = np.repeat(starts[block_order] - (np.cumsum(sizes) - sizes), sizes) + np.arange(n)

        # each position's place in that order; gauge-fixed positions map to n
        rank = np.full(n + 1, n)
        rank[order] = np.arange(n)
        firsts = [rank[np.minimum(f, n)] for f in firsts]
        pos = [rank[np.minimum(b.positions, n)] for b in batches]
        keys = _sorted_unique(np.concatenate(
            [_pair_keys(p, p, n).ravel() for p in pos] + [np.arange(n) * (n + 1)]))
        keys = keys[keys < n * n]
        heads = tuple((np.searchsorted(keys, _pair_keys(f, p, n)).astype(np.int32),
                       np.repeat(np.arange(len(b.dims)), b.dims),
                       np.concatenate([np.arange(d, dtype=np.int32) for d in b.dims]))
                      for b, f, p in zip(batches, firsts, pos))
        diagonal = np.searchsorted(keys, np.arange(n) * (n + 1)).astype(np.int32)
        return cls(*_csc_arrays(keys, n), diagonal, heads, order.astype(np.int32))


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``, sorting ``keys`` in place: a sort and a neighbour
    mask, where ``np.unique`` would take its hash path on integer keys, slower
    here and leaving its hash nodes resident."""
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


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


def residual(fs: FactorSet, x: ManifoldPoint) -> np.ndarray:
    """Residuals ``(k, m)`` of one factor set at x."""
    return fs.compile(x.spec, x.spec.ungauged_index).residuals(x)


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

    Rows carrying a preprocessing Jacobian contribute
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
