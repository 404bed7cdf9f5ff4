"""Product-manifold arithmetic for states built from Euclidean and SE(2) blocks.

Poses are stored as ``(x, y, theta)`` triples with ``theta`` wrapped into
``(-pi, pi]`` by :func:`wrap_angle`, which returns angles already in that
interval unchanged; homogeneous 3x3 matrices are never materialized.  The
SE(2) functions broadcast over leading axes, so a single pose has shape
``(3,)`` and a batch of ``n`` poses has shape ``(n, 3)``.

Tangent vectors are plain flat float arrays whose block layout is given by a
:class:`ManifoldSpec`.  A :class:`ManifoldPoint` stores its poses as one
``(n, 3)`` array and its Euclidean blocks as one vector, so ``boxplus`` (the
retraction: Euclidean addition / right composition with the SE(2)
exponential) and ``boxminus`` (its local inverse) are a few array
operations over all blocks at once.  A point computes the cosine and sine
of its pose angles once, lazily (:attr:`ManifoldPoint.pose_trig`); every
residual evaluation at the point and the retraction from it gather from
those arrays.  An :class:`ActiveIndex` lays out the tangent with
gauge-fixed blocks removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

EUCLIDEAN = "euclidean"
SE2 = "se2"

# Below this rotation magnitude, exp/log coefficients switch to their
# second-order Taylor expansions to avoid sin(w)/w style cancellation.
SMALL_ANGLE = 1e-7

# log_se2 refuses rotations this close to the cut locus at |theta| = pi.
_CUT_LOCUS_TOL = 1e-12

_TWO_PI = 2.0 * np.pi

# Flat tangent vector; length must equal ManifoldSpec.tangent_dim.
TangentVector = np.ndarray


class CutLocusError(ValueError):
    """The SE(2) log map was evaluated at a rotation of +/-pi.

    The logarithm is ill conditioned at the cut locus; callers must perturb
    or reject such inputs explicitly rather than rely on a silent fixup.
    """


def wrap_angle(theta):
    """Wrap angles into ``(-pi, pi]`` (elementwise) by whole turns.

    Angles already in ``(-pi, pi]`` come back unchanged, and ``-pi`` maps to
    ``pi``.  Rounding in the turn count ``ceil((theta - pi) / 2 pi)`` can
    leave a result just outside the interval (``nextafter(-pi, 0)`` would
    land one ulp above ``pi``); the two fix-ups move it back in.  This holds
    for ``|theta|`` up to about ``1e15``.  ``np.remainder`` would be exact
    everywhere but costs several times a cosine.
    """
    th = np.asarray(theta, dtype=float)
    out = th - _TWO_PI * np.ceil((th - np.pi) / _TWO_PI)
    out -= _TWO_PI * (out > np.pi)
    out += _TWO_PI * (out <= -np.pi)
    return out


def _exp_coeffs(w):
    """Return ``(sin w / w, (1 - cos w) / w)`` with a Taylor branch at w ~ 0.

    The second coefficient is evaluated as ``2 sin^2(w/2) / w``, which is
    free of the 1 - cos cancellation.
    """
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < SMALL_ANGLE
    ws = np.where(small, 1.0, w)
    half_sin = np.sin(0.5 * ws)
    a = np.where(small, 1.0 - w * w / 6.0, np.sin(ws) / ws)
    b = np.where(small, 0.5 * w, 2.0 * half_sin * half_sin / ws)
    return a, b


def _log_coeffs(th):
    """Return ``(alpha, beta)`` with ``V(th)^-1 = [[alpha, beta], [-beta, alpha]]``.

    ``alpha = (th/2) cot(th/2)`` evaluated in the cancellation-free form
    ``(th/2) cos(th/2) / sin(th/2)``; Taylor branch ``1 - th^2/12`` near zero.
    """
    th = np.asarray(th, dtype=float)
    small = np.abs(th) < SMALL_ANGLE
    ths = np.where(small, 1.0, th)
    half = 0.5 * ths
    alpha = np.where(small, 1.0 - th * th / 12.0, half * np.cos(half) / np.sin(half))
    return alpha, 0.5 * th


def se2_compose(a, b):
    """Compose two SE(2) poses (or broadcastable batches): ``a . b``."""
    a = np.asarray(a, dtype=float)
    return _compose(a, np.cos(a[..., 2]), np.sin(a[..., 2]), b)


def _compose(a, ca, sa, b):
    """:func:`se2_compose` given the cosine and sine of ``a``'s angles."""
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast(a, b).shape, dtype=float)
    out[..., 0] = a[..., 0] + ca * b[..., 0] - sa * b[..., 1]
    out[..., 1] = a[..., 1] + sa * b[..., 0] + ca * b[..., 1]
    out[..., 2] = wrap_angle(a[..., 2] + b[..., 2])
    return out


def se2_inverse(g):
    """Inverse pose(s): ``g^-1 . g = identity``."""
    g = np.asarray(g, dtype=float)
    c, s = np.cos(g[..., 2]), np.sin(g[..., 2])
    out = np.empty(g.shape, dtype=float)
    out[..., 0] = -(c * g[..., 0] + s * g[..., 1])
    out[..., 1] = -(-s * g[..., 0] + c * g[..., 1])
    out[..., 2] = wrap_angle(-g[..., 2])
    return out


def exp_se2(xi):
    """SE(2) exponential of tangent triple(s) ``(vx, vy, w)``.

    Closed form ``t = V(w) rho`` with
    ``V(w) = [[sin w / w, -(1-cos w)/w], [(1-cos w)/w, sin w / w]]``;
    the ``w = 0`` limit is handled by a Taylor branch.
    """
    xi = np.asarray(xi, dtype=float)
    a, b = _exp_coeffs(xi[..., 2])
    out = np.empty(xi.shape, dtype=float)
    out[..., 0] = a * xi[..., 0] - b * xi[..., 1]
    out[..., 1] = b * xi[..., 0] + a * xi[..., 1]
    out[..., 2] = wrap_angle(xi[..., 2])
    return out


def log_se2(g):
    """SE(2) logarithm; inverse of :func:`exp_se2` on ``|theta| < pi``.

    Raises:
        CutLocusError: if any rotation angle is within ``1e-12`` of ``+/-pi``.
    """
    g = np.asarray(g, dtype=float)
    th = wrap_angle(g[..., 2])
    if np.any(np.abs(np.abs(th) - np.pi) < _CUT_LOCUS_TOL):
        raise CutLocusError("log_se2 at a rotation of +/-pi (cut locus)")
    alpha, beta = _log_coeffs(th)
    out = np.empty(g.shape, dtype=float)
    out[..., 0] = alpha * g[..., 0] + beta * g[..., 1]
    out[..., 1] = -beta * g[..., 0] + alpha * g[..., 1]
    out[..., 2] = th
    return out


@dataclass(frozen=True)
class Block:
    """One state block: either Euclidean of a given dimension or one SE(2) pose."""

    block_id: Hashable
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, SE2):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == SE2 and self.dim != 3:
            raise ValueError("SE2 blocks have tangent dimension 3")
        if self.dim < 1:
            raise ValueError("block dimension must be >= 1")


def euclidean_block(block_id: Hashable, dim: int) -> Block:
    return Block(block_id, EUCLIDEAN, int(dim))


def se2_block(block_id: Hashable) -> Block:
    return Block(block_id, SE2, 3)


@dataclass(frozen=True)
class ManifoldSpec:
    """Ordered declaration of the product manifold's blocks.

    The tangent dimension is the sum of Euclidean dimensions plus 3 per
    SE(2) block; block ids must be unique.  Tangent vectors follow the
    declared (interleaved) block order, while a :class:`ManifoldPoint`
    stores all poses in one array and all Euclidean entries in another; the
    spec holds the index maps between the two layouts.
    """

    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        ids = [b.block_id for b in self.blocks]
        if len(set(ids)) != len(ids):
            raise ValueError("block ids must be unique")

    @cached_property
    def tangent_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @cached_property
    def _offsets(self) -> dict:
        offsets, pos = {}, 0
        for b in self.blocks:
            offsets[b.block_id] = pos
            pos += b.dim
        return offsets

    @cached_property
    def _by_id(self) -> dict:
        return {b.block_id: b for b in self.blocks}

    @cached_property
    def _positions(self) -> dict:
        return {b.block_id: i for i, b in enumerate(self.blocks)}

    @cached_property
    def pose_rows(self) -> dict:
        """SE(2) block id -> its row of :attr:`ManifoldPoint.poses`."""
        se2_ids = [b.block_id for b in self.blocks if b.kind == SE2]
        return {bid: row for row, bid in enumerate(se2_ids)}

    @cached_property
    def pose_tangent_index(self) -> np.ndarray:
        """``(n_se2, 3)`` tangent indices of each pose's ``(vx, vy, w)``."""
        idx = [range(self._offsets[bid], self._offsets[bid] + 3) for bid in self.pose_rows]
        return np.array(idx, dtype=np.intp).reshape(-1, 3)

    @cached_property
    def vector_tangent_index(self) -> np.ndarray:
        """Tangent indices of :attr:`ManifoldPoint.vector`, entry by entry."""
        slices = [self.tangent_slice(b.block_id) for b in self.blocks if b.kind == EUCLIDEAN]
        return np.array([i for sl in slices for i in range(sl.start, sl.stop)], dtype=np.intp)

    @cached_property
    def _storage(self) -> tuple:
        """Per block: True and its pose row, or False and its vector slice."""
        out, pos = [], 0
        for b in self.blocks:
            if b.kind == SE2:
                out.append((True, self.pose_rows[b.block_id]))
            else:
                out.append((False, slice(pos, pos + b.dim)))
                pos += b.dim
        return tuple(out)

    @cached_property
    def ungauged_index(self) -> "ActiveIndex":
        """Tangent indexing of every block (no gauge), built once per spec."""
        return ActiveIndex.build(self, frozenset())

    def block(self, block_id: Hashable) -> Block:
        return self._by_id[block_id]

    def position(self, block_id: Hashable) -> int:
        return self._positions[block_id]

    def tangent_slice(self, block_id: Hashable) -> slice:
        off = self._offsets[block_id]
        return slice(off, off + self._by_id[block_id].dim)

    def identity(self) -> "ManifoldPoint":
        """The origin: zero vectors and identity poses."""
        return ManifoldPoint._from_arrays(
            self, np.zeros((len(self.pose_rows), 3)),
            np.zeros(len(self.vector_tangent_index)))


@dataclass(frozen=True, eq=False)
class ActiveIndex:
    """Tangent indexing with gauge-fixed blocks removed.

    ``offsets`` maps a block id, and ``pose_offsets`` a pose row, to its
    offset in the active tangent of dimension ``dim``; a gauge-fixed block's
    offset is ``dim``, so its coordinates fall past the active tangent (and
    below ``full_dim``).  ``full_index`` holds each active coordinate's index
    in the full tangent.
    """

    offsets: dict
    pose_offsets: np.ndarray
    full_index: np.ndarray
    full_dim: int

    @classmethod
    def build(cls, spec: ManifoldSpec, gauge_fixed: frozenset) -> "ActiveIndex":
        """Index the blocks of ``spec`` that are not in ``gauge_fixed``."""
        offsets, full = {}, []
        for b in spec.blocks:
            if b.block_id not in gauge_fixed:
                offsets[b.block_id] = len(full)
                sl = spec.tangent_slice(b.block_id)
                full.extend(range(sl.start, sl.stop))
        offsets = {b.block_id: offsets.get(b.block_id, len(full)) for b in spec.blocks}
        pose_offsets = np.array([offsets[bid] for bid in spec.pose_rows], dtype=np.intp)
        return cls(offsets, pose_offsets, np.array(full, dtype=np.intp), spec.tangent_dim)

    @property
    def dim(self) -> int:
        return len(self.full_index)

    def scatter(self, delta: np.ndarray) -> np.ndarray:
        """Embed an active-tangent step into the full tangent space."""
        v = np.zeros(self.full_dim)
        v[self.full_index] = delta
        return v



class ManifoldPoint:
    """Immutable point on a :class:`ManifoldSpec`.

    Stored as two read-only arrays: ``poses``, shape ``(n_se2, 3)``, with
    one ``(x, y, theta)`` row per SE(2) block in declaration order and the
    angle wrapped into ``(-pi, pi]``, and ``vector``, the Euclidean blocks'
    entries concatenated in declaration order.

    ``ManifoldPoint(spec, values)`` is the validating constructor for
    outside input: one array per block, in block order.  ``values`` gives
    them back as read-only views.  :meth:`from_arrays` validates the stored
    layout instead, in one vectorized pass.
    """

    def __init__(self, spec: ManifoldSpec, values: Sequence):
        values = tuple(values)
        if len(values) != len(spec.blocks):
            raise ValueError("value count does not match block count")
        poses = np.empty((len(spec.pose_rows), 3))
        vector = np.empty(len(spec.vector_tangent_index))
        for blk, (is_pose, where), val in zip(spec.blocks, spec._storage, values):
            v = np.asarray(val, dtype=float).reshape(-1)
            if v.shape != (blk.dim,):
                raise ValueError(
                    f"block {blk.block_id!r} expects shape ({blk.dim},), got {v.shape}"
                )
            if not np.all(np.isfinite(v)):
                raise ValueError(f"block {blk.block_id!r} has non-finite values {v}")
            if is_pose:
                poses[where] = v
            else:
                vector[where] = v
        poses[:, 2] = wrap_angle(poses[:, 2])
        self._set(spec, poses, vector)

    @classmethod
    def from_arrays(cls, spec: ManifoldSpec, poses, vector=()) -> "ManifoldPoint":
        """Validating constructor from the stored layout: ``poses``
        ``(n_se2, 3)`` and the Euclidean ``vector``, copied, with the angles
        wrapped as ``ManifoldPoint(spec, values)`` wraps them.  A non-finite
        entry raises the per-block constructor's error for the first bad block.
        """
        poses = np.array(poses, dtype=float)
        vector = np.array(vector, dtype=float)
        for name, arr, shape in (("poses", poses, (len(spec.pose_rows), 3)),
                                 ("vector", vector, (len(spec.vector_tangent_index),))):
            if arr.shape != shape:
                raise ValueError(f"{name} expects shape {shape}, got {arr.shape}")
        if not (np.isfinite(poses).all() and np.isfinite(vector).all()):
            for blk, (is_pose, where) in zip(spec.blocks, spec._storage):
                v = poses[where] if is_pose else vector[where]
                if not np.all(np.isfinite(v)):
                    raise ValueError(f"block {blk.block_id!r} has non-finite values {v}")
        poses[:, 2] = wrap_angle(poses[:, 2])
        return cls._from_arrays(spec, poses, vector)

    @classmethod
    def _from_arrays(cls, spec: ManifoldSpec, poses: np.ndarray,
                     vector: np.ndarray) -> "ManifoldPoint":
        """Unchecked constructor for arrays this module computed and owns."""
        x = cls.__new__(cls)
        x._set(spec, poses, vector)
        return x

    def _set(self, spec, poses, vector):
        poses.setflags(write=False)
        vector.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "vector", vector)

    def __setattr__(self, name, value):
        raise AttributeError("ManifoldPoint is immutable")

    @cached_property
    def pose_trig(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(cos, sin)`` of the pose angles, each ``(n_se2,)``:
        computed once per point, and gathered by every evaluation at it."""
        trig = np.cos(self.poses[:, 2]), np.sin(self.poses[:, 2])
        for t in trig:
            t.setflags(write=False)
        return trig

    @cached_property
    def values(self) -> tuple[np.ndarray, ...]:
        """Read-only view of each block, in block order."""
        return tuple(self.poses[i] if is_pose else self.vector[i]
                     for is_pose, i in self.spec._storage)

    def block(self, block_id: Hashable) -> np.ndarray:
        """Read-only view of one block's value."""
        return self.values[self.spec.position(block_id)]


def boxplus(x: ManifoldPoint, v: Sequence[float]) -> ManifoldPoint:
    """Retraction: Euclidean blocks add, SE(2) blocks compose with ``exp_se2``."""
    v = np.asarray(v, dtype=float)
    spec = x.spec
    if v.shape != (spec.tangent_dim,):
        raise ValueError(
            f"tangent vector has length {v.shape}, expected ({spec.tangent_dim},)"
        )
    poses = x.poses
    if len(poses):
        poses = _compose(poses, *x.pose_trig, exp_se2(v[spec.pose_tangent_index]))
    return ManifoldPoint._from_arrays(spec, poses, x.vector + v[spec.vector_tangent_index])


def boxminus(z: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
    """Local inverse of :func:`boxplus`: ``boxminus(boxplus(y, v), y) = v``.

    Euclidean blocks subtract; SE(2) blocks return ``log_se2(y^-1 . z)``.
    Raises :class:`CutLocusError` if a relative rotation lands on the cut
    locus.
    """
    spec = z.spec
    if spec is not y.spec and spec != y.spec:
        raise ValueError("points live on different manifold specs")
    out = np.empty(spec.tangent_dim)
    out[spec.pose_tangent_index] = log_se2(se2_compose(se2_inverse(y.poses), z.poses))
    out[spec.vector_tangent_index] = z.vector - y.vector
    return out
