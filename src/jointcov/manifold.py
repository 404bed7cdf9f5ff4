"""Product-manifold arithmetic for states built from Euclidean and SE(2) blocks.

Poses are stored as ``(x, y, theta)`` triples with ``theta`` wrapped into
``(-pi, pi]`` by :func:`wrap_angle`, which returns angles already in that
interval unchanged; homogeneous 3x3 matrices are never materialized.  The
SE(2) functions broadcast over leading axes, so a single pose has shape
``(3,)`` and a batch of ``n`` poses has shape ``(n, 3)``.

Tangent vectors are plain flat float arrays whose block layout is given by
the columns of a :class:`ManifoldSpec`.  A :class:`ManifoldPoint` stores its poses as one
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
from typing import Hashable, Iterable, NamedTuple, Sequence

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


class Block(NamedTuple):
    """One declared state block: Euclidean of a given dimension or one SE(2) pose."""

    block_id: Hashable
    kind: str
    dim: int


def euclidean_block(block_id: Hashable, dim: int) -> Block:
    return Block(block_id, EUCLIDEAN, dim)


def se2_block(block_id: Hashable) -> Block:
    return Block(block_id, SE2, 3)


class ManifoldSpec:
    """Ordered declaration of the product manifold's blocks, held as columns.

    ``ids`` is the tuple of unique block ids; ``dims``, ``is_se2`` (SE(2) or
    Euclidean) and ``offsets`` (in the tangent of dimension ``tangent_dim``)
    are arrays by block position (:meth:`position`).  Tangent vectors follow
    the declared (interleaved) block order, while a :class:`ManifoldPoint`
    stores all poses in one array and all Euclidean entries in another;
    ``slots`` and the tangent index arrays map between the two layouts.
    ``ManifoldSpec(blocks)`` takes :func:`euclidean_block` and
    :func:`se2_block` declarations, :meth:`from_arrays` the columns.  Specs
    are equal when their ids, kinds and dimensions are.
    """

    def __init__(self, blocks: Iterable[Block]):
        self._set(*(tuple(zip(*blocks)) or ((), (), ())))

    @classmethod
    def from_arrays(cls, ids, kinds, dims) -> "ManifoldSpec":
        """The spec of blocks ``ids[i]`` of kind ``kinds[i]`` and tangent
        dimension ``dims[i]``, checked in one vectorized pass."""
        spec = cls.__new__(cls)
        spec._set(ids, kinds, dims)
        return spec

    def _set(self, ids, kinds, dims):
        ids, kinds, given, dims = tuple(ids), np.asarray(kinds), dims, np.asarray(dims)
        if not len(ids) == len(kinds) == len(dims) or kinds.ndim != 1 or dims.ndim != 1:
            raise ValueError("ids, kinds and dims must be sequences of one length")
        is_se2 = kinds == SE2
        unknown = np.flatnonzero(~is_se2 & (kinds != EUCLIDEAN))
        if len(unknown):
            raise ValueError(f"unknown block kind {kinds[unknown[:1]].tolist()[0]!r}")
        if len(dims) and (dims.dtype.kind not in "iu" or not isinstance(given, np.ndarray)
                          and {bool, np.bool_} & set(map(type, given))):
            raise ValueError("block dimension must be an integer")
        if np.any(is_se2 & (dims != 3)):
            raise ValueError("SE2 blocks have tangent dimension 3")
        if np.any(dims < 1):
            raise ValueError("block dimension must be >= 1")
        if len(set(ids)) != len(ids):
            raise ValueError("block ids must be unique")
        dims = dims.astype(np.intp)
        offsets = np.cumsum(dims) - dims
        for column in (dims, is_se2, offsets):
            column.setflags(write=False)
        self.__dict__.update(ids=ids, dims=dims, is_se2=is_se2, offsets=offsets,
                             tangent_dim=int(dims.sum()))

    def __setattr__(self, name, value):
        raise AttributeError("ManifoldSpec is immutable")

    def __eq__(self, other):
        if not isinstance(other, ManifoldSpec):
            return NotImplemented
        return self is other or (self.ids == other.ids
                                 and np.array_equal(self.dims, other.dims)
                                 and np.array_equal(self.is_se2, other.is_se2))

    @cached_property
    def _positions(self) -> dict:
        return dict(zip(self.ids, range(len(self.ids))))

    def position(self, block_id: Hashable) -> int:
        """A block's position in declaration order, from a map built on the
        first lookup; KeyError if the spec does not declare it."""
        return self._positions[block_id]

    def positions(self, block_ids: Iterable[Hashable]) -> np.ndarray:
        """The positions of ``block_ids``, one lookup per id (so any hashable
        id works), with ``-1`` for an id the spec does not declare."""
        lookup = self._positions
        return np.fromiter((lookup.get(bid, -1) for bid in block_ids), np.intp)

    @cached_property
    def slots(self) -> np.ndarray:
        """Each block's row of :attr:`ManifoldPoint.poses` (SE(2)) or first
        entry in :attr:`ManifoldPoint.vector` (Euclidean)."""
        vector_dims = np.where(self.is_se2, 0, self.dims)
        return np.where(self.is_se2, np.cumsum(self.is_se2) - 1,
                        np.cumsum(vector_dims) - vector_dims)

    @cached_property
    def pose_tangent_index(self) -> np.ndarray:
        """``(n_se2, 3)`` tangent indices of each pose's ``(vx, vy, w)``."""
        return np.flatnonzero(np.repeat(self.is_se2, self.dims)).reshape(-1, 3)

    @cached_property
    def vector_tangent_index(self) -> np.ndarray:
        """Tangent indices of :attr:`ManifoldPoint.vector`, entry by entry."""
        return np.flatnonzero(np.repeat(~self.is_se2, self.dims))

    @cached_property
    def ungauged_index(self) -> "ActiveIndex":
        """Tangent indexing of every block (no gauge), built once per spec."""
        return ActiveIndex.build(self, frozenset())


@dataclass(frozen=True, eq=False)
class ActiveIndex:
    """Tangent indexing with gauge-fixed blocks removed.

    ``offsets`` holds, by block position, each block's offset in the active
    tangent of dimension ``dim``; a gauge-fixed block's offset is ``dim``, so
    its coordinates fall past the active tangent (and below ``full_dim``).
    ``full_index`` holds each active coordinate's index in the full tangent.
    """

    offsets: np.ndarray
    full_index: np.ndarray
    full_dim: int

    @classmethod
    def build(cls, spec: ManifoldSpec, gauge_fixed: frozenset) -> "ActiveIndex":
        """Index the blocks of ``spec`` that are not in ``gauge_fixed``;
        KeyError for a gauge-fixed id that ``spec`` does not declare."""
        fixed = np.zeros(len(spec.ids), dtype=bool)
        fixed[[spec.position(bid) for bid in gauge_fixed]] = True
        active_dims = np.where(fixed, 0, spec.dims)
        full = np.flatnonzero(np.repeat(~fixed, spec.dims))
        return cls(np.where(fixed, len(full), np.cumsum(active_dims) - active_dims),
                   full, spec.tangent_dim)

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
    outside input: one array per block, in block order.  :meth:`block`
    gives one back as a read-only view.  :meth:`from_arrays` validates the
    stored layout instead, in one vectorized pass.
    """

    def __init__(self, spec: ManifoldSpec, values: Sequence):
        values = tuple(values)
        if len(values) != len(spec.ids):
            raise ValueError("value count does not match block count")
        flat = [np.zeros(0)]
        for bid, dim, val in zip(spec.ids, spec.dims.tolist(), values):
            v = np.asarray(val, dtype=float).reshape(-1)
            if v.shape != (dim,):
                raise ValueError(f"block {bid!r} expects shape ({dim},), got {v.shape}")
            flat.append(v)
        self._set(spec, *_split(spec, np.concatenate(flat)))

    @classmethod
    def from_arrays(cls, spec: ManifoldSpec, poses, vector=()) -> "ManifoldPoint":
        """Validating constructor from the stored layout: ``poses``
        ``(n_se2, 3)`` and the Euclidean ``vector``, copied, with the angles
        wrapped as ``ManifoldPoint(spec, values)`` wraps them.  A non-finite
        entry raises the per-block constructor's error for the first bad block.
        """
        poses = np.asarray(poses, dtype=float)
        vector = np.asarray(vector, dtype=float)
        for name, arr, shape in (("poses", poses, (len(spec.pose_tangent_index), 3)),
                                 ("vector", vector, (len(spec.vector_tangent_index),))):
            if arr.shape != shape:
                raise ValueError(f"{name} expects shape {shape}, got {arr.shape}")
        flat = np.empty(spec.tangent_dim)
        flat[spec.pose_tangent_index] = poses
        flat[spec.vector_tangent_index] = vector
        return cls._from_arrays(spec, *_split(spec, flat))

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

    def block(self, block_id: Hashable) -> np.ndarray:
        """Read-only view of one block's value."""
        spec = self.spec
        p = spec.position(block_id)
        slot = spec.slots[p]
        return self.poses[slot] if spec.is_se2[p] else self.vector[slot:slot + spec.dims[p]]


def _split(spec: ManifoldSpec, flat: np.ndarray):
    """A point's ``(poses, vector)`` from its values in tangent layout, the
    angles wrapped; raises for the first block with a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(flat))
    if len(bad):
        p = np.searchsorted(spec.offsets, bad[0], side="right") - 1
        off = spec.offsets[p]
        raise ValueError(f"block {spec.ids[p]!r} has non-finite values "
                         f"{flat[off:off + spec.dims[p]]}")
    poses = flat[spec.pose_tangent_index]
    poses[:, 2] = wrap_angle(poses[:, 2])
    return poses, flat[spec.vector_tangent_index]


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
    if spec != y.spec:
        raise ValueError("points live on different manifold specs")
    out = np.empty(spec.tangent_dim)
    out[spec.pose_tangent_index] = log_se2(se2_compose(se2_inverse(y.poses), z.poses))
    out[spec.vector_tangent_index] = z.vector - y.vector
    return out
