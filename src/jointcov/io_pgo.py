"""Pose-graph dataset handling: g2o-style SE(2) text files, spanning-tree
initialization, odometry/loop-closure classification, and synthetic
Manhattan-style dataset generation with controllable noise.

A :class:`PoseGraph2D` is columnar: a pose array and one read-only array
per edge field.  The generator and the parser build those arrays, and
:func:`spanning_tree_init`, :func:`pose_graph_problem` and the writer read them;
:attr:`PoseGraph2D.edges` makes an :class:`Edge` record only when one is
asked for.  The graphs of ``n`` vertices share one :func:`pose_manifold`
spec, built from its columns without a per-pose object.  Loop-closure
candidates come from a grid hash (:func:`_near_pairs`), not a k-d tree.

Supported tags: ``VERTEX_SE2 id x y theta`` and
``EDGE_SE2 i j dx dy dtheta q11 q12 q13 q22 q23 q33`` (upper-triangular
information, row-major).  Unknown tags are skipped with a warning.  Edge
class is inferred from the index gap on the ids as written in the file
(|i - j| = 1 is odometry, anything else a loop closure) unless an explicit
class table is supplied.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from io import StringIO
from typing import Iterable, Mapping, NamedTuple, TextIO

import numpy as np

from .manifold import (
    SE2,
    ManifoldPoint,
    ManifoldSpec,
    exp_se2,
    se2_compose,
    se2_inverse,
)
from .problem import JointProblem, NoiseGroup, _read_only, relative_se2_set

ODOMETRY = "odometry"
LOOP = "loop"

EDGE_KINDS = (ODOMETRY, LOOP)
_KIND_CODE = {kind: code for code, kind in enumerate(EDGE_KINDS)}


class GraphFormatError(ValueError):
    pass


class GraphConnectivityError(ValueError):
    pass


def counter_rng(*key_parts: int) -> np.random.Generator:
    """Seedable counter-based generator (Philox) for reproducible sampling."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key_parts))))


class Edge(NamedTuple):
    """One edge of a :class:`PoseGraph2D`, as :attr:`PoseGraph2D.edges`
    hands it out: ``z`` and ``information`` are read-only rows of the
    graph's arrays."""

    i: int
    j: int
    z: np.ndarray              # relative pose (dx, dy, dtheta)
    information: np.ndarray    # 3x3 symmetric PSD
    kind: str = ODOMETRY


class PoseGraph2D:
    """Vertex poses and relative-pose edges, one read-only array per field.

    ``poses`` ``(n, 3)`` holds vertex v's pose in row v.  Edge e joins
    vertices ``i[e]`` and ``j[e]`` (``(k,)`` each) by the measured pose
    ``z[e]`` of j relative to i (``(k, 3)``), with the information matrix
    ``information[e]`` (``(k, 3, 3)``) and the class ``EDGE_KINDS[kind[e]]``
    (``kind`` ``(k,)`` int8).  The constructor takes the arrays as they
    are and copies only writable ones, so a read-only broadcast of one
    information matrix stays one matrix.
    """

    def __init__(self, poses, i, j, z, information, kind):
        self.poses = _read_only(poses, float, (-1, 3))
        self.i = _read_only(i, np.intp, (-1,))
        self.j = _read_only(j, np.intp, (-1,))
        self.z = _read_only(z, float, (-1, 3))
        self.information = _read_only(information, float, (-1, 3, 3))
        self.kind = _read_only(kind, np.int8, (-1,))
        if not (len(self.i) == len(self.j) == len(self.z) == len(self.information)
                == len(self.kind)):
            raise ValueError("edge arrays differ in length")

    @property
    def num_poses(self) -> int:
        return len(self.poses)

    @property
    def edges(self) -> "_EdgeView":
        """Every edge, in order, as a read-only sequence of :class:`Edge`."""
        return _EdgeView(self, range(len(self.i)))

    def edges_of_kind(self, kind: str) -> "_EdgeView":
        return _EdgeView(self, np.flatnonzero(self.kind == _KIND_CODE.get(kind, -1)))

    def _edge(self, e) -> Edge:
        return Edge(int(self.i[e]), int(self.j[e]), self.z[e], self.information[e],
                    EDGE_KINDS[self.kind[e]])


class _EdgeView:
    """Read-only sequence of a graph's edges ``index``, each an :class:`Edge`
    made when it is read."""

    __slots__ = ("_graph", "_index")

    def __init__(self, graph: PoseGraph2D, index):
        self._graph, self._index = graph, index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _EdgeView(self._graph, self._index[k])
        return self._graph._edge(self._index[k])

    def __iter__(self):
        return map(self._graph._edge, self._index)


def _require_finite(vals, lineno: int) -> None:
    if not all(np.isfinite(vals)):
        raise GraphFormatError(f"line {lineno}: non-finite value in {vals}")


# the rows and columns of q11 q12 q13 q22 q23 q33 in the information
# matrix, and each entry of the matrix (row-major) as an index into the six
_UPPER = ((0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2))
_FROM_UPPER = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def parse_g2o(source: str | TextIO, classes: Mapping | None = None) -> PoseGraph2D:
    """Parse g2o-style SE(2) text into a pose graph.

    ``classes`` optionally overrides edge classification: a mapping from
    ``(i, j)`` (original file ids) to ``"odometry"`` or ``"loop"``.
    Vertex ids are remapped to a dense 0..n-1 range (sorted order) if needed.
    Each line is checked as it is read; the information matrices, the
    vertex references and the classes once the whole file is read, each
    error naming the first bad line or edge.
    """
    stream = StringIO(source) if isinstance(source, str) else source
    poses: dict = {}
    edge_lines, edge_ends, edge_values = [], [], []
    for lineno, line in enumerate(stream, start=1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "VERTEX_SE2":
            if len(parts) != 5:
                raise GraphFormatError(f"line {lineno}: VERTEX_SE2 expects 4 fields")
            try:
                vid = int(parts[1])
                vals = [float(p) for p in parts[2:5]]
            except ValueError as err:
                raise GraphFormatError(f"line {lineno}: {err}") from None
            _require_finite(vals, lineno)
            if vid in poses:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {vid}")
            poses[vid] = vals
        elif tag == "EDGE_SE2":
            if len(parts) != 12:
                raise GraphFormatError(f"line {lineno}: EDGE_SE2 expects 11 fields")
            try:
                i, j = int(parts[1]), int(parts[2])
                vals = [float(p) for p in parts[3:12]]
            except ValueError as err:
                raise GraphFormatError(f"line {lineno}: {err}") from None
            if i == j:
                raise GraphFormatError(f"line {lineno}: self-loop edge on vertex {i}")
            _require_finite(vals, lineno)
            edge_lines.append(lineno)
            edge_ends.append((i, j))
            edge_values.append(vals)
        else:
            warnings.warn(f"line {lineno}: skipping unknown tag {tag!r}")

    values = np.array(edge_values, dtype=float).reshape(-1, 9)
    information = values[:, 3:][:, _FROM_UPPER].reshape(-1, 3, 3)
    scale = np.maximum(1.0, np.abs(information).max(axis=(1, 2)))
    not_psd = np.linalg.eigvalsh(information).min(axis=1) < -1e-9 * scale
    if not_psd.any():
        raise GraphFormatError(f"line {edge_lines[np.argmax(not_psd)]}: "
                               "information matrix is not positive semidefinite")

    for lineno, ends in zip(edge_lines, edge_ends):
        for v in ends:
            if v not in poses:
                raise GraphFormatError(f"line {lineno}: edge references missing vertex {v}")

    kinds = []
    for i, j in edge_ends:
        if classes is not None and (i, j) in classes:
            kind = classes[(i, j)]
            if kind not in EDGE_KINDS:
                raise GraphFormatError(f"unknown edge class {kind!r} for edge ({i}, {j})")
        else:
            kind = ODOMETRY if abs(i - j) == 1 else LOOP
        kinds.append(_KIND_CODE[kind])

    ids = sorted(poses)
    remap = {vid: n for n, vid in enumerate(ids)}
    return PoseGraph2D([poses[v] for v in ids], [remap[i] for i, _ in edge_ends],
                       [remap[j] for _, j in edge_ends], values[:, :3], information, kinds)


def parse_edge_classes(source: str | TextIO) -> dict:
    """Parse an edge-class override table: lines of ``i j odometry|loop``."""
    stream = StringIO(source) if isinstance(source, str) else source
    table = {}
    for lineno, line in enumerate(stream, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3 or parts[2] not in EDGE_KINDS:
            raise GraphFormatError(f"line {lineno}: expected 'i j odometry|loop'")
        table[(int(parts[0]), int(parts[1]))] = parts[2]
    return table


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_g2o(graph: PoseGraph2D) -> str:
    """Inverse of :func:`parse_g2o` on its image; 17 significant digits."""
    lines = [f"VERTEX_SE2 {v} {_fmt(x)} {_fmt(y)} {_fmt(th)}"
             for v, (x, y, th) in enumerate(graph.poses.tolist())]
    upper = graph.information[(slice(None), *_UPPER)]
    for i, j, z, q in zip(graph.i.tolist(), graph.j.tolist(), graph.z.tolist(),
                          upper.tolist()):
        lines.append(f"EDGE_SE2 {i} {j} " + " ".join(map(_fmt, z + q)))
    return "\n".join(lines) + "\n"


def load_g2o(path, classes_path=None) -> PoseGraph2D:
    classes = None
    if classes_path is not None:
        with open(classes_path) as fh:
            classes = parse_edge_classes(fh)
    with open(path) as fh:
        return parse_g2o(fh, classes=classes)


def save_g2o(graph: PoseGraph2D, path) -> None:
    with open(path, "w") as fh:
        fh.write(write_g2o(graph))


@lru_cache(maxsize=4)
def pose_manifold(num_poses: int) -> ManifoldSpec:
    """The spec of poses 0..num_poses-1, built from its columns; every graph,
    problem and point of one size shares it (the four last sizes are kept)."""
    return ManifoldSpec.from_arrays(range(num_poses), np.full(num_poses, SE2),
                                    np.full(num_poses, 3))


def graph_poses_point(graph: PoseGraph2D) -> ManifoldPoint:
    """The graph's stored vertex poses as a manifold point."""
    return ManifoldPoint.from_arrays(pose_manifold(graph.num_poses), graph.poses)


def spanning_tree_init(graph: PoseGraph2D) -> ManifoldPoint:
    """Breadth-first spanning-tree initialization rooted at vertex 0.

    The root is placed at the identity; every other pose composes its
    parent with the tree edge's measurement (inverted when the edge is
    traversed against its direction).  It is the tree a FIFO queue finds
    with each vertex's arcs in edge order, an edge's i side first: a vertex
    joins by the first arc that reaches it.  Each level is one composition.
    """
    n = graph.num_poses
    if n == 0:
        raise GraphConnectivityError("graph has no vertices")
    ij = np.column_stack([graph.i, graph.j])
    if ij.size and (ij.min() < 0 or ij.max() >= n):
        raise GraphFormatError(f"edge references a vertex outside 0..{n - 1}")
    # arc 2e leaves edge e's i side with z, arc 2e + 1 its j side with z^-1
    order = np.argsort(ij.ravel(), kind="stable")
    src, dst = ij.ravel()[order], ij[:, ::-1].ravel()[order]
    step = np.stack([graph.z, se2_inverse(graph.z)], axis=1).reshape(-1, 3)[order]
    first_arc = np.searchsorted(src, np.arange(n + 1))
    poses, seen = np.zeros((n, 3)), np.arange(n) == 0
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        # the frontier's arcs, in frontier order
        arcs = _ranges(first_arc[frontier], first_arc[frontier + 1] - first_arc[frontier])
        arcs = arcs[~seen[dst[arcs]]]
        arcs = arcs[np.sort(np.unique(dst[arcs], return_index=True)[1])]
        frontier = dst[arcs]
        poses[frontier] = se2_compose(poses[src[arcs]], step[arcs])
        seen[frontier] = True
    if not seen.all():
        raise GraphConnectivityError(
            f"graph is disconnected: vertex {np.argmin(seen)} unreachable from 0")
    return ManifoldPoint.from_arrays(pose_manifold(n), poses)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integers ``starts[r] .. starts[r] + counts[r] - 1`` of every range
    r, concatenated in order."""
    return np.repeat(starts + counts - np.cumsum(counts), counts) + np.arange(counts.sum())


def pose_graph_problem(graph: PoseGraph2D, groups: Iterable[NoiseGroup]) -> JointProblem:
    """Build the estimation problem for a pose graph, with pose 0 gauge-fixed.

    With a single noise group every edge joins it; with groups named
    ``odometry`` and ``loop`` edges join by class.  Each group gets one
    relative-pose set of its edges, in edge order.
    """
    groups = tuple(groups)
    if len(groups) == 1:
        sets = [relative_se2_set(graph.i, graph.j, graph.z, groups[0].group_id)]
    elif {g.group_id for g in groups} == {ODOMETRY, LOOP}:
        masks = [(g.group_id, graph.kind == _KIND_CODE[g.group_id]) for g in groups]
        sets = [relative_se2_set(graph.i[mask], graph.j[mask], graph.z[mask], gid)
                for gid, mask in masks if mask.any()]
    else:
        raise ValueError("pose-graph groups must be one group, or 'odometry' and 'loop'")
    return JointProblem(pose_manifold(graph.num_poses), sets, groups, frozenset({0}))


@dataclass(frozen=True, eq=False)
class SyntheticNoiseSpec:
    """True noise model for synthetic graphs.

    ``information`` maps an edge class (``"odometry"``/``"loop"``, or the
    single key ``"all"``) to a 3x3 information matrix.
    """

    information: dict
    seed: int

    def __post_init__(self):
        info = {k: np.asarray(v, dtype=float) for k, v in self.information.items()}
        for key, mat in info.items():
            if np.linalg.eigvalsh(mat).min() <= 0.0:
                raise ValueError(f"information matrix for {key!r} must be PD")
        object.__setattr__(self, "information", info)

    def information_for(self, kind: str) -> np.ndarray:
        if kind in self.information:
            return self.information[kind]
        return self.information["all"]

    def covariance_for(self, kind: str) -> np.ndarray:
        return np.linalg.inv(self.information_for(kind))


def generate_manhattan_like(num_poses: int, scheme: str = "nearby",
                            noise: SyntheticNoiseSpec | None = None,
                            trajectory_seed: int = 0,
                            loop_fraction: float = 0.6,
                            loop_radius: float = 1.5,
                            loop_gap: int = 10):
    """Synthetic grid-walk pose graph with odometry and loop-closure edges.

    The trajectory and loop-closure topology depend only on
    ``trajectory_seed``; the measurement noise realization depends only on
    ``noise.seed``, so repeated trials share the graph and vary the noise.
    Measurements are ``z = h(x_true) . exp(eps)`` with ``eps`` drawn in the
    tangent space from the class covariance (Cholesky of the inverse
    information); emitted information matrices are identity, since the
    noise model is what the solvers estimate.  ``scheme="densified"`` adds
    the (i, i+2) and (i, i+3) edges on top of the nearby-revisit loops.

    Returns (graph, ground-truth poses).
    """
    _check_generator_args(num_poses, loop_fraction, loop_radius, loop_gap)
    if scheme not in ("nearby", "densified"):
        raise ValueError(f"unknown scheme {scheme!r}")
    traj_rng = counter_rng(trajectory_seed, 0xA11CE)

    turns = traj_rng.choice([0, 1, -1], size=num_poses - 1, p=[0.5, 0.25, 0.25])
    headings = np.concatenate([[0.0], np.cumsum(turns) * (np.pi / 2.0)])
    steps = np.column_stack([np.cos(headings[1:]), np.sin(headings[1:])])
    positions = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    truth = np.column_stack([positions, headings])

    pairs = _near_pairs(positions, loop_radius)
    pairs = pairs[np.abs(pairs[:, 1] - pairs[:, 0]) >= loop_gap]
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    target = int(round(loop_fraction * num_poses))
    if len(pairs) > target:
        pairs = pairs[np.sort(traj_rng.choice(len(pairs), size=target, replace=False))]
    loop_i, loop_j = pairs[:, 0], pairs[:, 1]
    if scheme == "densified":
        for gap in (2, 3):
            near = np.arange(num_poses - gap)
            loop_i, loop_j = np.concatenate([loop_i, near]), np.concatenate([loop_j, near + gap])

    noise_rng = counter_rng(noise.seed, 0xB0B) if noise is not None else None

    def measure_batch(idx_i, idx_j, kind):
        z = se2_compose(se2_inverse(truth[idx_i]), truth[idx_j])
        if noise is not None:
            chol = np.linalg.cholesky(noise.covariance_for(kind))
            eps = noise_rng.standard_normal((len(idx_i), 3)) @ chol.T
            z = se2_compose(z, exp_se2(eps))
        return z

    odo_i = np.arange(num_poses - 1)
    z = measure_batch(odo_i, odo_i + 1, ODOMETRY)
    if len(loop_i):
        z = np.concatenate([z, measure_batch(loop_i, loop_j, LOOP)])
    kind = np.repeat(np.int8([_KIND_CODE[ODOMETRY], _KIND_CODE[LOOP]]),
                     [len(odo_i), len(loop_i)])
    graph = PoseGraph2D(truth, np.concatenate([odo_i, loop_i]),
                        np.concatenate([odo_i + 1, loop_j]), z,
                        np.broadcast_to(np.eye(3), (len(z), 3, 3)), kind)
    return graph, ManifoldPoint.from_arrays(pose_manifold(num_poses), truth)


def _near_pairs(points: np.ndarray, radius: float) -> np.ndarray:
    """Index pairs ``(i, j)``, ``i < j``, of the 2-D ``points`` within
    ``radius`` of each other, in no particular order: the pairs
    ``cKDTree(points).query_pairs(radius)`` finds, by the same test
    ``dx * dx + dy * dy <= radius * radius``.

    A grid hash: the points fall into square cells of side ``radius``, and
    a point's candidates are the points in the 3 x 3 cells around its own.
    Rounding in ``(p - lo) / side`` moves a cell coordinate by at most about
    ``2 eps span / side``; the side's margin covers that, so a pair that
    passes the test is never two cells apart.  At least ``span / 2**20``,
    the side keeps the cell keys within int64.
    """
    lo = points.min(axis=0)
    span = float((points.max(axis=0) - lo).max())
    side = max(radius + 4 * np.finfo(float).eps * (radius + span), span / 2**20)
    cell = np.floor((points - lo) / side).astype(np.int64) + 1   # >= 1: cell - 1 >= 0
    width = int(cell[:, 1].max()) + 2
    key = cell[:, 0] * width + cell[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    around = (np.arange(-1, 2)[:, None] * width + np.arange(-1, 2)).ravel()
    wanted = (key[:, None] + around).ravel()
    first = np.searchsorted(sorted_key, wanted, side="left")
    counts = np.searchsorted(sorted_key, wanted, side="right") - first
    i = np.repeat(np.repeat(np.arange(len(points)), len(around)), counts)
    j = order[_ranges(first, counts)]
    keep = i < j
    i, j = i[keep], j[keep]
    d = points[i] - points[j]
    near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= radius * radius
    return np.column_stack([i[near], j[near]])


def _check_generator_args(num_poses, loop_fraction, loop_radius, loop_gap) -> None:
    """Reject generator arguments that would fail deep in numpy or
    silently select no loop closures."""
    def is_int(v):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

    if not (is_int(num_poses) and num_poses >= 2):
        raise ValueError(f"num_poses must be an int >= 2, got {num_poses!r}")
    if not (np.isfinite(loop_fraction) and loop_fraction >= 0):
        raise ValueError(f"loop_fraction must be finite and >= 0, got {loop_fraction!r}")
    if not (np.isfinite(loop_radius) and loop_radius > 0):
        raise ValueError(f"loop_radius must be finite and > 0, got {loop_radius!r}")
    if not (is_int(loop_gap) and loop_gap >= 1):
        raise ValueError(f"loop_gap must be an int >= 1, got {loop_gap!r}")


# Settings of a run, not of its graph: generator-config key -> the CLI flag
_RUN_FLAGS = {"seed": "--seed", "alpha": "--alpha-grid"}


def parse_generator_config(source: str | TextIO) -> dict:
    """Key-value generator config: num_poses, scheme, trajectory_seed,
    loop_fraction, loop_radius, loop_gap, and per-class ``information
    <class> d1 d2 d3`` lines (class odometry, loop or all; three finite,
    positive diagonal entries).  The noise seed and level are run settings,
    so ``seed`` and ``alpha`` are rejected."""
    stream = StringIO(source) if isinstance(source, str) else source
    cfg: dict = {"information": {}}
    for lineno, line in enumerate(stream, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        key = parts[0]
        if key in _RUN_FLAGS:
            raise GraphFormatError(f"line {lineno}: key {key!r} is not a generator "
                                   f"setting; pass {_RUN_FLAGS[key]}")
        try:
            if key == "num_poses":
                cfg["num_poses"] = int(parts[1])
            elif key in ("trajectory_seed", "loop_gap"):
                cfg[key] = int(parts[1])
            elif key in ("loop_fraction", "loop_radius"):
                cfg[key] = float(parts[1])
            elif key == "scheme":
                cfg["scheme"] = parts[1]
            elif key == "information":
                if len(parts) != 5 or parts[1] not in (ODOMETRY, LOOP, "all"):
                    raise ValueError(f"information takes a class ({ODOMETRY}, {LOOP} "
                                     "or all) and three diagonal entries")
                diagonal = [float(v) for v in parts[2:]]
                if not all(0 < v < np.inf for v in diagonal):  # also rejects NaN
                    raise ValueError("information entries must be finite and > 0")
                cfg["information"][parts[1]] = np.diag(diagonal)
            else:
                raise ValueError(f"unknown key {key!r}")
        except (IndexError, ValueError) as err:
            raise GraphFormatError(f"line {lineno}: {err}") from None
    return cfg

