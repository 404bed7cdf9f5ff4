"""Pose-graph dataset handling: g2o-style SE(2) text files, spanning-tree
initialization, odometry/loop-closure classification, and synthetic
Manhattan-style dataset generation with controllable noise.

Supported tags: ``VERTEX_SE2 id x y theta`` and
``EDGE_SE2 i j dx dy dtheta q11 q12 q13 q22 q23 q33`` (upper-triangular
information, row-major).  Unknown tags are skipped with a warning.  Edge
class is inferred from the index gap on the ids as written in the file
(|i - j| = 1 is odometry, anything else a loop closure) unless an explicit
class table is supplied.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from io import StringIO
from typing import Iterable, Mapping, TextIO

import numpy as np

from .manifold import (
    ManifoldPoint,
    ManifoldSpec,
    exp_se2,
    se2_block,
    se2_compose,
    se2_inverse,
)
from .problem import JointProblem, NoiseGroup, relative_se2_factor

ODOMETRY = "odometry"
LOOP = "loop"

EDGE_KINDS = (ODOMETRY, LOOP)


class GraphFormatError(ValueError):
    pass


class GraphConnectivityError(ValueError):
    pass


def counter_rng(*key_parts: int) -> np.random.Generator:
    """Seedable counter-based generator (Philox) for reproducible sampling."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key_parts))))


@dataclass(eq=False)
class Edge:
    i: int
    j: int
    z: np.ndarray              # relative pose (dx, dy, dtheta)
    information: np.ndarray    # 3x3 symmetric PSD
    kind: str = ODOMETRY


@dataclass(eq=False)
class PoseGraph2D:
    """Vertices (dense int ids -> SE(2) pose) and relative-pose edges."""

    poses: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)

    @property
    def num_poses(self) -> int:
        return len(self.poses)

    def edges_of_kind(self, kind: str) -> list:
        return [e for e in self.edges if e.kind == kind]


def _classify(i: int, j: int) -> str:
    return ODOMETRY if abs(i - j) == 1 else LOOP


def _require_finite(vals, lineno: int) -> None:
    if not all(np.isfinite(vals)):
        raise GraphFormatError(f"line {lineno}: non-finite value in {vals}")


def parse_g2o(source: str | TextIO, classes: Mapping | None = None) -> PoseGraph2D:
    """Parse g2o-style SE(2) text into a pose graph.

    ``classes`` optionally overrides edge classification: a mapping from
    ``(i, j)`` (original file ids) to ``"odometry"`` or ``"loop"``.
    Vertex ids are remapped to a dense 0..n-1 range (sorted order) if needed.
    """
    stream = StringIO(source) if isinstance(source, str) else source
    poses: dict = {}
    raw_edges: list = []
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
            poses[vid] = np.array(vals)
        elif tag == "EDGE_SE2":
            if len(parts) != 12:
                raise GraphFormatError(f"line {lineno}: EDGE_SE2 expects 11 fields")
            try:
                i, j = int(parts[1]), int(parts[2])
                vals = [float(p) for p in parts[3:12]]
            except ValueError as err:
                raise GraphFormatError(f"line {lineno}: {err}") from None
            _require_finite(vals, lineno)
            z = np.array(vals[:3])
            q11, q12, q13, q22, q23, q33 = vals[3:]
            info = np.array([[q11, q12, q13], [q12, q22, q23], [q13, q23, q33]])
            if np.linalg.eigvalsh(info).min() < -1e-9 * max(1.0, abs(info).max()):
                raise GraphFormatError(
                    f"line {lineno}: information matrix is not positive semidefinite")
            raw_edges.append((lineno, i, j, z, info))
        else:
            warnings.warn(f"line {lineno}: skipping unknown tag {tag!r}")

    for lineno, i, j, _, _ in raw_edges:
        for v in (i, j):
            if v not in poses:
                raise GraphFormatError(f"line {lineno}: edge references missing vertex {v}")

    ids = sorted(poses)
    remap = {vid: n for n, vid in enumerate(ids)}
    graph = PoseGraph2D(poses={remap[v]: poses[v] for v in ids})
    for _, i, j, z, info in raw_edges:
        if classes is not None and (i, j) in classes:
            kind = classes[(i, j)]
            if kind not in EDGE_KINDS:
                raise GraphFormatError(f"unknown edge class {kind!r} for edge ({i}, {j})")
        else:
            kind = _classify(i, j)
        graph.edges.append(Edge(remap[i], remap[j], z, info, kind))
    return graph


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
    return format(float(x), ".17g")


def write_g2o(graph: PoseGraph2D) -> str:
    """Inverse of :func:`parse_g2o` on its image; 17 significant digits."""
    lines = []
    for vid in sorted(graph.poses):
        p = graph.poses[vid]
        lines.append(f"VERTEX_SE2 {vid} {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    for e in graph.edges:
        q = e.information
        lines.append(
            "EDGE_SE2 "
            f"{e.i} {e.j} {_fmt(e.z[0])} {_fmt(e.z[1])} {_fmt(e.z[2])} "
            f"{_fmt(q[0, 0])} {_fmt(q[0, 1])} {_fmt(q[0, 2])} "
            f"{_fmt(q[1, 1])} {_fmt(q[1, 2])} {_fmt(q[2, 2])}")
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


def pose_manifold(num_poses: int) -> ManifoldSpec:
    return ManifoldSpec(tuple(se2_block(i) for i in range(num_poses)))


def graph_poses_point(graph: PoseGraph2D) -> ManifoldPoint:
    """The graph's stored vertex poses as a manifold point."""
    spec = pose_manifold(graph.num_poses)
    return ManifoldPoint(spec, tuple(graph.poses[i] for i in range(graph.num_poses)))


def spanning_tree_init(graph: PoseGraph2D) -> ManifoldPoint:
    """Breadth-first spanning-tree initialization rooted at vertex 0.

    The root is placed at the identity; every other pose composes its
    parent with the tree edge's measurement (inverted when the edge is
    traversed against its direction).
    """
    n = graph.num_poses
    if n == 0:
        raise GraphConnectivityError("graph has no vertices")
    adjacency: dict = {v: [] for v in range(n)}
    for e in graph.edges:
        adjacency[e.i].append((e.j, e.z, False))
        adjacency[e.j].append((e.i, e.z, True))
    poses = {0: np.zeros(3)}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w, z, reverse in adjacency[v]:
            if w in poses:
                continue
            step = se2_inverse(z) if reverse else z
            poses[w] = se2_compose(poses[v], step)
            queue.append(w)
    if len(poses) != n:
        missing = next(v for v in range(n) if v not in poses)
        raise GraphConnectivityError(
            f"graph is disconnected: vertex {missing} unreachable from 0")
    spec = pose_manifold(n)
    return ManifoldPoint(spec, tuple(poses[i] for i in range(n)))


def pose_graph_problem(graph: PoseGraph2D, groups: Iterable[NoiseGroup],
                       classify=None, gauge_first: bool = True) -> JointProblem:
    """Build the estimation problem for a pose graph.

    With a single noise group every edge joins it; with groups named
    ``odometry`` and ``loop`` edges join by class; otherwise pass
    ``classify(edge) -> group_id``.
    """
    groups = tuple(groups)
    if classify is None:
        if len(groups) == 1:
            gid = groups[0].group_id
            classify = lambda e: gid  # noqa: E731
        elif {g.group_id for g in groups} == {ODOMETRY, LOOP}:
            classify = lambda e: e.kind  # noqa: E731
        else:
            raise ValueError("ambiguous group assignment: pass classify()")
    spec = pose_manifold(graph.num_poses)
    factors = tuple(
        relative_se2_factor(idx, e.i, e.j, e.z, classify(e))
        for idx, e in enumerate(graph.edges))
    gauge = frozenset({0}) if gauge_first else frozenset()
    return JointProblem(spec, factors, groups, gauge)


@dataclass(frozen=True, eq=False)
class SyntheticNoiseSpec:
    """True noise model for synthetic graphs.

    ``information`` maps an edge class (``"odometry"``/``"loop"``, or the
    single key ``"all"``) to a 3x3 information matrix; ``alpha`` records the
    information level that produced it (metadata only).
    """

    information: dict
    seed: int
    alpha: float | None = None

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
    if num_poses < 2:
        raise ValueError("need at least two poses")
    if scheme not in ("nearby", "densified"):
        raise ValueError(f"unknown scheme {scheme!r}")
    traj_rng = counter_rng(trajectory_seed, 0xA11CE)

    turns = traj_rng.choice([0, 1, -1], size=num_poses - 1, p=[0.5, 0.25, 0.25])
    headings = np.concatenate([[0.0], np.cumsum(turns) * (np.pi / 2.0)])
    steps = np.column_stack([np.cos(headings[1:]), np.sin(headings[1:])])
    positions = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    truth = np.column_stack([positions, headings])

    from scipy.spatial import cKDTree  # here, not at module level: it slows every import

    pairs = cKDTree(positions).query_pairs(loop_radius, output_type="ndarray")
    candidates = sorted(
        (int(i), int(j)) for i, j in pairs if abs(int(j) - int(i)) >= loop_gap)
    target = int(round(loop_fraction * num_poses))
    if len(candidates) > target:
        chosen = traj_rng.choice(len(candidates), size=target, replace=False)
        loops = [candidates[c] for c in sorted(chosen)]
    else:
        loops = candidates
    if scheme == "densified":
        loops += [(i, i + 2) for i in range(num_poses - 2)]
        loops += [(i, i + 3) for i in range(num_poses - 3)]

    noise_rng = counter_rng(noise.seed, 0xB0B) if noise is not None else None

    def measure_batch(idx_i, idx_j, kind):
        z = se2_compose(se2_inverse(truth[idx_i]), truth[idx_j])
        if noise is not None:
            chol = np.linalg.cholesky(noise.covariance_for(kind))
            eps = noise_rng.standard_normal((len(idx_i), 3)) @ chol.T
            z = se2_compose(z, exp_se2(eps))
        return z

    odo_i = np.arange(num_poses - 1)
    z_odo = measure_batch(odo_i, odo_i + 1, ODOMETRY)
    graph = PoseGraph2D(poses={i: truth[i].copy() for i in range(num_poses)})
    for i in odo_i:
        graph.edges.append(Edge(int(i), int(i) + 1, z_odo[i], np.eye(3), ODOMETRY))
    if loops:
        loop_i = np.array([p[0] for p in loops])
        loop_j = np.array([p[1] for p in loops])
        z_loop = measure_batch(loop_i, loop_j, LOOP)
        for n, (i, j) in enumerate(loops):
            graph.edges.append(Edge(int(i), int(j), z_loop[n], np.eye(3), LOOP))

    spec = pose_manifold(num_poses)
    truth_point = ManifoldPoint(spec, tuple(truth[i] for i in range(num_poses)))
    return graph, truth_point


def parse_generator_config(source: str | TextIO) -> dict:
    """Key-value generator config: num_poses, alpha, seed, scheme,
    trajectory_seed, and per-class ``information <class> d1 d2 d3`` lines."""
    stream = StringIO(source) if isinstance(source, str) else source
    cfg: dict = {"information": {}}
    for lineno, line in enumerate(stream, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        key = parts[0]
        try:
            if key == "num_poses":
                cfg["num_poses"] = int(parts[1])
            elif key in ("seed", "trajectory_seed", "loop_gap"):
                cfg[key] = int(parts[1])
            elif key in ("alpha", "loop_fraction", "loop_radius"):
                cfg[key] = float(parts[1])
            elif key == "scheme":
                cfg["scheme"] = parts[1]
            elif key == "information":
                cfg["information"][parts[1]] = np.diag([float(v) for v in parts[2:5]])
            else:
                raise GraphFormatError(f"line {lineno}: unknown key {key!r}")
        except (IndexError, ValueError) as err:
            raise GraphFormatError(f"line {lineno}: {err}") from None
    return cfg


def generate_from_config(cfg: dict):
    """Generate a synthetic graph from a parsed generator config."""
    noise = None
    if cfg.get("information"):
        noise = SyntheticNoiseSpec(cfg["information"], seed=cfg.get("seed", 0),
                                   alpha=cfg.get("alpha"))
    kwargs = {k: cfg[k] for k in ("loop_fraction", "loop_radius", "loop_gap")
              if k in cfg}
    return generate_manhattan_like(
        cfg["num_poses"], cfg.get("scheme", "nearby"), noise,
        trajectory_seed=cfg.get("trajectory_seed", 0), **kwargs)
