import gc
import pathlib
import subprocess
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointcov

from jointcov.harness import wasserstein2
from jointcov.io_pgo import (
    EDGE_KINDS,
    LOOP,
    ODOMETRY,
    GraphConnectivityError,
    GraphFormatError,
    PoseGraph2D,
    SyntheticNoiseSpec,
    _near_pairs,
    counter_rng,
    generate_manhattan_like,
    parse_edge_classes,
    parse_g2o,
    parse_generator_config,
    pose_graph_problem,
    pose_manifold,
    spanning_tree_init,
    write_g2o,
)
from jointcov.manifold import (
    ActiveIndex,
    ManifoldPoint,
    exp_se2,
    se2_compose,
    se2_inverse,
)
from jointcov.problem import NoiseGroup, residual


def graphs_equal(a, b):
    if not np.array_equal(a.poses, b.poses):
        return False
    if len(a.edges) != len(b.edges):
        return False
    for ea, eb in zip(a.edges, b.edges):
        if (ea.i, ea.j, ea.kind) != (eb.i, eb.j, eb.kind):
            return False
        if not (np.array_equal(ea.z, eb.z) and np.array_equal(ea.information, eb.information)):
            return False
    return True


def array_graph(poses, i, j, z, information=None, kind=()):
    """A graph from edge lists: identity information and odometry edges
    unless given (``kind`` holds edge classes)."""
    k = len(i)
    if information is None:
        information = np.broadcast_to(np.eye(3), (k, 3, 3))
    codes = [EDGE_KINDS.index(c) for c in kind] if len(kind) else np.zeros(k)
    return PoseGraph2D(poses, i, j, np.reshape(z, (k, 3)), information, codes)


def random_graph(rng, n=8, extra=3):
    poses = rng.uniform(-2, 2, size=(n, 3))
    edges = []  # (i, j, z, information, kind)
    for i in range(n - 1):
        q = rng.uniform(0.5, 3.0, size=3)
        edges.append((i, i + 1, rng.uniform(-1, 1, size=3), np.diag(q), ODOMETRY))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if j - i == 1:
            continue
        edges.append((i, j, rng.uniform(-1, 1, size=3), np.eye(3), LOOP))
    return array_graph(poses, *zip(*edges))


class TestParser:
    def test_vertex_line(self):
        g = parse_g2o("VERTEX_SE2 0 0 0 0\n")
        assert g.num_poses == 1
        np.testing.assert_array_equal(g.poses[0], np.zeros(3))

    def test_edge_line(self):
        text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n"
                "EDGE_SE2 0 1 1 0 0 500 0 0 500 0 500\n")
        g = parse_g2o(text)
        e = g.edges[0]
        assert (e.i, e.j) == (0, 1)
        np.testing.assert_array_equal(e.z, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(e.information, 500 * np.eye(3))
        assert e.kind == ODOMETRY

    def test_loop_classification(self):
        text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nVERTEX_SE2 2 2 0 0\n"
                "EDGE_SE2 0 2 2 0 0 1 0 0 1 0 1\n")
        g = parse_g2o(text)
        assert g.edges[0].kind == LOOP

    def test_class_override(self):
        text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n"
                "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n")
        classes = parse_edge_classes("0 1 loop\n")
        g = parse_g2o(text, classes=classes)
        assert g.edges[0].kind == LOOP

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_g2o("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 nope 0 0\n")

    @pytest.mark.parametrize("line", [
        "EDGE_SE2 0 1 nan 0 0 1 0 0 1 0 1",
        "EDGE_SE2 0 1 1 0 0 inf 0 0 1 0 1",
        "VERTEX_SE2 2 0 -inf 0",
    ])
    def test_non_finite_value_rejected(self, line):
        text = "VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n" + line + "\n"
        with pytest.raises(GraphFormatError, match="line 3: non-finite"):
            parse_g2o(text)

    def test_self_loop_edge_rejected(self):
        # its residual log(z) ignores the state, so it would only bias its
        # group's sample covariance
        text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n"
                "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\nEDGE_SE2 0 0 1 0 0 1 0 0 1 0 1\n")
        with pytest.raises(GraphFormatError, match="line 4: self-loop edge on vertex 0"):
            parse_g2o(text)

    def test_first_non_psd_information_names_its_line(self):
        bad = "EDGE_SE2 {} {} 1 0 0 1 2 0 1 0 1\n"   # eigenvalues -1, 1, 3
        good = "EDGE_SE2 {} {} 1 0 0 1 0 0 1 0 1\n"
        text = ("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nVERTEX_SE2 2 2 0 0\n"
                + good.format(0, 1) + good.format(1, 2) + bad.format(0, 2)
                + good.format(2, 0) + bad.format(2, 1))
        with pytest.raises(GraphFormatError,
                           match="^line 6: information matrix is not positive semidefinite$"):
            parse_g2o(text)

    def test_missing_vertex_rejected(self):
        with pytest.raises(GraphFormatError, match="missing vertex"):
            parse_g2o("VERTEX_SE2 0 0 0 0\nEDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n")

    def test_unknown_tag_warns_and_skips(self):
        with pytest.warns(UserWarning, match="unknown tag"):
            g = parse_g2o("VERTEX_SE2 0 0 0 0\nVERTEX_SE3 1 0 0 0 0 0 0\n")
        assert g.num_poses == 1

    def test_non_dense_ids_remapped(self):
        text = ("VERTEX_SE2 5 0 0 0\nVERTEX_SE2 9 1 0 0\n"
                "EDGE_SE2 5 9 1 0 0 1 0 0 1 0 1\n")
        g = parse_g2o(text)
        np.testing.assert_array_equal(g.poses, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert (g.edges[0].i, g.edges[0].j) == (0, 1)
        # classification used the original ids: gap 4 -> loop closure
        assert g.edges[0].kind == LOOP


class TestWriter:
    def test_identity_graph_canonical(self):
        g = array_graph([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0], [1], [1.0, 0.0, 0.0])
        text = write_g2o(g)
        lines = text.strip().split("\n")
        assert lines[0] == "VERTEX_SE2 0 0 0 0"
        assert lines[1] == "VERTEX_SE2 1 1 0 0"
        assert lines[2] == "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_graph(rng)
            assert graphs_equal(parse_g2o(write_g2o(g)), g)

    def test_write_parse_write_bit_stable(self):
        rng = np.random.default_rng(18)
        g = random_graph(rng)
        once = write_g2o(g)
        twice = write_g2o(parse_g2o(once))
        assert once == twice

    def test_graph_without_edges_round_trips(self):
        text = "VERTEX_SE2 0 0.5 -1 3\nVERTEX_SE2 1 2 0 -0.25\n"
        g = parse_g2o(text)
        assert len(g.edges) == 0 and not g.edges_of_kind(LOOP)
        assert g.z.shape == (0, 3) and g.information.shape == (0, 3, 3)
        assert write_g2o(g) == text

    def test_class_override_round_trips(self):
        rng = np.random.default_rng(20)
        text = write_g2o(random_graph(rng))
        classes = {(0, 1): LOOP, (3, 4): LOOP}
        g = parse_g2o(text, classes=classes)
        assert [e.kind for e in g.edges[:5]] == [LOOP, ODOMETRY, ODOMETRY, LOOP, ODOMETRY]
        assert write_g2o(g) == text
        assert graphs_equal(parse_g2o(write_g2o(g), classes=classes), g)
        with pytest.raises(GraphFormatError, match=r"unknown edge class 'gps' for edge \(3, 4\)"):
            parse_g2o(text, classes={(3, 4): "gps"})

    def test_edge_order_preserved(self):
        rng = np.random.default_rng(19)
        g = random_graph(rng)
        g2 = parse_g2o(write_g2o(g))
        assert [(e.i, e.j) for e in g.edges] == [(e.i, e.j) for e in g2.edges]


class TestGraph:
    def test_edge_view(self):
        g = random_graph(np.random.default_rng(21))
        edges = list(g.edges)
        assert [e.i for e in g.edges[2:5]] == [e.i for e in edges[2:5]]
        assert g.edges[-1].j == edges[-1].j == g.j[-1]
        loops = g.edges_of_kind(LOOP)
        assert [(e.i, e.j) for e in loops] == [(e.i, e.j) for e in edges if e.kind == LOOP]
        assert len(loops) + len(g.edges_of_kind(ODOMETRY)) == len(g.edges)
        with pytest.raises(IndexError):
            g.edges[len(edges)]


class TestSpanningTree:
    def test_translation_chain(self):
        g = array_graph(np.zeros((3, 3)), [0, 1], [1, 2], [[1.0, 0.0, 0.0]] * 2)
        x = spanning_tree_init(g)
        np.testing.assert_allclose(x.block(0), [0, 0, 0])
        np.testing.assert_allclose(x.block(1), [1, 0, 0])
        np.testing.assert_allclose(x.block(2), [2, 0, 0])

    def test_single_vertex(self):
        g = array_graph([[5.0, 5.0, 1.0]], [], [], [])
        x = spanning_tree_init(g)
        np.testing.assert_array_equal(x.block(0), np.zeros(3))

    def test_reversed_edge_inverted(self):
        g = array_graph(np.zeros((2, 3)), [1], [0], [1.0, 0.0, 0.0])
        x = spanning_tree_init(g)
        np.testing.assert_allclose(x.block(1), [-1.0, 0.0, 0.0], atol=1e-15)

    def test_zero_noise_tree_edges_consistent(self):
        graph, truth = generate_manhattan_like(40, "nearby", None, trajectory_seed=3)
        x = spanning_tree_init(graph)
        adjacency_used = set()
        for e in graph.edges:
            h = se2_compose(se2_inverse(x.block(e.i)), x.block(e.j))
            if e.kind == ODOMETRY:
                np.testing.assert_allclose(h, e.z, atol=1e-9)
            adjacency_used.add((e.i, e.j))

    def test_disconnected_raises(self):
        g = array_graph(np.zeros((3, 3)), [0], [1], np.zeros(3))
        with pytest.raises(GraphConnectivityError, match="vertex 2"):
            spanning_tree_init(g)

    def test_empty_graph_raises(self):
        with pytest.raises(GraphConnectivityError, match="no vertices"):
            spanning_tree_init(array_graph(np.zeros((0, 3)), [], [], []))


def reference_spanning_tree(graph):
    """Breadth-first search with a FIFO queue and per-vertex arc lists, one
    composition per vertex: the discovery order spanning_tree_init keeps."""
    n = graph.num_poses
    adjacency = {v: [] for v in range(n)}
    for e in graph.edges:
        adjacency[e.i].append((e.j, e.z, False))
        adjacency[e.j].append((e.i, e.z, True))
    poses = {0: np.zeros(3)}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w, z, reverse in adjacency[v]:
            if w not in poses:
                poses[w] = se2_compose(poses[v], se2_inverse(z) if reverse else z)
                queue.append(w)
    if len(poses) != n:
        missing = next(v for v in range(n) if v not in poses)
        raise GraphConnectivityError(
            f"graph is disconnected: vertex {missing} unreachable from 0")
    return ManifoldPoint(pose_manifold(n), tuple(poses[i] for i in range(n)))


_coordinate = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def multigraphs(draw):
    """Duplicate edges, edges both ways, self-loops and isolated vertices."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    edges = []  # (i, j, z)
    for i, j in pairs:
        z = np.array([draw(_coordinate), draw(_coordinate), draw(st.floats(-7.0, 7.0))])
        edges.append((i, j, z))
    if pairs and draw(st.booleans()):  # repeat an edge, and write one the other way
        edges.append(edges[draw(st.integers(0, len(pairs) - 1))])
        i, j, z = edges[draw(st.integers(0, len(pairs) - 1))]
        edges.append((j, i, se2_inverse(z)))
    i, j, z = zip(*edges) if edges else ((), (), ())
    return array_graph(np.zeros((n, 3)), i, j, z)


class TestSpanningTreeOrder:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_matches_the_queue_search(self, graph):
        try:
            want = reference_spanning_tree(graph)
        except GraphConnectivityError as err:
            with pytest.raises(GraphConnectivityError) as got:
                spanning_tree_init(graph)
            assert str(got.value) == str(err)
            return
        assert np.array_equal(spanning_tree_init(graph).poses, want.poses)

    @pytest.mark.parametrize("scheme", ["nearby", "densified"])
    @pytest.mark.parametrize("noise_seed", [1, 2])
    def test_benchmark_graph_bit_equal(self, scheme, noise_seed):
        noise = SyntheticNoiseSpec({"all": 5.0 * np.diag([20.0, 40.0, 30.0])}, seed=noise_seed)
        graph, _ = generate_manhattan_like(3500, scheme, noise, trajectory_seed=1,
                                           loop_fraction=2099 / 3500)
        assert np.array_equal(spanning_tree_init(graph).poses,
                              reference_spanning_tree(graph).poses)

    def test_edge_to_a_missing_vertex_rejected(self):
        g = array_graph(np.zeros((2, 3)), [0], [-1], np.zeros(3))
        with pytest.raises(GraphFormatError, match="outside 0..1"):
            spanning_tree_init(g)


class TestGenerator:
    def test_zero_noise_residuals_vanish_at_truth(self):
        graph, truth = generate_manhattan_like(60, "nearby", None, trajectory_seed=1)
        problem = pose_graph_problem(graph, (NoiseGroup("all", 3, "ml"),))
        (fs,) = problem.factors
        assert len(fs) == len(graph.edges)
        np.testing.assert_allclose(residual(fs, truth), np.zeros((len(fs), 3)), atol=1e-10)

    def test_densified_adds_2n_minus_5_edges(self):
        n = 50
        base, _ = generate_manhattan_like(n, "nearby", None, trajectory_seed=2)
        dense, _ = generate_manhattan_like(n, "densified", None, trajectory_seed=2)
        assert len(dense.edges) - len(base.edges) == 2 * n - 5

    def test_noise_matches_target_covariance(self):
        # empirical covariance of ~1e5 generated tangent-noise draws matches
        # the target; residuals at the truth recover the injected noise
        from jointcov.manifold import log_se2

        info = np.diag([20.0, 40.0, 30.0])
        noise = SyntheticNoiseSpec({"all": info}, seed=5)
        n = 62_000
        graph, truth = generate_manhattan_like(n, "nearby", noise, trajectory_seed=4)
        idx_i = np.array([e.i for e in graph.edges])
        idx_j = np.array([e.j for e in graph.edges])
        z = np.stack([e.z for e in graph.edges])
        poses = truth.poses
        h = se2_compose(se2_inverse(poses[idx_i]), poses[idx_j])
        R = log_se2(se2_compose(se2_inverse(h), z))
        k = R.shape[0]
        assert k >= 90_000
        S = R.T @ R / k
        sigma = np.linalg.inv(info)
        assert wasserstein2(S, sigma) <= 0.02 * np.trace(sigma)
        # zero-mean bound: 4 sigma_max / sqrt(k)
        sigma_max = np.sqrt(np.linalg.eigvalsh(sigma).max())
        assert np.linalg.norm(R.mean(axis=0)) <= 4.0 * sigma_max / np.sqrt(k)

    def test_edge_classes_partition(self):
        graph, _ = generate_manhattan_like(80, "densified", None, trajectory_seed=6)
        kinds = {e.kind for e in graph.edges}
        assert kinds <= {ODOMETRY, LOOP}
        n_odo = len(graph.edges_of_kind(ODOMETRY))
        n_loop = len(graph.edges_of_kind(LOOP))
        assert n_odo + n_loop == len(graph.edges)
        assert n_odo == 79

    def test_same_topology_different_noise(self):
        info = {"all": np.diag([20.0, 40.0, 30.0])}
        g1, _ = generate_manhattan_like(50, "nearby", SyntheticNoiseSpec(info, seed=1),
                                        trajectory_seed=9)
        g2, _ = generate_manhattan_like(50, "nearby", SyntheticNoiseSpec(info, seed=2),
                                        trajectory_seed=9)
        assert [(e.i, e.j) for e in g1.edges] == [(e.i, e.j) for e in g2.edges]
        assert not np.allclose(g1.edges[0].z, g2.edges[0].z)

    def test_deterministic_given_seeds(self):
        info = {"all": np.diag([20.0, 40.0, 30.0])}
        g1, _ = generate_manhattan_like(30, "nearby", SyntheticNoiseSpec(info, seed=3),
                                        trajectory_seed=8)
        g2, _ = generate_manhattan_like(30, "nearby", SyntheticNoiseSpec(info, seed=3),
                                        trajectory_seed=8)
        assert graphs_equal(g1, g2)

    def test_emitted_information_is_identity(self):
        info = {"all": np.diag([20.0, 40.0, 30.0])}
        g, _ = generate_manhattan_like(20, "nearby", SyntheticNoiseSpec(info, seed=3),
                                       trajectory_seed=8)
        for e in g.edges:
            np.testing.assert_array_equal(e.information, np.eye(3))


def reference_manhattan_like(num_poses, scheme="nearby", noise=None, trajectory_seed=0,
                             loop_fraction=0.6, loop_radius=1.5, loop_gap=10):
    """The generator with loop closures picked from a sorted list of tuples,
    one edge at a time: the draws generate_manhattan_like must repeat."""
    from scipy.spatial import cKDTree

    traj_rng = counter_rng(trajectory_seed, 0xA11CE)
    turns = traj_rng.choice([0, 1, -1], size=num_poses - 1, p=[0.5, 0.25, 0.25])
    headings = np.concatenate([[0.0], np.cumsum(turns) * (np.pi / 2.0)])
    steps = np.column_stack([np.cos(headings[1:]), np.sin(headings[1:])])
    positions = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    truth = np.column_stack([positions, headings])
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

    def measure(idx_i, idx_j, kind):
        z = se2_compose(se2_inverse(truth[idx_i]), truth[idx_j])
        if noise is not None:
            chol = np.linalg.cholesky(noise.covariance_for(kind))
            z = se2_compose(z, exp_se2(noise_rng.standard_normal((len(idx_i), 3)) @ chol.T))
        return z

    odo_i = np.arange(num_poses - 1)
    z_odo = measure(odo_i, odo_i + 1, ODOMETRY)
    i, j, z, kind = odo_i, odo_i + 1, z_odo, [ODOMETRY] * len(odo_i)
    if loops:
        loop_i, loop_j = np.array(loops).T
        i, j = np.concatenate([i, loop_i]), np.concatenate([j, loop_j])
        z = np.concatenate([z, measure(loop_i, loop_j, LOOP)])
        kind += [LOOP] * len(loops)
    graph = array_graph(truth, i, j, z, kind=kind)
    spec = pose_manifold(num_poses)
    return graph, ManifoldPoint(spec, tuple(truth[i] for i in range(num_poses)))


class TestGeneratorMatchesReference:
    NOISE = {ODOMETRY: np.diag([1000.0, 1000.0, 800.0]), LOOP: np.diag([100.0, 200.0, 150.0])}

    def assert_same(self, args, kwargs):
        graph, truth = generate_manhattan_like(*args, **kwargs)
        want_graph, want_truth = reference_manhattan_like(*args, **kwargs)
        assert len(graph.edges) == len(want_graph.edges)
        for e, want in zip(graph.edges, want_graph.edges):
            assert (e.i, e.j, e.kind) == (want.i, want.j, want.kind)
            assert type(e.i) is int and type(e.j) is int
            assert np.array_equal(e.z, want.z)
            assert np.array_equal(e.information, want.information)
        assert graphs_equal(graph, want_graph)
        assert np.array_equal(truth.poses, want_truth.poses)
        return graph

    @pytest.mark.parametrize("scheme", ["nearby", "densified"])
    @pytest.mark.parametrize("trajectory_seed", [0, 1, 7])
    @pytest.mark.parametrize("noise_seed", [None, 1, 1000])
    def test_seeds(self, scheme, trajectory_seed, noise_seed):
        noise = None if noise_seed is None else SyntheticNoiseSpec(self.NOISE, seed=noise_seed)
        graph = self.assert_same((300, scheme, noise), {"trajectory_seed": trajectory_seed})
        assert graph.edges_of_kind(LOOP)

    @pytest.mark.parametrize("scheme", ["nearby", "densified"])
    @pytest.mark.parametrize("num_poses, loop_fraction, loops", [
        (8, 0.6, "none"),     # fewer poses than loop_gap: no candidates
        (200, 0.0, "none"),   # candidates, but none drawn
        (200, 5.0, "all"),    # fewer candidates than the target: keep them all
        (2, 0.6, "none"),
    ])
    def test_edge_cases(self, scheme, num_poses, loop_fraction, loops):
        noise = SyntheticNoiseSpec(self.NOISE, seed=3)
        graph = self.assert_same((num_poses, scheme, noise),
                                 {"trajectory_seed": 2, "loop_fraction": loop_fraction})
        far = [e for e in graph.edges_of_kind(LOOP) if e.j - e.i >= 10]
        assert bool(far) == (loops == "all")

    def test_information_matrices_cannot_be_written(self):
        # every edge reads one shared identity, so a write through one edge
        # would reach all of them: the arrays refuse it
        graph, _ = generate_manhattan_like(30, "nearby", None, trajectory_seed=1)
        for array in (graph.edges[0].information, graph.edges[0].z, graph.poses):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        assert all(np.array_equal(e.information, np.eye(3)) for e in graph.edges)


class TestGeneratorArguments:
    @pytest.mark.parametrize("num_poses", [1, 0, -3, 10.0, 2.5, True, "40"])
    def test_num_poses(self, num_poses):
        with pytest.raises(ValueError, match="^num_poses must be an int >= 2"):
            generate_manhattan_like(num_poses)

    @pytest.mark.parametrize("loop_fraction", [-0.1, np.nan, np.inf])
    def test_loop_fraction(self, loop_fraction):
        with pytest.raises(ValueError, match="^loop_fraction must be finite and >= 0"):
            generate_manhattan_like(20, loop_fraction=loop_fraction)

    @pytest.mark.parametrize("loop_radius", [0.0, -1.5, np.nan, np.inf])
    def test_loop_radius(self, loop_radius):
        with pytest.raises(ValueError, match="^loop_radius must be finite and > 0"):
            generate_manhattan_like(20, loop_radius=loop_radius)

    @pytest.mark.parametrize("loop_gap", [0, -2, 3.0, False])
    def test_loop_gap(self, loop_gap):
        with pytest.raises(ValueError, match="^loop_gap must be an int >= 1"):
            generate_manhattan_like(20, loop_gap=loop_gap)

    def test_numpy_integers_accepted(self):
        graph, _ = generate_manhattan_like(np.int64(20), loop_gap=np.int32(3))
        assert graph.num_poses == 20


def test_library_never_imports_scipy_spatial():
    # the generator finds loop-closure candidates with a grid hash, so
    # neither the import nor a generated graph needs the k-d tree
    src = str(pathlib.Path(jointcov.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import jointcov.cli, "
            "jointcov.harness; jointcov.io_pgo.generate_manhattan_like(50); "
            "sys.exit('scipy.spatial' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _lattice_walk(turns):
    """Positions of a unit-step walk turning by quarter turns, rounded as the
    generator rounds them (cos and sin of multiples of pi / 2)."""
    headings = np.cumsum(turns) * (np.pi / 2.0)
    steps = np.column_stack([np.cos(headings), np.sin(headings)])
    return np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])


@st.composite
def point_sets(draw):
    """Lattice walks, jittered lattice points and arbitrary points, with
    some points repeated exactly."""
    shape = draw(st.sampled_from(["walk", "jittered", "arbitrary"]))
    if shape == "walk":
        points = _lattice_walk(draw(st.lists(st.sampled_from([0, 1, -1]), max_size=120)))
    else:
        n = draw(st.integers(1, 80))
        if shape == "jittered":
            lattice = np.array(draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                                             min_size=n, max_size=n)), dtype=float)
            scale = draw(st.sampled_from([0.0, 1e-15, 1e-9, 0.1]))
            jitter = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                                            max_size=2 * n))).reshape(n, 2)
            points = lattice + scale * jitter
        else:
            points = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=2 * n,
                                            max_size=2 * n))).reshape(n, 2)
    repeats = draw(st.lists(st.integers(0, len(points) - 1), max_size=5))
    return np.vstack([points, points[repeats]])


class TestNearPairs:
    @settings(max_examples=400, deadline=None)
    @given(point_sets(), st.sampled_from([1.0, 2.0, np.sqrt(2.0), 0.7, 1.5, 2.3, 1e-9]))
    def test_matches_the_kd_tree(self, points, radius):
        from scipy.spatial import cKDTree

        pairs = _near_pairs(points, radius)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        got = set(map(tuple, pairs.tolist()))
        assert len(got) == len(pairs)
        assert got == cKDTree(points).query_pairs(radius)

    @pytest.mark.parametrize("radius", [1.0, 2.0, np.sqrt(2.0), 1.5])
    def test_benchmark_walk(self, radius):
        from scipy.spatial import cKDTree

        turns = counter_rng(1, 0xA11CE).choice([0, 1, -1], size=3499, p=[0.5, 0.25, 0.25])
        points = _lattice_walk(turns)
        got = set(map(tuple, _near_pairs(points, radius).tolist()))
        assert got == cKDTree(points).query_pairs(radius)


def test_benchmark_setup_retains_under_4_mb():
    # one 3500-pose set-up keeps the graph's arrays, the one pose spec it
    # shares with the problem and the initial point, and the problem's
    # factors; per-edge records and per-call specs are not kept
    pose_manifold.cache_clear()
    noise = SyntheticNoiseSpec({"all": 5.0 * np.diag([20.0, 40.0, 30.0])}, seed=1)
    groups = [NoiseGroup(kind, 3, "ml-eig", bounds=(1e-4, 1e4)) for kind in (ODOMETRY, LOOP)]
    tracemalloc.start()
    try:
        graph = generate_manhattan_like(3500, "nearby", noise, trajectory_seed=1,
                                        loop_fraction=2099 / 3500)[0]
        problem = pose_graph_problem(graph, groups)
        x_init = spanning_tree_init(graph)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(graph.edges) == 5598
    assert problem.manifold is x_init.spec
    assert retained < 4e6


def test_pose_spec_retains_under_0_8_mb():
    # a pose spec holds columns and one id map, not an object per pose
    pose_manifold.cache_clear()
    tracemalloc.start()
    try:
        spec = pose_manifold(3500)
        index = ActiveIndex.build(spec, frozenset({0}))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert index.dim == 3 * 3499
    assert retained < 0.8e6


class TestGeneratorConfig:
    def test_parse_and_generate(self):
        text = """
# synthetic dataset
num_poses 40
scheme densified
trajectory_seed 4
information odometry 1000 1000 800
information loop 100 200 150
"""
        cfg = parse_generator_config(text)
        assert cfg["num_poses"] == 40
        assert cfg["scheme"] == "densified"
        np.testing.assert_array_equal(cfg["information"]["odometry"],
                                      np.diag([1000.0, 1000.0, 800.0]))
        graph, _ = generate_manhattan_like(cfg["num_poses"], cfg["scheme"], None,
                                           trajectory_seed=cfg["trajectory_seed"])
        assert graph.num_poses == 40

    def test_unknown_key_rejected(self):
        with pytest.raises(GraphFormatError, match="^line 1: unknown key 'bogus'$"):
            parse_generator_config("bogus 3\n")

    @pytest.mark.parametrize("line, message", [
        ("information loop 1 2", "information takes a class"),
        ("information foo 1 2 3", "information takes a class"),
        ("information all 1 2 3 4", "information takes a class"),
        ("information all", "information takes a class"),
        ("information all 1 0 3", "information entries must be finite and > 0"),
        ("information odometry -1 2 3", "information entries must be finite and > 0"),
        ("information loop 1 nan 3", "information entries must be finite and > 0"),
        ("information loop 1 2 inf", "information entries must be finite and > 0"),
        ("information loop 1 x 3", "could not convert string to float: 'x'"),
    ])
    def test_bad_information_line_rejected(self, line, message):
        with pytest.raises(GraphFormatError, match=f"^line 2: {message}"):
            parse_generator_config(f"num_poses 40\n{line}\n")

    @pytest.mark.parametrize("key, flag", [("seed", "--seed"), ("alpha", "--alpha-grid")])
    def test_run_setting_rejected_with_its_flag(self, key, flag):
        # the noise seed and level come from the run, not the generator config
        with pytest.raises(GraphFormatError,
                           match=f"line 2: key '{key}' is not a generator setting; "
                                 f"pass {flag}$"):
            parse_generator_config(f"num_poses 40\n{key} 5\n")


class TestProblemBuild:
    def test_problem_retains_no_object_per_edge(self):
        # each group's edges stay arrays from the graph to the batch, so the
        # gc-tracked objects a problem keeps alive do not grow with the edges
        pose_graph_problem(*self.graph_and_group(20))  # one-time module state
        retained = []
        for n in (300, 3000):
            graph, groups = self.graph_and_group(n)
            gc.collect()
            before = len(gc.get_objects())
            problem = pose_graph_problem(graph, groups)
            gc.collect()
            retained.append(len(gc.get_objects()) - before)
            edges = problem.group_sizes["all"]
            del problem  # so each count measures one problem alone
            gc.collect()
        assert retained[0] < 100
        assert retained[1] <= retained[0] + 10
        assert edges == len(graph.edges) > 3000

    @staticmethod
    def graph_and_group(n):
        graph, _ = generate_manhattan_like(n, "nearby", None, trajectory_seed=1)
        return graph, (NoiseGroup("all", 3, "ml"),)

    def test_heteroscedastic_group_assignment(self):
        graph, _ = generate_manhattan_like(150, "nearby", None, trajectory_seed=5)
        assert graph.edges_of_kind(LOOP)
        groups = (NoiseGroup(ODOMETRY, 3, "ml-eig", bounds=(1e-4, 1e4)),
                  NoiseGroup(LOOP, 3, "ml-eig", bounds=(1e-4, 1e4)))
        pb = pose_graph_problem(graph, groups)
        sizes = pb.group_sizes
        assert sizes[ODOMETRY] == 149
        assert sizes[ODOMETRY] + sizes[LOOP] == len(graph.edges)
        odometry, loop = pb.factors
        for fs, kind in ((odometry, ODOMETRY), (loop, LOOP)):
            rows = graph.kind == EDGE_KINDS.index(kind)
            assert fs.group_id == kind
            np.testing.assert_array_equal(fs.blocks[0], graph.i[rows])
            np.testing.assert_array_equal(fs.blocks[1], graph.j[rows])
            np.testing.assert_array_equal(fs.z, graph.z[rows])
        assert pb.gauge_fixed == frozenset({0})
