import pathlib
import subprocess
import sys

import numpy as np
import pytest

import jointcov

from jointcov.harness import wasserstein2
from jointcov.io_pgo import (
    LOOP,
    ODOMETRY,
    Edge,
    GraphConnectivityError,
    GraphFormatError,
    PoseGraph2D,
    SyntheticNoiseSpec,
    generate_from_config,
    generate_manhattan_like,
    parse_edge_classes,
    parse_g2o,
    parse_generator_config,
    pose_graph_problem,
    spanning_tree_init,
    write_g2o,
)
from jointcov.manifold import se2_compose, se2_inverse
from jointcov.problem import NoiseGroup, residual


def graphs_equal(a, b):
    if sorted(a.poses) != sorted(b.poses):
        return False
    for vid in a.poses:
        if not np.array_equal(a.poses[vid], b.poses[vid]):
            return False
    if len(a.edges) != len(b.edges):
        return False
    for ea, eb in zip(a.edges, b.edges):
        if (ea.i, ea.j, ea.kind) != (eb.i, eb.j, eb.kind):
            return False
        if not (np.array_equal(ea.z, eb.z) and np.array_equal(ea.information, eb.information)):
            return False
    return True


def random_graph(rng, n=8, extra=3):
    g = PoseGraph2D(poses={i: rng.uniform(-2, 2, size=3) for i in range(n)})
    for i in range(n - 1):
        q = rng.uniform(0.5, 3.0, size=3)
        g.edges.append(Edge(i, i + 1, rng.uniform(-1, 1, size=3), np.diag(q), ODOMETRY))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if j - i == 1:
            continue
        g.edges.append(Edge(int(i), int(j), rng.uniform(-1, 1, size=3),
                            np.eye(3), LOOP))
    return g


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
        assert sorted(g.poses) == [0, 1]
        assert (g.edges[0].i, g.edges[0].j) == (0, 1)
        # classification used the original ids: gap 4 -> loop closure
        assert g.edges[0].kind == LOOP


class TestWriter:
    def test_identity_graph_canonical(self):
        g = PoseGraph2D(poses={0: np.zeros(3), 1: np.array([1.0, 0.0, 0.0])})
        g.edges.append(Edge(0, 1, np.array([1.0, 0.0, 0.0]), np.eye(3), ODOMETRY))
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

    def test_edge_order_preserved(self):
        rng = np.random.default_rng(19)
        g = random_graph(rng)
        g2 = parse_g2o(write_g2o(g))
        assert [(e.i, e.j) for e in g.edges] == [(e.i, e.j) for e in g2.edges]


class TestSpanningTree:
    def test_translation_chain(self):
        g = PoseGraph2D(poses={i: np.zeros(3) for i in range(3)})
        for i in range(2):
            g.edges.append(Edge(i, i + 1, np.array([1.0, 0.0, 0.0]), np.eye(3)))
        x = spanning_tree_init(g)
        np.testing.assert_allclose(x.block(0), [0, 0, 0])
        np.testing.assert_allclose(x.block(1), [1, 0, 0])
        np.testing.assert_allclose(x.block(2), [2, 0, 0])

    def test_single_vertex(self):
        g = PoseGraph2D(poses={0: np.array([5.0, 5.0, 1.0])})
        x = spanning_tree_init(g)
        np.testing.assert_array_equal(x.block(0), np.zeros(3))

    def test_reversed_edge_inverted(self):
        g = PoseGraph2D(poses={0: np.zeros(3), 1: np.zeros(3)})
        g.edges.append(Edge(1, 0, np.array([1.0, 0.0, 0.0]), np.eye(3)))
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
        g = PoseGraph2D(poses={0: np.zeros(3), 1: np.zeros(3), 2: np.zeros(3)})
        g.edges.append(Edge(0, 1, np.zeros(3), np.eye(3)))
        with pytest.raises(GraphConnectivityError, match="vertex 2"):
            spanning_tree_init(g)

    def test_empty_graph_raises(self):
        with pytest.raises(GraphConnectivityError, match="no vertices"):
            spanning_tree_init(PoseGraph2D())


class TestGenerator:
    def test_zero_noise_residuals_vanish_at_truth(self):
        graph, truth = generate_manhattan_like(60, "nearby", None, trajectory_seed=1)
        problem = pose_graph_problem(graph, (NoiseGroup("all", 3, "ml"),))
        for f in problem.factors:
            np.testing.assert_allclose(residual(f, truth), np.zeros(3), atol=1e-10)

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
        poses = np.stack(truth.values)
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


def test_package_import_defers_scipy_spatial():
    # only the synthetic graph generator needs the KD-tree
    src = str(pathlib.Path(jointcov.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import jointcov.cli, "
            "jointcov.harness; sys.exit('scipy.spatial' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestGeneratorConfig:
    def test_parse_and_generate(self):
        text = """
# synthetic dataset
num_poses 40
scheme densified
seed 11
trajectory_seed 4
alpha 5
information odometry 1000 1000 800
information loop 100 200 150
"""
        cfg = parse_generator_config(text)
        assert cfg["num_poses"] == 40
        assert cfg["scheme"] == "densified"
        np.testing.assert_array_equal(cfg["information"]["odometry"],
                                      np.diag([1000.0, 1000.0, 800.0]))
        graph, truth = generate_from_config(cfg)
        assert graph.num_poses == 40

    def test_unknown_key_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown key"):
            parse_generator_config("bogus 3\n")


class TestProblemBuild:
    def test_heteroscedastic_group_assignment(self):
        graph, _ = generate_manhattan_like(150, "nearby", None, trajectory_seed=5)
        assert graph.edges_of_kind(LOOP)
        groups = (NoiseGroup(ODOMETRY, 3, "ml-eig", bounds=(1e-4, 1e4)),
                  NoiseGroup(LOOP, 3, "ml-eig", bounds=(1e-4, 1e4)))
        pb = pose_graph_problem(graph, groups)
        by_group = pb.factors_by_group
        assert len(by_group[ODOMETRY]) == 149
        assert len(by_group[ODOMETRY]) + len(by_group[LOOP]) == len(graph.edges)
        assert pb.gauge_fixed == frozenset({0})
