import numpy as np
import pytest

from jointcov.manifold import (
    ManifoldPoint,
    ManifoldSpec,
    euclidean_block,
    se2_block,
    se2_compose,
)
from jointcov.nls import (
    RIEMANNIAN_GD,
    SINGLE_ITERATION,
    NlsConfig,
    build_system,
    solve_fixed_P,
    step_once,
    weighted_cost,
)
from jointcov.problem import (
    JointProblem,
    NoiseGroup,
    linear_factor,
    prior_factor,
    relative_se2_factor,
)


def linear_problem(rng, n=6, k=12, m=3):
    spec = ManifoldSpec((euclidean_block("x", n),))
    x_true = rng.normal(size=n)
    Hs = [rng.normal(size=(m, n)) for _ in range(k)]
    zs = [H @ x_true + 0.05 * rng.normal(size=m) for H in Hs]
    factors = [linear_factor(i, "x", H, z, "g") for i, (H, z) in enumerate(zip(Hs, zs))]
    pb = JointProblem(spec, tuple(factors), (NoiseGroup("g", m, "ml"),))
    return pb, spec, Hs, zs, x_true


def gls_solution(Hs, zs, P):
    A = sum(H.T @ P @ H for H in Hs)
    b = sum(H.T @ P @ z for H, z in zip(Hs, zs))
    return np.linalg.solve(A, b)


def chain_problem(n=6, noise=None, gauge=True):
    """Pose chain 0 -> 1 -> ... with unit-x odometry and one loop closure."""
    rng = np.random.default_rng(99)
    spec = ManifoldSpec(tuple(se2_block(i) for i in range(n)))
    truth = [np.zeros(3)]
    for i in range(1, n):
        step = np.array([1.0, 0.0, 0.35 if i % 2 else -0.2])
        truth.append(se2_compose(truth[-1], step))
    factors = []
    fid = 0
    from jointcov.manifold import exp_se2, se2_inverse

    def measure(i, j):
        z = se2_compose(se2_inverse(truth[i]), truth[j])
        if noise:
            z = se2_compose(z, exp_se2(noise * rng.normal(size=3)))
        return z

    for i in range(n - 1):
        factors.append(relative_se2_factor(fid, i, i + 1, measure(i, i + 1), "g"))
        fid += 1
    factors.append(relative_se2_factor(fid, 0, n - 1, measure(0, n - 1), "g"))
    pb = JointProblem(spec, tuple(factors), (NoiseGroup("g", 3, "ml"),),
                      frozenset({0} if gauge else ()))
    x_true = ManifoldPoint(spec, tuple(truth))
    return pb, x_true


class TestConfig:
    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            NlsConfig(cost_tol=0.0)
        with pytest.raises(ValueError):
            NlsConfig(grad_tol=-1.0)

    def test_unknown_step_mode_rejected(self):
        with pytest.raises(ValueError):
            NlsConfig(step_mode="newton")


class TestWeightedCost:
    def test_zero_residuals(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.array([1.0, 2.0]),))
        f = prior_factor(0, "x", [1.0, 2.0], "g")
        pb = JointProblem(spec, (f,), (NoiseGroup("g", 2, "ml"),))
        assert weighted_cost(pb, x, {"g": np.eye(2)}) == 0.0

    def test_unit_residual(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        f = prior_factor(0, "x", [1.0, 0.0], "g")
        pb = JointProblem(spec, (f,), (NoiseGroup("g", 2, "ml"),))
        assert weighted_cost(pb, x, {"g": np.eye(2)}) == pytest.approx(0.5)

    def test_weighted(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        f = prior_factor(0, "x", [1.0, 1.0], "g")
        pb = JointProblem(spec, (f,), (NoiseGroup("g", 2, "ml"),))
        assert weighted_cost(pb, x, {"g": np.diag([2.0, 4.0])}) == pytest.approx(3.0)


class TestSolveFixedP:
    def test_matches_generalized_least_squares(self):
        rng = np.random.default_rng(1)
        pb, spec, Hs, zs, _ = linear_problem(rng)
        P = np.diag([2.0, 0.5, 1.0])
        x0 = ManifoldPoint(spec, (np.zeros(6),))
        res = solve_fixed_P(pb, x0, {"g": P})
        expected = gls_solution(Hs, zs, P)
        np.testing.assert_allclose(res.x.block("x"), expected, atol=1e-8)
        assert res.converged

    def test_zero_noise_chain_recovers_truth(self):
        pb, x_true = chain_problem(noise=None)
        x0 = pb.manifold.identity()
        res = solve_fixed_P(pb, x0, {"g": np.eye(3)})
        assert res.cost <= 1e-16
        for i in range(6):
            np.testing.assert_allclose(res.x.block(i), x_true.block(i), atol=1e-7)

    def test_cost_monotone_over_accepted_steps(self):
        pb, _ = chain_problem(noise=0.05)
        x0 = pb.manifold.identity()
        res = solve_fixed_P(pb, x0, {"g": np.diag([5.0, 5.0, 8.0])})
        costs = [t[1] for t in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        assert res.converged

    def test_gauge_block_never_moves(self):
        pb, _ = chain_problem(noise=0.05)
        x0 = pb.manifold.identity()
        res = solve_fixed_P(pb, x0, {"g": np.eye(3)})
        np.testing.assert_array_equal(res.x.block(0), np.zeros(3))

    def test_missing_gauge_detected_as_singular(self):
        pb, _ = chain_problem(noise=0.05, gauge=False)
        x0 = pb.manifold.identity()
        system = build_system(pb, x0, {"g": np.eye(3)})
        assert not system.hessian_is_positive_definite()
        pb2, _ = chain_problem(noise=0.05, gauge=True)
        system2 = build_system(pb2, x0, {"g": np.eye(3)})
        assert system2.hessian_is_positive_definite()

    def test_sparse_path_matches_dense(self):
        pb, _ = chain_problem(noise=0.03)
        x0 = pb.manifold.identity()
        cfg_dense = NlsConfig(dense_threshold=10_000)
        cfg_sparse = NlsConfig(dense_threshold=1)
        rd = solve_fixed_P(pb, x0, {"g": np.eye(3)}, cfg_dense)
        rs = solve_fixed_P(pb, x0, {"g": np.eye(3)}, cfg_sparse)
        for i in range(6):
            np.testing.assert_allclose(rs.x.block(i), rd.x.block(i), atol=1e-8)


class TestSparsity:
    def test_hessian_fill_matches_adjacency(self):
        pb, _ = chain_problem(noise=0.02)
        x0 = pb.manifold.identity()
        system = build_system(pb, x0, {"g": np.eye(3)},
                              dense_threshold=1)  # force sparse
        # expected block pairs: factor connectivity among active blocks
        expected = set()
        for f in pb.factors:
            u, v = f.block_ids
            for b in (u, v):
                if b not in pb.gauge_fixed:
                    expected.add((b, b))
            if u not in pb.gauge_fixed and v not in pb.gauge_fixed:
                expected.add(tuple(sorted((u, v))))
        # structural check on the assembled matrix: nonzero blocks are
        # exactly the connected pairs (blocks 1..5 are active)
        H = system.hessian.toarray()
        n_blocks = 5
        for bi in range(n_blocks):
            for bj in range(n_blocks):
                sub = H[3 * bi : 3 * bi + 3, 3 * bj : 3 * bj + 3]
                key = tuple(sorted((bi + 1, bj + 1)))
                assert np.any(sub != 0.0) == (key in expected)


class TestStepOnce:
    def test_stationary_point_fixed(self):
        rng = np.random.default_rng(2)
        pb, spec, Hs, zs, _ = linear_problem(rng)
        P = np.eye(3)
        x_star = ManifoldPoint(spec, (gls_solution(Hs, zs, P),))
        x_next = step_once(pb, x_star, {"g": P}, NlsConfig(step_mode=SINGLE_ITERATION))
        np.testing.assert_allclose(x_next.block("x"), x_star.block("x"), atol=1e-10)

    def test_linear_single_iteration_reaches_gls(self):
        rng = np.random.default_rng(3)
        pb, spec, Hs, zs, _ = linear_problem(rng)
        P = np.diag([1.0, 3.0, 0.5])
        x0 = ManifoldPoint(spec, (rng.normal(size=6),))
        x1 = step_once(pb, x0, {"g": P}, NlsConfig(step_mode=SINGLE_ITERATION))
        np.testing.assert_allclose(x1.block("x"), gls_solution(Hs, zs, P), atol=1e-9)

    def test_descent_on_pose_graph(self):
        pb, _ = chain_problem(noise=0.1)
        x0 = pb.manifold.identity()
        W = {"g": np.eye(3)}
        for mode in (SINGLE_ITERATION, RIEMANNIAN_GD):
            x1 = step_once(pb, x0, W, NlsConfig(step_mode=mode))
            assert weighted_cost(pb, x1, W) <= weighted_cost(pb, x0, W)

    def test_riemannian_gd_fixed_step_descends_or_stays(self):
        pb, _ = chain_problem(noise=0.1)
        x0 = pb.manifold.identity()
        W = {"g": np.eye(3)}
        x1 = step_once(pb, x0, W, NlsConfig(step_mode=RIEMANNIAN_GD, gd_step=1e-3))
        assert weighted_cost(pb, x1, W) <= weighted_cost(pb, x0, W)
