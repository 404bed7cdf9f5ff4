import time

import numpy as np
import pytest
from conftest import one_row_sets

from jointcov import io_pgo, nls
from jointcov import joint as joint_module
from jointcov.covariance import UnboundedProblem, mode_match_prior
from jointcov.joint import (
    ELIMINATION,
    HYBRID_BCD,
    JointConfig,
    calibrate,
    information_update,
    joint_objective,
    run_block_exact_bcd,
    run_elimination,
    run_hybrid_bcd,
)
from jointcov.manifold import ManifoldPoint, ManifoldSpec, boxplus, euclidean_block
from jointcov.nls import RIEMANNIAN_GD, NlsConfig
from jointcov.problem import JointProblem, NoiseGroup, linear_set, sample_covariance


def linear_joint_problem(rng, n=8, k=30, m=3, variant="ml", sigma_scale=0.3,
                         prior=None, bounds=None):
    spec = ManifoldSpec((euclidean_block("x", n),))
    x_true = np.ones(n)
    A = rng.normal(size=(m, m))
    sigma = sigma_scale * (A @ A.T / m + 0.5 * np.eye(m))
    L = np.linalg.cholesky(sigma)
    Hs = [rng.normal(size=(m, n)) for _ in range(k)]
    zs = [H @ x_true + L @ rng.normal(size=m) for H in Hs]
    group = NoiseGroup("g", m, variant, prior=prior, bounds=bounds)
    pb = JointProblem(spec, (linear_set("x", Hs, zs, "g"),), (group,))
    x0 = ManifoldPoint(spec, (np.zeros(n),))
    return pb, x0, sigma, x_true


class TestJointObjective:
    def test_single_group_identity(self):
        rng = np.random.default_rng(0)
        pb, x0, _, _ = linear_joint_problem(rng)
        S = sample_covariance(pb, x0, "g")
        # with P = S^-1 the value is logdet S + m
        P = np.linalg.inv(S)
        expected = np.linalg.slogdet(S)[1] + 3
        assert joint_objective(pb, x0, {"g": P}) == pytest.approx(expected, abs=1e-9)

    def test_reduced_form_matches(self):
        # the reduced objective equals the full objective at P*(x), at
        # arbitrary states (not just optima)
        rng = np.random.default_rng(1)
        pb, x0, _, _ = linear_joint_problem(rng)
        x = x0
        for _ in range(10):
            P, sols = information_update(pb, x)
            direct = joint_objective(pb, x, P)
            assert direct == pytest.approx(sols["g"].objective, abs=1e-10)
            x = boxplus(x, 0.2 * rng.normal(size=pb.manifold.tangent_dim))

    def test_descends_after_each_block_update(self):
        rng = np.random.default_rng(2)
        pb, x0, _, _ = linear_joint_problem(rng)
        res = run_block_exact_bcd(pb, x0, JointConfig(max_outer_iterations=6))
        values = [t.objective for t in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(values[1:], values[2:]))


class TestBlockExactBcd:
    def test_trace_non_increasing_and_converges(self):
        rng = np.random.default_rng(3)
        pb, x0, _, _ = linear_joint_problem(rng, k=50, m=5, n=20)
        res = run_block_exact_bcd(pb, x0, JointConfig(max_outer_iterations=25))
        values = [t.objective for t in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        assert res.converged
        assert res.iterations <= 25

    def test_zero_noise_map_recovers_truth_and_prior_blend(self):
        rng = np.random.default_rng(4)
        n, m, k = 6, 3, 20
        spec = ManifoldSpec((euclidean_block("x", n),))
        x_true = np.ones(n)
        Hs = [rng.normal(size=(m, n)) for _ in range(k)]
        factors = (linear_set("x", Hs, np.array(Hs) @ x_true, "g"),)
        sigma0 = np.diag([0.5, 1.0, 2.0])
        w = 0.25
        prior = mode_match_prior(sigma0, w, k)
        pb = JointProblem(spec, factors, (NoiseGroup("g", m, "map", prior=prior),))
        x0 = ManifoldPoint(spec, (np.zeros(n),))
        res = run_block_exact_bcd(pb, x0)
        np.testing.assert_allclose(res.x.block("x"), x_true, atol=1e-7)
        # with S = 0 the blend collapses to the pure prior part
        expected_sigma = (w / (w + 1.0)) * sigma0
        np.testing.assert_allclose(np.linalg.inv(res.information["g"]),
                                   expected_sigma, atol=1e-8)

    def test_near_stationary_at_convergence(self):
        from jointcov.joint import _reduced_value_and_grad

        rng = np.random.default_rng(30)
        pb, x0, _, _ = linear_joint_problem(rng, k=50, m=5, n=10)
        res = run_block_exact_bcd(pb, x0, JointConfig(max_outer_iterations=25))
        assert res.converged
        f, g, _, _, _ = _reduced_value_and_grad(pb, res.x)
        assert np.linalg.norm(g) <= 1e-3 * (1.0 + abs(f))

    def test_unbounded_ml_raises_with_group_info(self):
        rng = np.random.default_rng(5)
        n, m, k = 4, 5, 3  # k < m: singular sample covariance
        spec = ManifoldSpec((euclidean_block("x", n),))
        rows = [(rng.normal(size=(m, n)), rng.normal(size=m)) for _ in range(k)]
        factors = (linear_set("x", *map(np.array, zip(*rows)), "g"),)
        pb = JointProblem(spec, factors, (NoiseGroup("g", m, "ml"),))
        x0 = ManifoldPoint(spec, (np.zeros(n),))
        with pytest.raises(UnboundedProblem) as err:
            run_block_exact_bcd(pb, x0)
        assert err.value.group_id == "g"
        assert err.value.min_eigenvalue is not None


class TestInformationUpdate:
    @staticmethod
    def eigensolves(monkeypatch):
        """The list of jacobi_eigh calls made from here on."""
        from jointcov import covariance

        calls = []
        original = covariance.jacobi_eigh

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(covariance, "jacobi_eigh", counting)
        return calls

    @staticmethod
    def residual_group(z_rows, variant="ml", prior=None):
        """One group of linear rows r_i = z_i at x = 0, so S = Z^T Z / k."""
        k, m, n = len(z_rows), len(z_rows[0]), 2
        spec = ManifoldSpec((euclidean_block("x", n),))
        factors = (linear_set("x", np.zeros((k, m, n)), z_rows, "g"),)
        pb = JointProblem(spec, factors, (NoiseGroup("g", m, variant, prior=prior),))
        return pb, ManifoldPoint(spec, (np.zeros(n),))

    def test_map_unconstrained_update_skips_the_eigensolve(self, monkeypatch):
        # the prior-blended M is positive definite by construction
        from jointcov.covariance import solve_inner_unconstrained
        from jointcov.joint import second_moments

        rng = np.random.default_rng(7)
        pb, x0, _, _ = linear_joint_problem(
            rng, variant="map", prior=mode_match_prior(0.3 * np.eye(3), 0.1, 30))
        calls = self.eigensolves(monkeypatch)
        P, sols = information_update(pb, x0)
        assert len(calls) == 0
        checked = solve_inner_unconstrained(second_moments(pb, x0)["g"])
        np.testing.assert_array_equal(P["g"], checked.information)
        assert sols["g"].objective == checked.objective

    def test_well_conditioned_prior_free_update_skips_the_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(7)
        pb, x0, _, _ = linear_joint_problem(rng, variant="ml")
        calls = self.eigensolves(monkeypatch)
        information_update(pb, x0)
        assert len(calls) == 0

    def test_near_singular_prior_free_update_diagnoses_and_raises(self, monkeypatch):
        # S = diag(1, 1e-14) passes Cholesky, but its smallest eigenvalue is
        # below the singularity threshold 1e-12 tr(S) / m
        pb, x0 = self.residual_group(
            [[1.0, 1e-7], [1.0, -1e-7], [-1.0, 1e-7], [-1.0, -1e-7]])
        calls = self.eigensolves(monkeypatch)
        with pytest.raises(UnboundedProblem) as err:
            information_update(pb, x0)
        assert len(calls) == 1
        assert err.value.group_id == "g"
        assert str(err.value).startswith("group 'g': sample covariance is singular")
        assert "prior-free" in str(err.value)

    def test_map_update_with_a_near_zero_prior_raises(self):
        # the third residual component is exactly zero, so the blended M has
        # lambda_min = w k sigma0 / gamma, far below the singularity threshold
        sigma0 = 1e-15
        z_rows = [[1.0, 0.5, 0.0], [-0.3, 1.0, 0.0], [0.2, -0.7, 0.0], [-1.0, 0.1, 0.0]]
        prior = mode_match_prior(sigma0 * np.eye(3), 0.1, len(z_rows))
        pb, x0 = self.residual_group(z_rows, variant="map", prior=prior)
        with pytest.raises(UnboundedProblem) as err:
            information_update(pb, x0)
        assert err.value.group_id == "g"
        assert err.value.min_eigenvalue == pytest.approx(0.1 * 4 * sigma0 / 4.4)
        message = str(err.value)
        assert message.startswith("group 'g': prior-blended second moment is singular")
        assert "prior-free" not in message


class TestGroupScaling:
    def test_x_step_is_stationary_for_joint_objective(self):
        # two groups with different sizes and estimators: the NLS half-step
        # must minimize F itself, which requires the per-group scale on the
        # weights; verified by finite differences of F at the step's result
        from jointcov import nls as nls_mod
        from jointcov.joint import _scaled_weights

        rng = np.random.default_rng(40)
        n = 6
        spec = ManifoldSpec((euclidean_block("x", n),))
        x_true = rng.normal(size=n)
        factors = []
        for gid, m, k, noise in (("a", 2, 8, 0.1), ("b", 3, 40, 0.5)):
            Hs, zs = [], []
            for _ in range(k):
                Hs.append(H := rng.normal(size=(m, n)))
                zs.append(H @ x_true + noise * rng.normal(size=m))
            factors.append(linear_set("x", Hs, zs, gid))
        prior = mode_match_prior(np.eye(3), 0.5, 40)
        groups = (NoiseGroup("a", 2, "ml"), NoiseGroup("b", 3, "map", prior=prior))
        pb = JointProblem(spec, tuple(factors), groups)
        x0 = ManifoldPoint(spec, (np.zeros(n),))
        P, _ = information_update(pb, x0)

        res = nls_mod.solve_fixed_P(pb, x0, _scaled_weights(pb, P))
        assert res.converged
        f0 = joint_objective(pb, res.x, P)
        h = 1e-6
        grad_fd = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fp = joint_objective(pb, boxplus(res.x, e), P)
            fm = joint_objective(pb, boxplus(res.x, -e), P)
            grad_fd[j] = (fp - fm) / (2 * h)
        assert np.linalg.norm(grad_fd) <= 1e-5 * (1.0 + abs(f0))


def count_dampings(monkeypatch):
    """The damping of every factorization the solvers make, in order."""
    dampings = []
    original = nls.LinearizedSystem.solve_damped

    def counting(system, damping):
        dampings.append(damping)
        return original(system, damping)

    monkeypatch.setattr(nls.LinearizedSystem, "solve_damped", counting)
    return dampings


class TestHybridBcd:
    def test_damping_carries_over_after_a_rejected_undamped_step(self, monkeypatch):
        # a spanning-tree start moved by a large random step: the first
        # undamped step raises the cost, DAMPING_INIT is accepted, and the
        # later x-steps start there instead of factorizing for 0 again
        noise = io_pgo.SyntheticNoiseSpec({"all": np.diag([100.0, 100.0, 200.0])}, seed=3)
        graph, _ = io_pgo.generate_manhattan_like(30, "nearby", noise, trajectory_seed=1)
        pb = io_pgo.pose_graph_problem(
            graph, [NoiseGroup("all", 3, "ml-eig", bounds=(1e-4, 1e4))])
        x0 = boxplus(io_pgo.spanning_tree_init(graph),
                     np.random.default_rng(3).normal(scale=2.0, size=pb.manifold.tangent_dim))
        dampings = count_dampings(monkeypatch)
        cfg = JointConfig(algorithm=HYBRID_BCD, max_outer_iterations=5)
        res = run_hybrid_bcd(pb, x0, cfg)
        assert res.iterations == 5
        assert len(dampings) == res.iterations + 1
        assert dampings == [0.0] + [nls.DAMPING_INIT] * res.iterations

    def test_linear_x_steps_stay_undamped(self, monkeypatch):
        rng = np.random.default_rng(32)
        pb, x0, _, _ = linear_joint_problem(rng)
        dampings = count_dampings(monkeypatch)
        res = run_hybrid_bcd(pb, x0, JointConfig(algorithm=HYBRID_BCD,
                                                 max_outer_iterations=6))
        assert len(dampings) == res.iterations
        assert set(dampings) == {0.0}
        # the first x-step is the GLS solution at the initial P
        P0 = information_update(pb, x0)[0]["g"]
        (fs,) = pb.factors
        Hs, zs = fs.H, fs.z
        A = sum(H.T @ P0 @ H for H in Hs)
        b = sum(H.T @ P0 @ z for H, z in zip(Hs, zs))
        first = run_hybrid_bcd(pb, x0, JointConfig(algorithm=HYBRID_BCD,
                                                   max_outer_iterations=1))
        np.testing.assert_allclose(first.x.block("x"), np.linalg.solve(A, b), atol=1e-9)

    def test_descent_with_backtracking_gd(self):
        rng = np.random.default_rng(6)
        pb, x0, _, _ = linear_joint_problem(rng)
        cfg = JointConfig(algorithm=HYBRID_BCD, max_outer_iterations=10,
                          nls=NlsConfig(step_mode=RIEMANNIAN_GD))
        res = run_hybrid_bcd(pb, x0, cfg)
        values = [t.objective for t in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))

    def test_trace_has_gradient_proxy(self):
        rng = np.random.default_rng(31)
        pb, x0, _, _ = linear_joint_problem(rng)
        cfg = JointConfig(algorithm=HYBRID_BCD, max_outer_iterations=4)
        res = run_hybrid_bcd(pb, x0, cfg)
        assert all(np.isfinite(t.gradient_norm) for t in res.trace
                   if t.phase != "init")

    def test_fixed_groups_degenerate_to_iterated_nls(self):
        rng = np.random.default_rng(7)
        pb, x0, sigma, _ = linear_joint_problem(rng)
        P_fixed = np.linalg.inv(sigma)
        pb_fixed = JointProblem(
            pb.manifold, pb.factors,
            (NoiseGroup("g", 3, "fixed", information=P_fixed),))
        res = run_hybrid_bcd(pb_fixed, x0, JointConfig(max_outer_iterations=8))
        np.testing.assert_allclose(res.information["g"], P_fixed)

    def test_eig_variant_never_produces_indefinite_P(self, monkeypatch):
        rng = np.random.default_rng(8)
        pb, x0, _, _ = linear_joint_problem(rng, variant="ml-eig",
                                            bounds=(1e-4, 1e4))
        updates = []
        original = joint_module.information_update

        def spy(*args, **kwargs):
            P, solutions = original(*args, **kwargs)
            updates.append(P["g"].copy())
            return P, solutions

        monkeypatch.setattr(joint_module, "information_update", spy)
        res = run_hybrid_bcd(pb, x0, JointConfig(max_outer_iterations=13))
        # every P update along the run, the last included, kept a PD
        # covariance within the bounds
        assert len(updates) == res.iterations + 1
        np.testing.assert_array_equal(updates[-1], res.information["g"])
        for P in updates:
            eigs = np.linalg.eigvalsh(P)
            assert eigs.min() > 0
            sigma_eigs = 1.0 / eigs
            assert sigma_eigs.min() >= 1e-4 - 1e-12
            assert sigma_eigs.max() <= 1e4 + 1e-12


class TestElimination:
    def test_matches_block_exact_bcd_on_linear(self):
        rng = np.random.default_rng(9)
        pb, x0, _, _ = linear_joint_problem(rng, k=40, m=4, n=8)
        bcd = run_block_exact_bcd(pb, x0, JointConfig(max_outer_iterations=25))
        elim = run_elimination(pb, x0, JointConfig(
            algorithm=ELIMINATION, max_outer_iterations=400, f_tol=1e-12))
        assert abs(bcd.objective - elim.objective) <= 1e-6

    def test_reduced_gradient_matches_finite_differences(self):
        from jointcov.joint import _reduced_value_and_grad

        rng = np.random.default_rng(10)
        pb, x0, _, _ = linear_joint_problem(rng, n=5, k=12, m=3)
        x = boxplus(x0, rng.normal(size=5) * 0.3)
        _, g, _, _, index = _reduced_value_and_grad(pb, x)
        h = 1e-6
        g_fd = np.empty_like(g)
        for j in range(len(g)):
            e = np.zeros(len(g))
            e[j] = h
            fp = _reduced_value_and_grad(pb, boxplus(x, index.scatter(e)))[0]
            fm = _reduced_value_and_grad(pb, boxplus(x, index.scatter(-e)))[0]
            g_fd[j] = (fp - fm) / (2 * h)
        np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)

    def test_descends_on_pose_graph_manifold(self):
        # chart re-centering across SE(2) blocks: monotone descent and a
        # final objective no worse than block-exact BCD's within tolerance
        # (both are local methods on a non-convex problem)
        from jointcov.io_pgo import (SyntheticNoiseSpec,
                                     generate_manhattan_like,
                                     pose_graph_problem, spanning_tree_init)

        info = {"all": 10.0 * np.diag([20.0, 40.0, 30.0])}
        graph, _ = generate_manhattan_like(
            40, "nearby", SyntheticNoiseSpec(info, seed=2), trajectory_seed=12)
        pb = pose_graph_problem(
            graph, (NoiseGroup("all", 3, "ml-eig", bounds=(1e-4, 1e4)),))
        x0 = spanning_tree_init(graph)
        elim = run_elimination(pb, x0, JointConfig(
            algorithm=ELIMINATION, max_outer_iterations=200))
        values = [t.objective for t in elim.trace]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        bcd = run_block_exact_bcd(pb, x0, JointConfig(max_outer_iterations=30))
        assert elim.objective <= bcd.objective + 0.1 * abs(bcd.objective)
        for bid in pb.gauge_fixed:
            np.testing.assert_array_equal(elim.x.block(bid), x0.block(bid))

    def test_final_P_equals_inner_solution_at_solution(self):
        rng = np.random.default_rng(11)
        pb, x0, _, _ = linear_joint_problem(rng)
        res = run_elimination(pb, x0, JointConfig(
            algorithm=ELIMINATION, max_outer_iterations=200))
        P_check, _ = information_update(pb, res.x)
        np.testing.assert_array_equal(res.information["g"], P_check["g"])

    def test_remark_equivalence_along_trace(self):
        # reduced objective (logdet M + m) equals F(x, P*(x)) at trace points
        rng = np.random.default_rng(12)
        pb, x0, _, _ = linear_joint_problem(rng)
        res = run_elimination(pb, x0, JointConfig(
            algorithm=ELIMINATION, max_outer_iterations=30))
        # spot-check the final point
        full = joint_objective(pb, res.x, res.information)
        assert full == pytest.approx(res.objective, abs=1e-10)

    def test_one_linearization_gives_S_and_gradient_exactly(self, monkeypatch):
        # the reduced evaluation forms each S from the residuals of the
        # linearization it assembles the gradient from; both must equal the
        # separate evaluations bit for bit, also through preprocessing
        # Jacobians and a group of several batches, and k-row sets must give
        # the same bits as their rows as one-row sets
        from jointcov import joint
        from jointcov.joint import _reduced_value_and_grad, group_scale
        from jointcov.manifold import se2_block
        from jointcov.nls import build_system
        from jointcov.problem import relative_se2_set, residual_covariance

        rng = np.random.default_rng(17)
        spec = ManifoldSpec(tuple(se2_block(i) for i in range(5))
                            + (euclidean_block("w", 3),))
        J = np.array([[1.0, 0.4, 0.0], [0.0, 2.0, 0.1], [0.0, 0.0, 0.5]])
        sets = (
            relative_se2_set([0, 2, 4], [1, 3, 0], rng.uniform(-1, 1, (3, 3)), "a"),
            relative_se2_set([1, 3], [2, 4], rng.uniform(-1, 1, (2, 3)), "a",
                             preprocess_jacobian=[J, 2.0 * J]),
            linear_set("w", rng.normal(size=(1, 3, 3)), rng.normal(size=(1, 3)), "a"),
            relative_se2_set([0, 1], [2, 3], rng.uniform(-1, 1, (2, 3)), "a"),
            relative_se2_set([2, 3, 4], [4, 0, 1], rng.uniform(-1, 1, (3, 3)), "b",
                             preprocess_jacobian=[np.eye(3), 2.0 * J, J.T]),
        )
        groups = (NoiseGroup("a", 3, "ml-eig", bounds=(1e-4, 1e4)),
                  NoiseGroup("b", 3, "ml-eig", bounds=(1e-4, 1e4)))
        pb = JointProblem(spec, sets, groups, frozenset({0}))
        rows = JointProblem(spec, [r for fs in sets for r in one_row_sets(fs)], groups,
                            frozenset({0}))
        assert [len(pb.batches[g]) for g in "ab"] == [4, 1]
        assert [len(rows.batches[g]) for g in "ab"] == [8, 3] == [pb.group_sizes[g]
                                                                  for g in "ab"]
        x = ManifoldPoint(spec, tuple(rng.uniform(-1, 1, d) for d in spec.dims))

        formed = {}

        def spy(problem, group_id, R):
            formed[group_id] = residual_covariance(problem, group_id, R)
            return formed[group_id]

        monkeypatch.setattr(joint, "residual_covariance", spy)
        value, gradient, P, _, _ = _reduced_value_and_grad(pb, x)
        for g in groups:
            np.testing.assert_array_equal(formed[g.group_id],
                                          sample_covariance(pb, x, g.group_id))
        weights = {g.group_id: 2.0 * (group_scale(g, pb.group_sizes[g.group_id])
                                      * P[g.group_id]) for g in groups}
        np.testing.assert_array_equal(
            gradient, build_system(pb, x, weights, with_hessian=False).gradient)
        value_rows, gradient_rows, P_rows, _, _ = _reduced_value_and_grad(rows, x)
        assert value == value_rows
        np.testing.assert_array_equal(gradient, gradient_rows)
        for g in groups:
            np.testing.assert_array_equal(P[g.group_id], P_rows[g.group_id])


class TestSettings:
    @pytest.mark.parametrize("make, kwargs", [
        (JointConfig, {"max_outer_iterations": 2.5}),
        (JointConfig, {"max_outer_iterations": 0}),
        (JointConfig, {"max_outer_iterations": True}),
        (JointConfig, {"f_tol": np.nan}),
        (JointConfig, {"f_tol": np.inf}),
        (JointConfig, {"f_tol": -1.0}),
        (NlsConfig, {"max_iterations": 2.5}),
        (NlsConfig, {"max_iterations": 0}),
        (NlsConfig, {"max_iterations": True}),
    ], ids=["outer-float", "outer-0", "outer-bool", "f_tol-nan", "f_tol-inf",
            "f_tol-negative", "nls-float", "nls-0", "nls-bool"])
    def test_bad_setting_fails_at_construction(self, make, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make(**kwargs)

    def test_edge_settings_accepted(self):
        JointConfig(max_outer_iterations=np.int64(1), f_tol=0.0)
        NlsConfig(max_iterations=1)


class TestNothingFree:
    def test_every_driver_keeps_the_start_when_every_block_is_gauge_fixed(self):
        rng = np.random.default_rng(5)
        spec = ManifoldSpec((euclidean_block("x", 3),))
        fs = linear_set("x", rng.normal(size=(10, 2, 3)), rng.normal(size=(10, 2)), "g")
        pb = JointProblem(spec, (fs,), (NoiseGroup("g", 2, "ml"),), frozenset({"x"}))
        x0 = ManifoldPoint(spec, (np.ones(3),))
        P0 = information_update(pb, x0)[0]["g"]
        runs = [(run_block_exact_bcd, JointConfig(), 2),
                (run_hybrid_bcd, JointConfig(algorithm=HYBRID_BCD), 2),
                (run_hybrid_bcd, JointConfig(algorithm=HYBRID_BCD,
                                             nls=NlsConfig(step_mode=RIEMANNIAN_GD)), 2),
                (run_elimination, JointConfig(algorithm=ELIMINATION), 0)]
        for run, cfg, iterations in runs:
            res = run(pb, x0, cfg)
            np.testing.assert_array_equal(res.x.vector, x0.vector)
            np.testing.assert_allclose(res.information["g"], P0, rtol=1e-12)
            assert res.converged and res.iterations == iterations
        fixed = nls.solve_fixed_P(pb, x0, {"g": np.eye(2)})
        np.testing.assert_array_equal(fixed.x.vector, x0.vector)
        assert fixed.converged and not fixed.lm_failure and fixed.gradient_norm == 0.0


class TestTrace:
    """One entry per half-step, each timing its own work."""

    def test_bcd_entries_time_their_half_steps(self, monkeypatch):
        rng = np.random.default_rng(21)
        pb, x0, _, _ = linear_joint_problem(rng, n=6, k=25, m=3)
        original = joint_module.information_update

        def slow(*args, **kwargs):
            time.sleep(0.02)
            return original(*args, **kwargs)

        monkeypatch.setattr(joint_module, "information_update", slow)
        start = time.perf_counter()
        res = run_block_exact_bcd(pb, x0, JointConfig(max_outer_iterations=3))
        elapsed_ms = (time.perf_counter() - start) * 1e3
        assert [(t.iteration, t.phase) for t in res.trace] == [(0, "init")] + [
            (i, phase) for i in range(1, 4) for phase in ("x-step", "p-step")]
        assert res.trace[-1].objective == res.objective
        for t in res.trace:
            assert (t.wall_ms >= 20.0) == (t.phase != "x-step"), t
        assert sum(t.wall_ms for t in res.trace) <= elapsed_ms

    def test_elimination_entries_are_x_steps(self):
        rng = np.random.default_rng(21)
        pb, x0, _, _ = linear_joint_problem(rng, n=6, k=25, m=3)
        start = time.perf_counter()
        res = run_elimination(pb, x0, JointConfig(algorithm=ELIMINATION,
                                                  max_outer_iterations=20))
        elapsed_ms = (time.perf_counter() - start) * 1e3
        assert [(t.iteration, t.phase) for t in res.trace] == [(0, "init")] + [
            (i, "x-step") for i in range(1, res.iterations + 1)]
        assert res.trace[-1].objective == res.objective
        assert all(t.wall_ms >= 0.0 for t in res.trace)
        assert sum(t.wall_ms for t in res.trace) <= elapsed_ms


class TestCalibrate:
    def test_returns_inner_solution_at_truth(self):
        rng = np.random.default_rng(13)
        pb, x0, sigma, x_true_vec = linear_joint_problem(rng, k=60)
        x_true = ManifoldPoint(pb.manifold, (x_true_vec,))
        P = calibrate(pb, x_true)
        S = sample_covariance(pb, x_true, "g")
        np.testing.assert_allclose(P["g"], np.linalg.inv(S), atol=1e-9)

    def test_zero_residual_ml_eig_clamps_to_lam_min(self):
        rng = np.random.default_rng(14)
        n, m, k = 4, 3, 10
        spec = ManifoldSpec((euclidean_block("x", n),))
        x_true = rng.normal(size=n)
        Hs = rng.normal(size=(k, m, n))
        pb = JointProblem(spec, (linear_set("x", Hs, Hs @ x_true, "g"),),
                          (NoiseGroup("g", m, "ml-eig", bounds=(1e-4, 1e4)),))
        P = calibrate(pb, ManifoldPoint(spec, (x_true,)))
        np.testing.assert_allclose(P["g"], np.eye(m) / 1e-4, rtol=1e-9)

    def test_preprocessed_measurements_recover_raw_covariance(self):
        # measurements carry noise transformed by a known Jacobian J; the
        # sample covariance built from J^-1 r maps the estimate back to
        # raw-measurement space
        from jointcov.harness import wasserstein2

        rng = np.random.default_rng(16)
        n, m, k = 6, 3, 5000
        spec = ManifoldSpec((euclidean_block("x", n),))
        x_true = rng.normal(size=n)
        sigma_raw = np.diag([0.5, 0.1, 0.9])
        L = np.linalg.cholesky(sigma_raw)
        J = np.array([[1.0, 0.4, 0.0], [0.0, 2.0, 0.1], [0.0, 0.0, 0.5]])
        Hs, zs = [], []
        for i in range(k):
            Hs.append(H := rng.normal(size=(m, n)))
            eps = L @ rng.normal(size=m)
            zs.append(H @ x_true + J @ eps)
        fs = linear_set("x", Hs, zs, "g", preprocess_jacobian=np.broadcast_to(J, (k, m, m)))
        pb = JointProblem(spec, (fs,), (NoiseGroup("g", m, "ml"),))
        P = calibrate(pb, ManifoldPoint(spec, (x_true,)))
        sigma_est = np.linalg.inv(P["g"])
        assert wasserstein2(sigma_est, sigma_raw) <= 0.05 * np.trace(sigma_raw)

    def test_consistency_with_growing_k(self):
        # covariance estimate approaches the truth as k grows
        from jointcov.harness import wasserstein2

        rng = np.random.default_rng(15)
        errors = []
        for k in (100, 1000, 10000):
            pb, _, sigma, x_true_vec = linear_joint_problem(
                rng, n=6, k=k, m=3, sigma_scale=1.0)
            x_true = ManifoldPoint(pb.manifold, (x_true_vec,))
            P = calibrate(pb, x_true)
            errors.append(wasserstein2(np.linalg.inv(P["g"]), sigma))
        assert errors[2] < errors[0]


class TestInitialPointSpec:
    """Every solver rejects a start on another spec before evaluating."""

    SOLVERS = {
        "hybrid-bcd": run_hybrid_bcd,
        "block-exact-bcd": run_block_exact_bcd,
        "elimination": run_elimination,
        "fixed-P": lambda pb, x: nls.solve_fixed_P(pb, x, {"all": np.eye(3)}),
    }

    @pytest.mark.parametrize("num_poses", [20, 40])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_start_on_another_spec_rejected(self, solver, num_poses):
        graph, _ = io_pgo.generate_manhattan_like(30, "nearby", None, trajectory_seed=1)
        pb = io_pgo.pose_graph_problem(graph, (NoiseGroup("all", 3, "ml"),))
        x0 = ManifoldPoint.from_arrays(io_pgo.pose_manifold(num_poses),
                                       np.zeros((num_poses, 3)))
        with pytest.raises(ValueError, match="^the initial point lives on a different "
                                             "manifold spec$"):
            self.SOLVERS[solver](pb, x0)
