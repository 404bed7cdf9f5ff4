from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from conftest import one_row_sets, origin
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointcov.manifold import (
    ManifoldPoint,
    ManifoldSpec,
    euclidean_block,
    se2_block,
    se2_compose,
    se2_inverse,
)
from jointcov import nls
from jointcov.nls import (
    NlsConfig,
    build_system,
    solve_fixed_P,
    step_once,
    weighted_cost,
)
from jointcov import problem as problem_module
from jointcov.problem import (
    HessianPattern,
    JointProblem,
    LinearBatch,
    NoiseGroup,
    group_residuals,
    linear_set,
    prior_set,
    relative_se2_set,
)


def linear_problem(rng, n=6, k=12, m=3):
    spec = ManifoldSpec((euclidean_block("x", n),))
    x_true = rng.normal(size=n)
    Hs = [rng.normal(size=(m, n)) for _ in range(k)]
    zs = [H @ x_true + 0.05 * rng.normal(size=m) for H in Hs]
    pb = JointProblem(spec, (linear_set("x", Hs, zs, "g"),), (NoiseGroup("g", m, "ml"),))
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
    from jointcov.manifold import exp_se2, se2_inverse

    def measure(i, j):
        z = se2_compose(se2_inverse(truth[i]), truth[j])
        if noise:
            z = se2_compose(z, exp_se2(noise * rng.normal(size=3)))
        return z

    a, b = [*range(n - 1), 0], [*range(1, n), n - 1]
    fs = relative_se2_set(a, b, [measure(i, j) for i, j in zip(a, b)], "g")
    pb = JointProblem(spec, (fs,), (NoiseGroup("g", 3, "ml"),),
                      frozenset({0} if gauge else ()))
    x_true = ManifoldPoint(spec, tuple(truth))
    return pb, x_true


class TestConfig:
    def test_unknown_step_mode_rejected(self):
        with pytest.raises(ValueError):
            NlsConfig(step_mode="newton")


class TestWeightedCost:
    def test_zero_residuals(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.array([1.0, 2.0]),))
        pb = JointProblem(spec, (prior_set("x", [[1.0, 2.0]], "g"),), (NoiseGroup("g", 2, "ml"),))
        assert weighted_cost(pb, x, {"g": np.eye(2)}) == 0.0

    def test_unit_residual(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        pb = JointProblem(spec, (prior_set("x", [[1.0, 0.0]], "g"),), (NoiseGroup("g", 2, "ml"),))
        assert weighted_cost(pb, x, {"g": np.eye(2)}) == pytest.approx(0.5)

    def test_weighted(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        pb = JointProblem(spec, (prior_set("x", [[1.0, 1.0]], "g"),), (NoiseGroup("g", 2, "ml"),))
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
        x0 = origin(pb.manifold)
        res = solve_fixed_P(pb, x0, {"g": np.eye(3)})
        assert res.cost <= 1e-16
        for i in range(6):
            np.testing.assert_allclose(res.x.block(i), x_true.block(i), atol=1e-7)

    def test_cost_monotone_over_accepted_steps(self):
        pb, _ = chain_problem(noise=0.05)
        x0 = origin(pb.manifold)
        W = {"g": np.diag([5.0, 5.0, 8.0])}
        res = solve_fixed_P(pb, x0, W)
        assert res.converged and res.iterations > 2
        # a run capped at i iterations is the first i of the full run
        costs = [solve_fixed_P(pb, x0, W, NlsConfig(max_iterations=i)).cost
                 for i in range(1, res.iterations + 1)]
        assert costs[-1] == res.cost
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_gauge_block_never_moves(self):
        pb, _ = chain_problem(noise=0.05)
        x0 = origin(pb.manifold)
        res = solve_fixed_P(pb, x0, {"g": np.eye(3)})
        np.testing.assert_array_equal(res.x.block(0), np.zeros(3))

    def test_missing_gauge_detected_as_singular(self):
        pb, _ = chain_problem(noise=0.05, gauge=False)
        x0 = origin(pb.manifold)
        eigs = np.linalg.eigvalsh(build_system(pb, x0, {"g": np.eye(3)}).hessian)
        assert eigs[0] <= 1e-10 * eigs[-1]
        pb2, _ = chain_problem(noise=0.05, gauge=True)
        eigs2 = np.linalg.eigvalsh(build_system(pb2, x0, {"g": np.eye(3)}).hessian)
        assert eigs2[0] > 1e-10 * eigs2[-1]

    def test_sparse_path_matches_dense(self):
        pb, _ = chain_problem(noise=0.03)
        x0 = origin(pb.manifold)
        with patch.object(nls, "DENSE_THRESHOLD", 10_000):
            rd = solve_fixed_P(pb, x0, {"g": np.eye(3)})
        with patch.object(nls, "DENSE_THRESHOLD", 1):
            rs = solve_fixed_P(pb, x0, {"g": np.eye(3)})
        for i in range(6):
            np.testing.assert_allclose(rs.x.block(i), rd.x.block(i), atol=1e-8)


class TestSparsity:
    def test_hessian_fill_matches_adjacency(self):
        pb, _ = chain_problem(noise=0.02)
        x0 = origin(pb.manifold)
        with patch.object(nls, "DENSE_THRESHOLD", 1):  # force sparse
            system = build_system(pb, x0, {"g": np.eye(3)})
        # expected block pairs: factor connectivity among active blocks
        expected = set()
        for u, v in zip(*(ids.tolist() for ids in pb.factors[0].blocks)):
            for b in (u, v):
                if b not in pb.gauge_fixed:
                    expected.add((b, b))
            if u not in pb.gauge_fixed and v not in pb.gauge_fixed:
                expected.add(tuple(sorted((u, v))))
        # structural check on the assembled matrix, back in natural order
        # (it is stored as H[q][:, q]): nonzero blocks are exactly the
        # connected pairs (blocks 1..5 are active)
        q = system.pattern.order
        H = np.zeros(system.hessian.shape)
        H[np.ix_(q, q)] = system.hessian.toarray()
        n_blocks = 5
        for bi in range(n_blocks):
            for bj in range(n_blocks):
                sub = H[3 * bi : 3 * bi + 3, 3 * bj : 3 * bj + 3]
                key = tuple(sorted((bi + 1, bj + 1)))
                assert np.any(sub != 0.0) == (key in expected)


def lm_step(pb, x, weights):
    """One Levenberg-Marquardt x-step from zero damping: the new point."""
    return nls._lm_step(pb, x, weights, 0.0)[0]


class TestStepOnce:
    def test_stationary_point_fixed(self):
        rng = np.random.default_rng(2)
        pb, spec, Hs, zs, _ = linear_problem(rng)
        P = np.eye(3)
        x_star = ManifoldPoint(spec, (gls_solution(Hs, zs, P),))
        x_next = lm_step(pb, x_star, {"g": P})
        np.testing.assert_allclose(x_next.block("x"), x_star.block("x"), atol=1e-10)

    def test_linear_single_iteration_reaches_gls(self):
        rng = np.random.default_rng(3)
        pb, spec, Hs, zs, _ = linear_problem(rng)
        P = np.diag([1.0, 3.0, 0.5])
        x0 = ManifoldPoint(spec, (rng.normal(size=6),))
        x1 = lm_step(pb, x0, {"g": P})
        np.testing.assert_allclose(x1.block("x"), gls_solution(Hs, zs, P), atol=1e-9)

    def test_descent_on_pose_graph(self):
        pb, _ = chain_problem(noise=0.1)
        x0 = origin(pb.manifold)
        W = {"g": np.eye(3)}
        for x1 in (lm_step(pb, x0, W), step_once(pb, x0, W)[0]):
            assert weighted_cost(pb, x1, W) <= weighted_cost(pb, x0, W)


class TestLinearBatch:
    """A k-row linear set linearizes bit for bit like its rows as k one-row
    sets."""

    @staticmethod
    def assert_matches_one_row_sets(spec, sets, m, gauge_fixed, dense, rng):
        A = rng.normal(size=(m, m))
        weights = {"g": A @ A.T + 0.1 * np.eye(m)}

        def problem(sets):
            return JointProblem(spec, tuple(sets), (NoiseGroup("g", m, "ml"),),
                                frozenset(gauge_fixed))

        batched = problem(sets)
        per_row = problem([row for fs in sets for row in one_row_sets(fs)])
        assert len(batched.batches["g"]) == len(sets)
        assert len(per_row.batches["g"]) == sum(map(len, sets))
        assert all(isinstance(b, LinearBatch) for b in batched.batches["g"])
        x = ManifoldPoint(spec, tuple(rng.normal(size=d) for d in spec.dims))
        with patch.object(nls, "DENSE_THRESHOLD", 200 if dense else 1):
            a = build_system(batched, x, weights)
            b = build_system(per_row, x, weights)
        assert a.cost == b.cost
        np.testing.assert_array_equal(a.gradient, b.gradient)
        if dense:
            np.testing.assert_array_equal(a.hessian, b.hessian)
        else:
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(a.hessian, part),
                                              getattr(b.hessian, part))
        np.testing.assert_array_equal(group_residuals(batched, x, "g"),
                                      group_residuals(per_row, x, "g"))

    @settings(max_examples=150, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           k=st.integers(1, 40), gauge=st.none() | st.integers(0, 2),
           dense=st.booleans(), with_priors=st.booleans(), m=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    # one column: numpy would sum it pairwise, so it is scattered instead
    @example(dims=[1], k=16, gauge=None, dense=True, with_priors=False, m=1, seed=0)
    # the linear study's shape
    @example(dims=[20], k=50, gauge=None, dense=True, with_priors=False, m=5, seed=1)
    def test_set_matches_one_row_sets(self, dims, k, gauge, dense, with_priors, m, seed):
        rng = np.random.default_rng(seed)
        # interleave an unused pose and vector so the batch gathers real columns
        ids = [f"b{i}" for i in range(len(dims))]
        spec = ManifoldSpec((euclidean_block("pad", 2), se2_block("p"),
                             *(euclidean_block(b, d) for b, d in zip(ids, dims))))
        order = tuple(rng.permutation(ids))
        d = sum(dims)
        sets = []
        if len(dims) == 1 and with_priors:
            m = d  # a prior set and a square linear set on one block
            priors = int(rng.integers(1, k + 1))
            sets.append(prior_set(ids[0], rng.normal(size=(priors, m)), "g"))
            k -= priors
        if k:
            sets.append(linear_set(order, rng.normal(size=(k, m, d)),
                                   rng.normal(size=(k, m)), "g"))
        gauge_fixed = () if gauge is None else (ids[gauge % len(dims)],)
        self.assert_matches_one_row_sets(spec, sets, m, gauge_fixed, dense, rng)

    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(st.integers(1, 12), min_size=2, max_size=6),
           dx=st.integers(1, 4), dy=st.integers(1, 4), m=st.integers(1, 4),
           gauge=st.sampled_from([(), ("y",)]), dense=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_overlapping_sets_match_one_row_sets(self, runs, dx, dy, m, gauge, dense, seed):
        # sets alternate between ("x",) and ("x", "y"): each set is a batch,
        # and every batch adds onto x's accumulated terms
        rng = np.random.default_rng(seed)
        spec = ManifoldSpec((euclidean_block("x", dx), euclidean_block("y", dy)))
        sets = []
        for r, size in enumerate(runs):
            ids = ("x",) if r % 2 == 0 else ("x", "y")
            d = dx if r % 2 == 0 else dx + dy
            sets.append(linear_set(ids, rng.normal(size=(size, m, d)),
                                   rng.normal(size=(size, m)), "g"))
        self.assert_matches_one_row_sets(spec, sets, m, gauge, dense, rng)

    def test_sets_on_different_blocks(self):
        spec = ManifoldSpec((euclidean_block("x", 2), euclidean_block("y", 2)))
        sets = (prior_set("x", np.zeros((1, 2)), "g"), prior_set("y", np.zeros((1, 2)), "g"))
        pb = JointProblem(spec, sets, (NoiseGroup("g", 2, "ml"),))
        assert [type(b) for b in pb.batches["g"]] == [LinearBatch, LinearBatch]
        x = ManifoldPoint(spec, (np.ones(2), 2.0 * np.ones(2)))
        system = build_system(pb, x, {"g": np.eye(2)})
        np.testing.assert_array_equal(system.gradient, [1.0, 1.0, 2.0, 2.0])
        np.testing.assert_array_equal(system.hessian, np.eye(4))


class TestDenseDampedSolve:
    """The dense damped solve calls LAPACK as scipy's Cholesky wrappers do,
    and keeps their contract."""

    @staticmethod
    def system(H, g):
        spec = ManifoldSpec((euclidean_block("x", len(g)),))
        return nls.LinearizedSystem(H, g, 0.0, spec.ungauged_index)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), damping=st.sampled_from([0.0, 1e-4, 1.0, 100.0]),
           scale=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_cho_solve(self, n, damping, scale, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        H = 10.0 ** scale * (A @ A.T + 1e-3 * np.eye(n))
        g = rng.normal(size=n)
        expected = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(H + damping * np.eye(n)), -g)
        assert np.array_equal(self.system(H, g).solve_damped(damping), expected)

    @pytest.mark.parametrize("where", ["hessian", "gradient"])
    def test_non_finite_input_raises(self, where):
        H, g = np.eye(3), np.ones(3)
        if where == "hessian":
            H[1, 2] = np.nan
        else:
            g[0] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            self.system(H, g).solve_damped(1e-4)

    def test_indefinite_matrix_gives_none(self):
        H = np.diag([1.0, -1.0, 2.0])
        assert self.system(H, np.ones(3)).solve_damped(0.5) is None
        # the factorization fails before the right-hand side is checked
        assert self.system(H, np.full(3, np.nan)).solve_damped(0.5) is None


def random_pose_graph(data):
    """A pose chain plus random loop edges, odometry and loops in two noise
    groups with random SPD weights, at a random state near the truth."""
    n = data.draw(st.integers(3, 40), "poses")
    gauge = data.draw(st.booleans(), "gauge")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    spec = ManifoldSpec(tuple(se2_block(i) for i in range(n)))
    truth = [np.zeros(3)]
    for _ in range(n - 1):
        truth.append(se2_compose(truth[-1], [1.0, 0.0, rng.uniform(-0.5, 0.5)]))
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [tuple(sorted(rng.choice(n, size=2, replace=False)))
              for _ in range(rng.integers(0, n + 1))]
    zs = [se2_compose(se2_inverse(truth[i]), truth[j]) + 0.05 * rng.normal(size=3)
          for i, j in pairs]
    sets = [relative_se2_set(*np.array(pairs[start:stop]).T, zs[start:stop], g)
            for g, start, stop in (("odo", 0, n - 1), ("loop", n - 1, len(pairs)))
            if stop > start]
    groups = [NoiseGroup(fs.group_id, 3, "ml") for fs in sets]
    pb = JointProblem(spec, tuple(sets), tuple(groups),
                      frozenset({0} if gauge else ()))
    weights = {}
    for g in groups:
        A = rng.normal(size=(3, 3))
        weights[g.group_id] = A @ A.T + 0.5 * np.eye(3)
    x = ManifoldPoint(spec, tuple(t + 0.1 * rng.normal(size=3) for t in truth))
    return pb, x, weights


def coo_hessian(pb, x, weights):
    """The sparse Hessian summed by scipy from COO triplets laid out in
    factor order, the same sum over absolute terms with each entry's term
    count, and the terms accumulated one by one into a dense matrix."""
    n = pb.active_index.dim
    rows, cols, vals = [], [], []
    for g in pb.groups:
        W = weights[g.group_id]
        for batch in pb.batches[g.group_id]:
            J = batch.jacobian(batch.linearize(x)[1])
            blocks = np.swapaxes(J, 1, 2) @ W @ J
            pos = batch.positions
            pr = np.broadcast_to(pos[:, :, None], blocks.shape)
            pc = np.broadcast_to(pos[:, None, :], blocks.shape)
            keep = (pr < n) & (pc < n)
            rows.append(pr[keep])
            cols.append(pc[keep])
            vals.append(blocks[keep])
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    coo = [scipy.sparse.coo_matrix((v, (rows, cols)), shape=(n, n)).tocsc()
           for v in (vals, np.abs(vals), np.ones_like(vals))]
    return (*coo, dense)


class TestCompiledSparseSolve:
    """The compiled Hessian pattern and the reordered no-pivot LU against
    COO assembly and a dense Cholesky solve, on generated pose graphs."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_coo_assembly_and_dense_solve(self, data):
        pb, x, weights = random_pose_graph(data)
        with patch.object(nls, "DENSE_THRESHOLD", 1):
            system = build_system(pb, x, weights)
        H = system.hessian
        # the references, in the pattern's order q: H holds H[q][:, q]
        q = system.pattern.order
        *coo, dense = coo_hessian(pb, x, weights)
        ref, abs_sum, count = (a[q][:, q].sorted_indices() for a in coo)
        dense = dense[np.ix_(q, q)]
        np.testing.assert_array_equal(H.indptr, ref.indptr)
        np.testing.assert_array_equal(H.indices, ref.indices)
        # the terms are summed in factor order, as np.add.at does; scipy sums
        # duplicate triplets in the order its index sort leaves them, so it
        # agrees up to the error bound of reordering a floating-point sum
        np.testing.assert_array_equal(H.toarray(), dense)
        assert np.all(np.abs(H.data - ref.data)
                      <= count.data * np.finfo(float).eps * abs_sum.data)
        n = pb.active_index.dim
        for damping in (1e-4, 1.0, 100.0) + ((0.0,) if pb.gauge_fixed else ()):
            delta = system.solve_damped(damping)
            expected = np.empty(n)
            expected[q] = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(dense + damping * np.eye(n)), -system.gradient[q])
            assert np.linalg.norm(delta - expected) <= 1e-9 * np.linalg.norm(expected)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_undamped_step_on_ungauged_graph_descends_or_stays(self, data):
        pb, x, weights = random_pose_graph(data)
        pb = JointProblem(pb.manifold, pb.factors, pb.groups)
        with patch.object(nls, "DENSE_THRESHOLD", 1):
            x1 = lm_step(pb, x, weights)
        assert weighted_cost(pb, x1, weights) <= weighted_cost(pb, x, weights)

    def test_analysis_runs_once_per_problem(self):
        pb, _ = chain_problem(n=30, noise=0.05)
        x0 = origin(pb.manifold)
        W = {"g": np.diag([5.0, 5.0, 8.0])}
        with patch.object(nls, "DENSE_THRESHOLD", 1), \
                patch.object(HessianPattern, "compile", wraps=HessianPattern.compile) as compile_, \
                patch.object(problem_module, "fill_reducing_order",
                             wraps=problem_module.fill_reducing_order) as order:
            build_system(pb, x0, W, with_hessian=False)
            assert compile_.call_count == order.call_count == 0
            result = solve_fixed_P(pb, x0, W)
            assert result.iterations > 1
            assert compile_.call_count == order.call_count == 1
