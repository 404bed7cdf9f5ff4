import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jointcov.covariance import mode_match_prior
from jointcov.manifold import (
    ManifoldPoint,
    ManifoldSpec,
    boxplus,
    euclidean_block,
    se2_block,
    wrap_angle,
)
from jointcov.problem import (
    JointProblem,
    NoiseGroup,
    Se2Batch,
    _batch_relative_se2,
    custom_factor,
    group_residuals,
    linear_factor,
    prior_factor,
    relative_se2_factor,
    residual,
    residual_jacobian,
    sample_covariance,
    variant_parts,
)


def euclid_point(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    spec = ManifoldSpec((euclidean_block("x", len(values)),))
    return ManifoldPoint(spec, (values,))


def two_pose_state(a, b):
    spec = ManifoldSpec((se2_block(0), se2_block(1)))
    return ManifoldPoint(spec, (np.asarray(a, float), np.asarray(b, float)))


class TestResiduals:
    def test_linear_exact_fit(self):
        x = euclid_point([1.0, 2.0])
        f = linear_factor(0, "x", np.eye(2), [1.0, 2.0], "g")
        np.testing.assert_array_equal(residual(f, x), [0.0, 0.0])

    def test_linear_general(self):
        x = euclid_point([1.0, -1.0])
        H = np.array([[1.0, 2.0], [0.0, 1.0]])
        f = linear_factor(0, "x", H, [3.0, 0.5], "g")
        np.testing.assert_allclose(residual(f, x), [3.0 - (-1.0), 0.5 - (-1.0)])

    def test_prior(self):
        x = euclid_point([2.0, 2.0])
        f = prior_factor(0, "x", [1.0, 1.0], "g")
        np.testing.assert_allclose(residual(f, x), [-1.0, -1.0])

    def test_relative_se2_identical_poses(self):
        x = two_pose_state([0.4, -0.2, 0.9], [0.4, -0.2, 0.9])
        f = relative_se2_factor(0, 0, 1, [0.0, 0.0, 0.0], "g")
        np.testing.assert_allclose(residual(f, x), np.zeros(3), atol=1e-15)

    def test_relative_se2_hand_composition(self):
        x = two_pose_state([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        f = relative_se2_factor(0, 0, 1, [1.0, 0.0, 0.0], "g")
        np.testing.assert_allclose(residual(f, x), np.zeros(3), atol=1e-15)

    def test_relative_se2_rotated_frame(self):
        # a at 90 degrees: b = (0, 1, pi/2) is exactly one unit ahead of a.
        x = two_pose_state([0.0, 0.0, np.pi / 2], [0.0, 1.0, np.pi / 2])
        f = relative_se2_factor(0, 0, 1, [1.0, 0.0, 0.0], "g")
        np.testing.assert_allclose(residual(f, x), np.zeros(3), atol=1e-14)

    def test_custom(self):
        x = euclid_point([2.0])
        f = custom_factor(0, ("x",), np.array([5.0]),
                          "g", lambda z, v: z - v ** 2)
        np.testing.assert_allclose(residual(f, x), [1.0])


class TestJacobians:
    def test_linear_is_minus_H(self):
        H = np.arange(6.0).reshape(2, 3) + 1.0
        f = linear_factor(0, "x", H, np.zeros(2), "g")
        x = euclid_point([0.0, 0.0, 0.0])
        np.testing.assert_array_equal(residual_jacobian(f, x), -H)

    def test_prior_is_minus_identity(self):
        f = prior_factor(0, "x", np.zeros(2), "g")
        x = euclid_point([3.0, 4.0])
        np.testing.assert_array_equal(residual_jacobian(f, x), -np.eye(2))

    def test_relative_se2_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        spec = ManifoldSpec((se2_block(0), se2_block(1)))
        for _ in range(50):
            x = ManifoldPoint(
                spec, (rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=3)))
            z = rng.uniform(-1, 1, size=3)
            f = relative_se2_factor(0, 0, 1, z, "g")
            J = residual_jacobian(f, x)
            J_fd = _fd_oracle(f, x)
            scale = max(1.0, np.abs(J_fd).max())
            assert np.abs(J - J_fd).max() / scale <= 1e-5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
    def test_batched_jacobians_match_finite_differences(self, vals):
        a, b, z = np.reshape(vals, (3, 3))
        # keep the residual's rotation log(b^-1 a z) away from the cut locus
        assume(abs(wrap_angle(a[2] + z[2] - b[2])) < np.pi - 0.1)
        spec = ManifoldSpec((se2_block(0), se2_block(1)))
        x = ManifoldPoint(spec, (a, b))
        f = relative_se2_factor(0, 0, 1, z, "g")
        _, Ja, Jb = _batch_relative_se2(x, Se2Batch.compile(spec, (f,)), True)
        J_fd = _fd_oracle(f, x)
        scale = max(1.0, np.abs(J_fd).max())
        assert np.abs(Ja[0] - J_fd[:, :3]).max() / scale <= 1e-5
        assert np.abs(Jb[0] - J_fd[:, 3:]).max() / scale <= 1e-5

    def test_custom_uses_finite_differences(self):
        f = custom_factor(0, ("x",), np.array([0.0]),
                          "g", lambda z, v: z - v ** 3)
        x = euclid_point([2.0])
        np.testing.assert_allclose(residual_jacobian(f, x), [[-12.0]], rtol=1e-6)


def _fd_oracle(f, x, h=1e-6):
    spec = x.spec
    cols = sum(spec.block(b).dim for b in f.block_ids)
    J = np.empty((f.dim, cols))
    col = 0
    for bid in f.block_ids:
        sl = spec.tangent_slice(bid)
        for j in range(spec.block(bid).dim):
            v = np.zeros(spec.tangent_dim)
            v[sl.start + j] = h
            rp = residual(f, boxplus(x, v))
            v[sl.start + j] = -h
            rm = residual(f, boxplus(x, v))
            J[:, col] = (rp - rm) / (2 * h)
            col += 1
    return J


def make_problem(factors, groups, spec, gauge=()):
    return JointProblem(spec, tuple(factors), groups, frozenset(gauge))


class TestSampleCovariance:
    def test_hand_example(self):
        # residuals {(1,0), (0,1)} -> S = I/2
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        f1 = prior_factor(0, "x", [1.0, 0.0], "g")
        f2 = prior_factor(1, "x", [0.0, 1.0], "g")
        pb = make_problem([f1, f2], [NoiseGroup("g", 2, "ml")], spec)
        np.testing.assert_allclose(
            sample_covariance(pb, x, "g"), 0.5 * np.eye(2), atol=1e-15)

    def test_all_zero_residuals(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.array([1.0, 2.0]),))
        fs = [prior_factor(i, "x", [1.0, 2.0], "g") for i in range(3)]
        pb = make_problem(fs, [NoiseGroup("g", 2, "ml")], spec)
        np.testing.assert_array_equal(sample_covariance(pb, x, "g"), np.zeros((2, 2)))

    def test_preprocessing_jacobian(self):
        # single residual (2, 0) with J = 2I: S~ = J^-1 r r^T J^-T = diag(1, 0)
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        f = linear_factor(0, "x", np.eye(2), [2.0, 0.0], "g",
                          preprocess_jacobian=2.0 * np.eye(2))
        pb = make_problem([f], [NoiseGroup("g", 2, "ml")], spec)
        np.testing.assert_allclose(
            sample_covariance(pb, x, "g"), np.diag([1.0, 0.0]), atol=1e-15)

    def test_psd_and_rank(self):
        rng = np.random.default_rng(31)
        spec = ManifoldSpec((euclidean_block("x", 3),))
        x = ManifoldPoint(spec, (rng.normal(size=3),))
        k = 2  # k < m makes S singular
        fs = [prior_factor(i, "x", rng.normal(size=3), "g") for i in range(k)]
        pb = make_problem(fs, [NoiseGroup("g", 3, "ml")], spec)
        S = sample_covariance(pb, x, "g")
        eig = np.linalg.eigvalsh(S)
        assert eig.min() >= -1e-12
        assert np.linalg.matrix_rank(S, tol=1e-10) <= k


class TestBatchPath:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(41)
        n = 12
        spec = ManifoldSpec(tuple(se2_block(i) for i in range(n)))
        x = ManifoldPoint(spec, tuple(rng.uniform(-2, 2, size=3) for _ in range(n)))
        factors = []
        for k in range(20):
            i, j = rng.choice(n, size=2, replace=False)
            factors.append(relative_se2_factor(
                k, int(i), int(j), rng.uniform(-1, 1, size=3), "g"))
        r, Ja, Jb = _batch_relative_se2(x, Se2Batch.compile(spec, factors),
                                        with_jacobians=True)
        for k, f in enumerate(factors):
            np.testing.assert_allclose(r[k], residual(f, x), atol=1e-14)
            J = residual_jacobian(f, x)
            np.testing.assert_allclose(Ja[k], J[:, :3], atol=1e-13)
            np.testing.assert_allclose(Jb[k], J[:, 3:], atol=1e-13)

    def test_group_residuals_stacks(self):
        spec = ManifoldSpec((se2_block(0), se2_block(1)))
        x = ManifoldPoint(spec, (np.zeros(3), np.array([1.0, 0.0, 0.0])))
        fs = [relative_se2_factor(0, 0, 1, [1.0, 0.0, 0.0], "g"),
              relative_se2_factor(1, 0, 1, [0.9, 0.1, 0.0], "g")]
        pb = make_problem(fs, [NoiseGroup("g", 3, "ml")], spec)
        R = group_residuals(pb, x, "g")
        assert R.shape == (2, 3)
        np.testing.assert_allclose(R[0], np.zeros(3), atol=1e-15)


class TestValidation:
    def test_variant_parts(self):
        assert variant_parts("map-diag-eig") == ("map", "diag-eig")
        assert variant_parts("ml") == ("ml", "unconstrained")
        assert variant_parts("fixed") == ("fixed", "unconstrained")

    def test_map_needs_prior(self):
        with pytest.raises(ValueError, match="prior"):
            NoiseGroup("g", 3, "map-eig", bounds=(1e-4, 1e4))

    def test_eig_needs_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            NoiseGroup("g", 3, "ml-eig")

    def test_map_with_prior_ok(self):
        prior = mode_match_prior(np.eye(3), 0.1, 10)
        g = NoiseGroup("g", 3, "map", prior=prior)
        assert g.estimator == "map"

    def test_group_dimension_mismatch_rejected(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        f = prior_factor(0, "x", [0.0, 0.0], "g")
        with pytest.raises(ValueError, match="dimension"):
            make_problem([f], [NoiseGroup("g", 3, "ml")], spec)

    def test_empty_group_rejected(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        f = prior_factor(0, "x", [0.0, 0.0], "a")
        with pytest.raises(ValueError, match="no factors"):
            make_problem([f], [NoiseGroup("a", 2, "ml"), NoiseGroup("b", 2, "ml")], spec)

    def test_unknown_block_rejected(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        f = prior_factor(0, "y", [0.0, 0.0], "g")
        with pytest.raises(ValueError, match="unknown block"):
            make_problem([f], [NoiseGroup("g", 2, "ml")], spec)

    def test_rank_deficient_preprocess_jacobian_rejected(self):
        with pytest.raises(ValueError, match="rank deficient"):
            linear_factor(0, "x", np.eye(2), np.zeros(2), "g",
                          preprocess_jacobian=np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_relative_se2_needs_pose_blocks(self):
        spec = ManifoldSpec((euclidean_block("x", 3), se2_block("p")))
        f = relative_se2_factor(0, "x", "p", np.zeros(3), "g")
        with pytest.raises(ValueError, match="non-SE"):
            make_problem([f], [NoiseGroup("g", 3, "ml")], spec)

    def test_gauge_block_must_exist(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        f = prior_factor(0, "x", [0.0, 0.0], "g")
        with pytest.raises(ValueError, match="gauge"):
            make_problem([f], [NoiseGroup("g", 2, "ml")], spec, gauge=("z",))

    @pytest.mark.parametrize("make_factor", [
        lambda: relative_se2_factor(7, "a", "b", [np.nan, 0.0, 0.0], "g"),
        lambda: linear_factor(7, "x", np.full((3, 3), np.inf), np.zeros(3), "g"),
        lambda: linear_factor(7, "x", np.eye(3), [0.0, -np.inf, 0.0], "g"),
        lambda: prior_factor(7, "x", [0.0, 0.0, np.nan], "g"),
    ], ids=["se2-z", "linear-H", "linear-z", "prior-z"])
    def test_non_finite_factor_rejected(self, make_factor):
        spec = ManifoldSpec((euclidean_block("x", 3), se2_block("a"), se2_block("b")))
        good = prior_factor(0, "x", np.zeros(3), "g")
        with pytest.raises(ValueError, match="factor 7 has non-finite"):
            make_problem([good, make_factor()], [NoiseGroup("g", 3, "ml")], spec)

    def test_non_finite_preprocess_jacobian_rejected(self):
        with pytest.raises(ValueError, match="factor 7: preprocessing Jacobian has non-finite"):
            linear_factor(7, "x", np.eye(3), np.zeros(3), "g",
                          preprocess_jacobian=np.diag([1.0, np.nan, 1.0]))

    @pytest.mark.parametrize("kwargs", [
        {"information": np.diag([1.0, np.nan, 1.0])},
        {"information": np.diag([1.0, np.inf, 1.0])},
        {"bounds": (1e-4, np.inf)},
        {"bounds": (np.nan, 1.0)},
    ], ids=["information-nan", "information-inf", "bounds-inf", "bounds-nan"])
    def test_non_finite_group_rejected(self, kwargs):
        variant = "ml-eig" if "bounds" in kwargs else "ml"
        with pytest.raises(ValueError, match="finite"):
            NoiseGroup("g", 3, variant, **kwargs)

    @pytest.mark.parametrize("make_factor", [
        lambda: linear_factor(0, "x", np.ones((3, 2)), np.zeros(3), "g"),
        lambda: linear_factor(0, "x", np.ones((3, 3)), np.zeros(2), "g"),
        lambda: prior_factor(0, "x", np.zeros(2), "g"),
    ], ids=["H-columns", "z-length", "prior-length"])
    def test_linear_shape_mismatch_rejected(self, make_factor):
        spec = ManifoldSpec((euclidean_block("x", 3),))
        f = make_factor()
        with pytest.raises(ValueError, match="does not fit its 3 state entries"):
            make_problem([f], [NoiseGroup("g", f.dim, "ml")], spec)
