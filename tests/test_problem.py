import re
from unittest.mock import patch

import numpy as np
import pytest
from conftest import one_row_sets
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jointcov.covariance import mode_match_prior
from jointcov.manifold import (
    SMALL_ANGLE,
    ActiveIndex,
    CutLocusError,
    ManifoldPoint,
    ManifoldSpec,
    boxplus,
    euclidean_block,
    log_se2,
    se2_block,
    se2_compose,
    se2_inverse,
    wrap_angle,
)
from jointcov.nls import build_system, weighted_cost
from jointcov.problem import (
    _DALPHA_SERIES_ANGLE,
    RELATIVE_SE2,
    VARIANTS,
    JointProblem,
    LinearBatch,
    NoiseGroup,
    Se2Batch,
    group_residuals,
    linear_set,
    prior_set,
    relative_se2_set,
    residual,
    residual_covariance,
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


def se2_set(a, b, z, group_id="g"):
    """A one-row relative-pose set from pose a to pose b."""
    return relative_se2_set([a], [b], [z], group_id)


class TestResiduals:
    def test_linear_exact_fit(self):
        x = euclid_point([1.0, 2.0])
        fs = linear_set("x", [np.eye(2)], [[1.0, 2.0]], "g")
        np.testing.assert_array_equal(residual(fs, x), [[0.0, 0.0]])

    def test_linear_general(self):
        x = euclid_point([1.0, -1.0])
        H = np.array([[1.0, 2.0], [0.0, 1.0]])
        fs = linear_set("x", [H, 2.0 * H], [[3.0, 0.5], [0.0, 0.0]], "g")
        np.testing.assert_allclose(residual(fs, x), [[3.0 - (-1.0), 0.5 - (-1.0)],
                                                     [2.0, 2.0]])

    def test_prior(self):
        x = euclid_point([2.0, 2.0])
        fs = prior_set("x", [[1.0, 1.0], [2.0, 3.0]], "g")
        np.testing.assert_allclose(residual(fs, x), [[-1.0, -1.0], [0.0, 1.0]])

    def test_relative_se2_identical_poses(self):
        x = two_pose_state([0.4, -0.2, 0.9], [0.4, -0.2, 0.9])
        fs = se2_set(0, 1, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(residual(fs, x), np.zeros((1, 3)), atol=1e-15)

    def test_relative_se2_hand_composition(self):
        x = two_pose_state([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        fs = se2_set(0, 1, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(residual(fs, x), np.zeros((1, 3)), atol=1e-15)

    def test_relative_se2_rotated_frame(self):
        # a at 90 degrees: b = (0, 1, pi/2) is exactly one unit ahead of a.
        x = two_pose_state([0.0, 0.0, np.pi / 2], [0.0, 1.0, np.pi / 2])
        fs = se2_set(0, 1, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(residual(fs, x), np.zeros((1, 3)), atol=1e-14)


def set_jacobians(fs, x):
    """A set's dense Jacobians ``(k, m, D)`` at x, columns in block order."""
    return dense_linearization(fs.compile(x.spec, x.spec.ungauged_index), x)[1]


class TestJacobians:
    def test_linear_is_minus_H(self):
        H = np.arange(6.0).reshape(2, 3) + 1.0
        fs = linear_set("x", [H], np.zeros((1, 2)), "g")
        x = euclid_point([0.0, 0.0, 0.0])
        np.testing.assert_array_equal(set_jacobians(fs, x), [-H])

    def test_prior_is_minus_identity(self):
        fs = prior_set("x", np.zeros((3, 2)), "g")
        x = euclid_point([3.0, 4.0])
        np.testing.assert_array_equal(set_jacobians(fs, x), [-np.eye(2)] * 3)

    def test_relative_se2_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        spec = ManifoldSpec((se2_block(0), se2_block(1)))
        for _ in range(50):
            x = ManifoldPoint(
                spec, (rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=3)))
            z = rng.uniform(-1, 1, size=3)
            fs = se2_set(0, 1, z)
            J = set_jacobians(fs, x)[0]
            J_fd = _fd_oracle(fs, x)
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
        fs = se2_set(0, 1, z)
        (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
        _, J = dense_linearization(batch, x)
        J_fd = _fd_oracle(fs, x)
        scale = max(1.0, np.abs(J_fd).max())
        assert np.abs(J[0] - J_fd).max() / scale <= 1e-5


def _fd_oracle(fs, x, h=1e-6):
    """Central differences of a one-row set's residual, block by block."""
    spec = x.spec
    ids = ([ids.tolist()[0] for ids in fs.blocks] if fs.kind == RELATIVE_SE2
           else fs.blocks)
    blocks = [spec.position(b) for b in ids]
    J = np.empty((fs.m, spec.dims[blocks].sum()))
    col = 0
    for p in blocks:
        for j in range(spec.dims[p]):
            v = np.zeros(spec.tangent_dim)
            v[spec.offsets[p] + j] = h
            rp = residual(fs, boxplus(x, v))[0]
            v[spec.offsets[p] + j] = -h
            rm = residual(fs, boxplus(x, v))[0]
            J[:, col] = (rp - rm) / (2 * h)
            col += 1
    return J


def dense_linearization(batch, x):
    """A batch's residuals and its Jacobians expanded to ``(k, m, D)``."""
    r, jac = batch.linearize(x)
    return r, batch.jacobian(jac)


def make_problem(sets, groups, spec, gauge=()):
    return JointProblem(spec, tuple(sets), groups, frozenset(gauge))


class TestSampleCovariance:
    def test_hand_example(self):
        # residuals {(1,0), (0,1)} -> S = I/2
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        fs = prior_set("x", [[1.0, 0.0], [0.0, 1.0]], "g")
        pb = make_problem([fs], [NoiseGroup("g", 2, "ml")], spec)
        np.testing.assert_allclose(
            sample_covariance(pb, x, "g"), 0.5 * np.eye(2), atol=1e-15)

    def test_all_zero_residuals(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.array([1.0, 2.0]),))
        fs = prior_set("x", [[1.0, 2.0]] * 3, "g")
        pb = make_problem([fs], [NoiseGroup("g", 2, "ml")], spec)
        np.testing.assert_array_equal(sample_covariance(pb, x, "g"), np.zeros((2, 2)))

    def test_preprocessing_jacobian(self):
        # single residual (2, 0) with J = 2I: S~ = J^-1 r r^T J^-T = diag(1, 0)
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        fs = linear_set("x", [np.eye(2)], [[2.0, 0.0]], "g",
                        preprocess_jacobian=[2.0 * np.eye(2)])
        pb = make_problem([fs], [NoiseGroup("g", 2, "ml")], spec)
        np.testing.assert_allclose(
            sample_covariance(pb, x, "g"), np.diag([1.0, 0.0]), atol=1e-15)

    def test_preprocessing_rows_follow_the_sets(self):
        # only the middle set's two rows carry J = 2I; their rows in the
        # group's stacked residuals are 1 and 2
        spec = ManifoldSpec((euclidean_block("x", 2),))
        x = ManifoldPoint(spec, (np.zeros(2),))
        sets = [prior_set("x", [[1.0, 0.0]], "g"),
                linear_set("x", [np.eye(2)] * 2, [[2.0, 0.0], [0.0, 4.0]], "g",
                           preprocess_jacobian=[2.0 * np.eye(2)] * 2),
                prior_set("x", [[0.0, 3.0]], "g")]
        pb = make_problem(sets, [NoiseGroup("g", 2, "ml")], spec)
        rows, _ = pb.preprocess_inverses["g"]
        np.testing.assert_array_equal(rows, [1, 2])
        R = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(sample_covariance(pb, x, "g"), R.T @ R / 4, atol=1e-15)

    def test_preprocessing_leaves_residual_arrays_alone(self):
        # the residuals handed in may be a batch's own array (a lone batch's
        # reach the covariance without a copy): they are read, not written
        spec = ManifoldSpec((euclidean_block("x", 2),))
        fs = linear_set("x", [np.eye(2)], [[0.0, 0.0]], "g",
                        preprocess_jacobian=[2.0 * np.eye(2)])
        pb = make_problem([fs], [NoiseGroup("g", 2, "ml")], spec)
        R = np.array([[2.0, 0.0]])
        np.testing.assert_allclose(
            residual_covariance(pb, "g", R), np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_array_equal(R, [[2.0, 0.0]])

    def test_psd_and_rank(self):
        rng = np.random.default_rng(31)
        spec = ManifoldSpec((euclidean_block("x", 3),))
        x = ManifoldPoint(spec, (rng.normal(size=3),))
        k = 2  # k < m makes S singular
        fs = prior_set("x", rng.normal(size=(k, 3)), "g")
        pb = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec)
        S = sample_covariance(pb, x, "g")
        eig = np.linalg.eigvalsh(S)
        assert eig.min() >= -1e-12
        assert np.linalg.matrix_rank(S, tol=1e-10) <= k


def reference_se2_residual(a, b, z):
    """r = log((a^-1 b)^-1 z), composed pose by pose."""
    return log_se2(se2_compose(se2_inverse(se2_compose(se2_inverse(a), b)), z))


def mixed_sets(rng):
    """A spec of poses and vectors and one group's sets of every kind:
    relative-pose (one with preprocessing), prior, and linear on one and two
    blocks (one with preprocessing)."""
    spec = ManifoldSpec((se2_block("p0"), euclidean_block("u", 3), se2_block("p1"),
                         euclidean_block("w", 3), se2_block("p2")))

    def jacobians(k):
        return np.eye(3) + 0.3 * rng.normal(size=(k, 3, 3))
    sets = [
        relative_se2_set(["p0", "p1", "p2"], ["p1", "p2", "p1"],
                         rng.uniform(-1, 1, (3, 3)), "g", preprocess_jacobian=jacobians(3)),
        prior_set("u", rng.normal(size=(4, 3)), "g"),
        linear_set("u", rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3)), "g"),
        linear_set(("w", "u"), rng.normal(size=(6, 3, 6)), rng.normal(size=(6, 3)), "g",
                   preprocess_jacobian=jacobians(6)),
        relative_se2_set(["p2", "p1"], ["p0", "p0"], rng.uniform(-1, 1, (2, 3)), "g"),
    ]
    return spec, sets


class TestBatchPath:
    def test_batch_matches_reference(self):
        rng = np.random.default_rng(41)
        n = 12
        spec = ManifoldSpec(tuple(se2_block(i) for i in range(n)))
        x = ManifoldPoint(spec, tuple(rng.uniform(-2, 2, size=3) for _ in range(n)))
        a, b = np.array([rng.choice(n, size=2, replace=False) for _ in range(20)]).T
        fs = relative_se2_set(a, b, rng.uniform(-1, 1, size=(20, 3)), "g")
        (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
        assert isinstance(batch, Se2Batch)
        r, J = dense_linearization(batch, x)
        for k, row in enumerate(one_row_sets(fs)):
            np.testing.assert_allclose(
                r[k], reference_se2_residual(x.block(a[k]), x.block(b[k]), fs.z[k]),
                atol=1e-14)
            np.testing.assert_array_equal(J[k], set_jacobians(row, x)[0])

    @pytest.mark.parametrize("gauge", [(), ("p0",), ("u",)])
    def test_k_row_sets_linearize_like_one_row_sets(self, gauge):
        # every kind, with and without preprocessing: each set is one batch,
        # and its residuals, sample covariance, cost, gradient and Hessian
        # equal, bit for bit, those of its rows as one-row sets
        rng = np.random.default_rng(43)
        spec, sets = mixed_sets(rng)
        groups = [NoiseGroup("g", 3, "ml")]
        pb = make_problem(sets, groups, spec, gauge)
        rows = make_problem([r for fs in sets for r in one_row_sets(fs)], groups, spec, gauge)
        assert [type(b) for b in pb.batches["g"]] == [Se2Batch, LinearBatch, LinearBatch,
                                                      LinearBatch, Se2Batch]
        assert len(rows.batches["g"]) == pb.group_sizes["g"] == rows.group_sizes["g"] == 20
        x = ManifoldPoint(spec, tuple(rng.uniform(-1, 1, d) for d in spec.dims))
        A = rng.normal(size=(3, 3))
        W = {"g": A @ A.T + 0.1 * np.eye(3)}
        np.testing.assert_array_equal(group_residuals(pb, x, "g"),
                                      group_residuals(rows, x, "g"))
        np.testing.assert_array_equal(sample_covariance(pb, x, "g"),
                                      sample_covariance(rows, x, "g"))
        assert weighted_cost(pb, x, W) == weighted_cost(rows, x, W)
        a, b = build_system(pb, x, W), build_system(rows, x, W)
        assert a.cost == b.cost
        np.testing.assert_array_equal(a.gradient, b.gradient)
        np.testing.assert_array_equal(a.hessian, b.hessian)
        for fs, batch in zip(sets, pb.batches["g"]):
            r, J = dense_linearization(batch, x)
            np.testing.assert_array_equal(r, residual(fs, x))
            np.testing.assert_array_equal(
                J, np.concatenate([set_jacobians(row, x) for row in one_row_sets(fs)]))

    def test_residual_builds_the_gauge_free_index_once(self):
        rng = np.random.default_rng(47)
        n = 30
        spec = ManifoldSpec(tuple(se2_block(i) for i in range(n)))
        x = ManifoldPoint(spec, tuple(rng.uniform(-1, 1, 3) for _ in range(n)))
        fs = relative_se2_set(np.arange(n - 1), np.arange(1, n),
                              rng.uniform(-1, 1, (n - 1, 3)), "g")
        (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
        r, J = dense_linearization(batch, x)
        with patch.object(ActiveIndex, "build", wraps=ActiveIndex.build) as build:
            for _ in range(3):
                np.testing.assert_array_equal(residual(fs, x), r)
                for i, row in enumerate(one_row_sets(fs)):
                    np.testing.assert_array_equal(residual(row, x), r[i:i + 1])
                    np.testing.assert_array_equal(set_jacobians(row, x), J[i:i + 1])
        assert build.call_count == 1

    def test_group_residuals_stacks(self):
        spec = ManifoldSpec((se2_block(0), se2_block(1)))
        x = ManifoldPoint(spec, (np.zeros(3), np.array([1.0, 0.0, 0.0])))
        sets = [se2_set(0, 1, [1.0, 0.0, 0.0]), se2_set(0, 1, [0.9, 0.1, 0.0])]
        pb = make_problem(sets, [NoiseGroup("g", 3, "ml")], spec)
        R = group_residuals(pb, x, "g")
        assert R.shape == (2, 3)
        np.testing.assert_allclose(R[0], np.zeros(3), atol=1e-15)

    @pytest.mark.parametrize("a, b", [
        ([0, "p"], ["p", 0]),  # numpy would turn these into strings
        (np.array([0, "p"], dtype=object), np.array(["p", 0], dtype=object)),
    ])
    def test_pose_ids_of_mixed_types(self, a, b):
        spec = ManifoldSpec((se2_block(0), euclidean_block("u", 3), se2_block("p")))
        fs = relative_se2_set(a, b, np.zeros((2, 3)), "g")
        (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
        np.testing.assert_array_equal(batch.ia, [0, 1])
        np.testing.assert_array_equal(batch.ib, [1, 0])

    def test_tuple_pose_ids(self):
        # numpy would stack these into a second axis
        spec = ManifoldSpec((se2_block(("r", 0)), se2_block(("r", 1)), se2_block(("s", 0))))
        fs = relative_se2_set([("r", 0), ("r", 1)], [("r", 1), ("s", 0)], np.zeros((2, 3)), "g")
        (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
        np.testing.assert_array_equal(batch.ia, [0, 1])
        np.testing.assert_array_equal(batch.ib, [1, 2])
        with pytest.raises(ValueError, match=r"row 0: relative pose of block \('r', 0\) to itself"):
            relative_se2_set([("r", 0)], [("r", 0)], np.zeros((1, 3)), "g")


def relative_rotation_factor(rotation, rng):
    """Two poses and a one-row set between them whose relative rotation
    ``th_a + th_z - th_b`` is ``rotation`` (exactly, for 0)."""
    a = np.array([*rng.uniform(-2, 2, 2), 0.25])
    b = np.array([*rng.uniform(-2, 2, 2), 0.75 - rotation])
    z = np.array([*rng.uniform(-1, 1, 2), 0.5])
    spec = ManifoldSpec((se2_block(0), se2_block(1)))
    fs = se2_set(0, 1, z)
    (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
    return ManifoldPoint(spec, (a, b)), fs, batch


class TestFusedKernelEdgeCases:
    # the Taylor branch (|th| < SMALL_ANGLE), both sides of the cut locus
    # (far enough for a 1e-6 finite-difference step), and exactly zero
    ROTATIONS = (0.0, 3e-8, -6e-8, 0.99 * SMALL_ANGLE, np.pi - 1e-4, -np.pi + 1e-4)

    @pytest.mark.parametrize("rotation", ROTATIONS + (np.pi - 1e-9, -np.pi + 1e-9))
    def test_residual_matches_the_composed_chain(self, rotation):
        rng = np.random.default_rng(53)
        for _ in range(20):
            x, f, batch = relative_rotation_factor(rotation, rng)
            r, _ = batch.linearize(x)
            np.testing.assert_array_equal(batch.residuals(x), r)
            assert r[0, 2] == pytest.approx(rotation, abs=1e-15)
            a, b = x.poses
            np.testing.assert_allclose(r[0], reference_se2_residual(a, b, f.z[0]),
                                       atol=1e-14)

    @pytest.mark.parametrize("rotation", ROTATIONS)
    def test_jacobian_matches_finite_differences(self, rotation):
        rng = np.random.default_rng(59)
        for _ in range(20):
            x, f, batch = relative_rotation_factor(rotation, rng)
            _, J = dense_linearization(batch, x)
            J_fd = _fd_oracle(f, x)
            scale = max(1.0, np.abs(J_fd).max())
            assert np.abs(J[0] - J_fd).max() / scale <= 1e-5

    @pytest.mark.parametrize("rotation", np.logspace(-8, -2, 25))
    def test_dalpha_columns_match_a_series_reference(self, rotation):
        # t_g = (1, 0) and t_z = 0 make J[0, 2] the derivative dalpha of
        # alpha = (th/2) cot(th/2) itself; the float64 reference sums both
        # series to th^9, exact to rounding on this grid
        spec = ManifoldSpec((se2_block(0), se2_block(1)))
        x = ManifoldPoint(spec, ([0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]))
        fs = se2_set(0, 1, [0.0, 0.0, rotation])
        (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
        _, J = dense_linearization(batch, x)
        th, t2 = rotation, rotation * rotation
        alpha = 1.0 - t2 * (1 / 12 + t2 * (1 / 720 + t2 * (1 / 30240 + t2 / 1209600)))
        dalpha = -th * (1 / 6 + t2 * (1 / 180 + t2 * (1 / 5040 + t2 * (
            1 / 151200 + t2 / 4790016))))
        expected = [[dalpha, -0.5 * th - dalpha], [-0.5, 0.5 - alpha], [1.0, -1.0]]
        np.testing.assert_allclose(J[0][:, [2, 5]], expected, rtol=1e-14, atol=0.0)

    def test_rotation_of_pi_raises_cut_locus(self):
        rng = np.random.default_rng(61)
        spec = ManifoldSpec(tuple(se2_block(i) for i in range(3)))
        x = ManifoldPoint(spec, ([0.0, 0.0, 0.25], [1.0, 2.0, 0.75 - np.pi],
                                 [0.5, -1.0, 0.1]))
        fs = relative_se2_set([2, 0], [1, 1], [rng.uniform(-1, 1, 3),
                                               [0.3, -0.2, 0.5]], "g")  # row 1 at pi
        (batch,) = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec).batches["g"]
        with pytest.raises(CutLocusError):
            batch.residuals(x)
        with pytest.raises(CutLocusError):
            batch.linearize(x)


def relative_rotations():
    """Relative rotations on both sides of the kernel's two branch points,
    SMALL_ANGLE (alpha's Taylor branch) and 0.04 (dalpha's series), plus
    exact zero and generic angles, with either sign."""
    near = st.sampled_from([SMALL_ANGLE, _DALPHA_SERIES_ANGLE]).flatmap(
        lambda edge: st.floats(0.5, 2.0).map(lambda f: edge * f))
    magnitude = st.one_of(st.just(0.0), near, st.floats(1e-10, 3.0))
    return st.tuples(magnitude, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


@st.composite
def se2_chains(draw, max_factors=5):
    """A gauge-fixed chain of poses whose row i has the drawn relative
    rotation ``th_a + th_z - th_b`` (pose i to pose i + 1), with a random
    SPD weight."""
    k = draw(st.integers(1, max_factors))
    coords = st.floats(-2.0, 2.0)
    poses = [np.array([draw(coords), draw(coords), draw(coords)])]
    zs = []
    for _ in range(k):
        z = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
                      draw(st.floats(-1.0, 1.0))])
        rotation = draw(relative_rotations())
        poses.append(np.array([draw(coords), draw(coords),
                               poses[-1][2] + z[2] - rotation]))
        zs.append(z)
    spec = ManifoldSpec(tuple(se2_block(i) for i in range(k + 1)))
    fs = relative_se2_set(np.arange(k), np.arange(1, k + 1), zs, "g")
    pb = make_problem([fs], [NoiseGroup("g", 3, "ml")], spec, gauge=(0,))
    A = np.reshape([draw(st.floats(-1.0, 1.0)) for _ in range(9)], (3, 3))
    return pb, ManifoldPoint(spec, tuple(poses)), A @ A.T + 0.1 * np.eye(3)


def stacked_reference(batch, x, W):
    """Costs, gradient terms ``J^T W r`` and Hessian blocks ``J^T W J`` as
    stacked matmuls per factor on the dense Jacobians, with the bounds
    ``|J|^T |W| |r|`` and ``|J|^T |W| |J|`` that their rounding errors scale
    with."""
    r, J = dense_linearization(batch, x)
    JT = np.swapaxes(J, 1, 2)
    Wr = (W @ r[:, :, None])[:, :, 0]
    absJT, absW = np.abs(JT), np.abs(W)
    return (0.5 * np.vecdot(r, Wr), (JT @ Wr[:, :, None])[:, :, 0], JT @ W @ J,
            (absJT @ (absW @ np.abs(r)[:, :, None]))[:, :, 0],
            absJT @ absW @ np.abs(J))


class TestSe2KernelProperties:
    """The relative-pose kernel's eight Jacobian entries, on generated poses."""

    @settings(max_examples=200, deadline=None)
    @given(se2_chains())
    def test_dense_jacobian_matches_finite_differences(self, case):
        pb, x, _ = case
        (batch,) = pb.batches["g"]
        _, J = dense_linearization(batch, x)
        for row, J_f in zip(one_row_sets(pb.factors[0]), J):
            J_fd = _fd_oracle(row, x)
            scale = max(1.0, np.abs(J_fd).max())
            assert np.abs(J_f - J_fd).max() / scale <= 1e-5

    @settings(max_examples=200, deadline=None)
    @given(se2_chains())
    def test_gradient_terms_and_hessian_match_stacked_products(self, case):
        pb, x, W = case
        (batch,) = pb.batches["g"]
        cost, terms, blocks, terms_bound, blocks_bound = stacked_reference(batch, x, W)
        r, jac = batch.linearize(x)
        got_cost, got_terms = batch.gradient_terms(r, jac, W)
        assert np.all(np.abs(got_terms - terms) <= 1e-13 * terms_bound)
        assert np.all(np.abs(got_cost - cost) <= 1e-13 * cost)

        # and through assembly, whose Hessian blocks come from the dense
        # Jacobians: every term scattered at the batch's positions
        n = pb.active_index.dim
        system = build_system(pb, x, {"g": W})
        pos = batch.positions
        grad, grad_bound = np.zeros(n + 3), np.zeros(n + 3)
        np.add.at(grad, pos, terms)
        np.add.at(grad_bound, pos, terms_bound)
        H, H_bound = np.zeros((n + 3, n + 3)), np.zeros((n + 3, n + 3))
        rows, cols = pos[:, :, None], pos[:, None, :]
        np.add.at(H, (rows, cols), blocks)
        np.add.at(H_bound, (rows, cols), blocks_bound)
        assert np.all(np.abs(system.gradient - grad[:n]) <= 1e-13 * grad_bound[:n])
        assert np.all(np.abs(system.hessian - H[:n, :n]) <= 1e-13 * H_bound[:n, :n])
        assert abs(system.cost - cost.sum()) <= 1e-13 * cost.sum()

    @pytest.mark.parametrize("rotation", [np.pi - 1e-13, -np.pi + 1e-13, np.pi])
    def test_rotation_near_pi_raises_before_any_term(self, rotation):
        rng = np.random.default_rng(67)
        x, f, batch = relative_rotation_factor(rotation, rng)
        pb = make_problem([f], [NoiseGroup("g", 3, "ml")], x.spec, gauge=(0,))
        with patch.object(Se2Batch, "gradient_terms", side_effect=AssertionError), \
                patch.object(Se2Batch, "jacobian", side_effect=AssertionError):
            with pytest.raises(CutLocusError):
                batch.linearize(x)
            with pytest.raises(CutLocusError):
                build_system(pb, x, {"g": np.eye(3)})


class TestValidation:
    def test_relative_pose_to_itself_rejected(self):
        with pytest.raises(ValueError, match="relative_se2 set of group 'g', row 1: "
                                             "relative pose of block 3 to itself"):
            relative_se2_set([1, 3, 3], [2, 3, 3], np.zeros((3, 3)), "g")

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
        fs = prior_set("x", [[0.0, 0.0]], "g")
        with pytest.raises(ValueError, match="linear_gaussian set of group 'g': "
                                             "residual dimension 2 != group m 3"):
            make_problem([fs], [NoiseGroup("g", 3, "ml")], spec)

    def test_unknown_group_rejected(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        fs = prior_set("x", [[0.0, 0.0]], "h")
        with pytest.raises(ValueError, match="set of group 'h': unknown group 'h'"):
            make_problem([fs], [NoiseGroup("g", 2, "ml")], spec)

    def test_empty_group_rejected(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        fs = prior_set("x", [[0.0, 0.0]], "a")
        with pytest.raises(ValueError, match="group 'b' has no factors"):
            make_problem([fs], [NoiseGroup("a", 2, "ml"), NoiseGroup("b", 2, "ml")], spec)

    @pytest.mark.parametrize("make_set, message", [
        (lambda: prior_set("y", [[0.0, 0.0]], "g"),
         "linear_gaussian set of group 'g': references unknown block 'y'"),
        (lambda: relative_se2_set(["p", "p", "p"], ["q", "r", "q"], np.zeros((3, 3)), "g"),
         "relative_se2 set of group 'g', row 1: references unknown block 'r'"),
    ], ids=["linear", "se2"])
    def test_unknown_block_rejected(self, make_set, message):
        spec = ManifoldSpec((euclidean_block("x", 2), se2_block("p"), se2_block("q")))
        fs = make_set()
        with pytest.raises(ValueError, match=message):
            make_problem([fs], [NoiseGroup("g", fs.m, "ml")], spec)

    def test_rank_deficient_preprocess_jacobian_rejected(self):
        J = [np.eye(2), np.eye(2), [[1.0, 1.0], [1.0, 1.0]]]
        with pytest.raises(ValueError, match="linear_gaussian set of group 'g', row 2: "
                                             "preprocessing Jacobian is numerically rank"):
            linear_set("x", [np.eye(2)] * 3, np.zeros((3, 2)), "g", preprocess_jacobian=J)

    @pytest.mark.parametrize("make_set", [
        lambda: prior_set("p", np.zeros((1, 3)), "g"),
        lambda: linear_set(("x", "p"), np.ones((1, 3, 6)), np.zeros((1, 3)), "g"),
    ], ids=["prior", "linear"])
    def test_linear_on_pose_block_rejected(self, make_set):
        spec = ManifoldSpec((euclidean_block("x", 3), se2_block("p")))
        with pytest.raises(ValueError, match="linear_gaussian set of group 'g': "
                                             r"connects an SE\(2\) block"):
            make_problem([make_set()], [NoiseGroup("g", 3, "ml")], spec)

    def test_relative_se2_needs_pose_blocks(self):
        spec = ManifoldSpec((euclidean_block("x", 3), se2_block("p"), se2_block("q")))
        fs = relative_se2_set(["p", "q"], ["q", "x"], np.zeros((2, 3)), "g")
        with pytest.raises(ValueError, match="relative_se2 set of group 'g', row 1: "
                                             r"connects the non-SE\(2\) block 'x'"):
            make_problem([fs], [NoiseGroup("g", 3, "ml")], spec)

    def test_gauge_block_must_exist(self):
        spec = ManifoldSpec((euclidean_block("x", 2),))
        fs = prior_set("x", [[0.0, 0.0]], "g")
        with pytest.raises(ValueError, match="gauge"):
            make_problem([fs], [NoiseGroup("g", 2, "ml")], spec, gauge=("z",))

    @pytest.mark.parametrize("make_set, kind", [
        (lambda z: relative_se2_set(["a"] * 4, ["b"] * 4, z, "g"), "relative_se2"),
        (lambda z: linear_set("x", [np.eye(3)] * 3 + [np.full((3, 3), np.inf)],
                              np.zeros((4, 3)), "g"), "linear_gaussian"),
        (lambda z: linear_set("x", [np.eye(3)] * 4, z, "g"), "linear_gaussian"),
        (lambda z: prior_set("x", z, "g"), "linear_gaussian"),
    ], ids=["se2", "linear-H", "linear-z", "prior"])
    def test_non_finite_row_rejected(self, make_set, kind):
        z = np.zeros((4, 3))
        z[3, 1] = np.nan
        with pytest.raises(ValueError, match=f"{kind} set of group 'g', row 3: "
                                             "non-finite values"):
            make_set(z)

    def test_non_finite_preprocess_jacobian_rejected(self):
        J = [np.eye(3), np.diag([1.0, np.nan, 1.0])]
        with pytest.raises(ValueError, match="linear_gaussian set of group 'g', row 1: "
                                             "preprocessing Jacobian has non-finite"):
            linear_set("x", [np.eye(3)] * 2, np.zeros((2, 3)), "g", preprocess_jacobian=J)

    @pytest.mark.parametrize("kwargs", [
        {"information": np.diag([1.0, np.nan, 1.0])},
        {"information": np.diag([1.0, np.inf, 1.0])},
        {"bounds": (1e-4, np.inf)},
        {"bounds": (np.nan, 1.0)},
    ], ids=["information-nan", "information-inf", "bounds-inf", "bounds-nan"])
    def test_non_finite_group_rejected(self, kwargs):
        variant = "ml-eig" if "bounds" in kwargs else "fixed"
        with pytest.raises(ValueError, match="finite"):
            NoiseGroup("g", 3, variant, **kwargs)

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fixed"])
    def test_estimated_group_takes_no_information(self, variant):
        kwargs = {"prior": mode_match_prior(np.eye(3), 0.1, 10)} if "map" in variant else {}
        with pytest.raises(ValueError, match="^group 'g': only the fixed variant takes "
                                             f"an information matrix, not '{variant}'$"):
            NoiseGroup("g", 3, variant, bounds=(1e-4, 1e4), information=np.eye(3), **kwargs)

    @pytest.mark.parametrize("m", [0, -1, 2.5, True, np.float64(3.0)])
    @pytest.mark.parametrize("variant", ["ml", "fixed"])
    def test_group_dimension_must_be_a_positive_int(self, m, variant):
        message = f"group 'g': m must be an int >= 1, got {m!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseGroup("g", m, variant)

    def test_fixed_group_defaults_to_identity(self):
        g = NoiseGroup("g", 3, "fixed")
        np.testing.assert_array_equal(g.information, np.eye(3))
        assert NoiseGroup("g", 2, "ml").information is None

    @pytest.mark.parametrize("information, message", [
        (np.eye(2), "information matrix shape does not match m"),
        (np.diag([1.0, -1.0, 1.0]), "information matrix must be positive definite"),
    ], ids=["shape", "not-pd"])
    def test_fixed_group_information_checked(self, information, message):
        with pytest.raises(ValueError, match=message):
            NoiseGroup("g", 3, "fixed", information=information)

    @pytest.mark.parametrize("bounds", [(1e-4, 0.5), (2.0, 100.0), (3.0, 3.0)])
    @pytest.mark.parametrize("variant", ["ml-eig", "ml-diag-eig", "map-eig"])
    def test_bounds_need_not_contain_one(self, bounds, variant):
        """The identity is no start of any driver, so bounds that exclude
        its eigenvalue 1 are accepted."""
        prior = mode_match_prior(np.eye(3), 0.1, 10) if variant.startswith("map") else None
        g = NoiseGroup("g", 3, variant, prior=prior, bounds=bounds)
        assert g.bounds == bounds and g.information is None

    @pytest.mark.parametrize("make_set, message", [
        (lambda: linear_set("x", np.ones((1, 3, 2)), np.zeros((1, 3)), "g"),
         "linear_gaussian set of group 'g': does not fit its 3 state entries"),
        (lambda: prior_set("x", np.zeros((1, 2)), "g"),
         "linear_gaussian set of group 'g': does not fit its 3 state entries"),
        (lambda: linear_set("x", np.ones((1, 3, 3)), np.zeros((1, 2)), "g"),
         r"observation matrices of shape \(1, 3, 3\), not \(k, m, d\)"),
        (lambda: linear_set("x", np.ones((3, 3)), np.zeros((1, 3)), "g"),
         r"observation matrices of shape \(3, 3\), not \(k, m, d\)"),
        (lambda: prior_set("x", np.zeros(3), "g"),
         r"measurements of shape \(3,\), not \(k, m\)"),
        (lambda: relative_se2_set([0, 1], [1, 2], np.zeros((2, 2)), "g"),
         r"needs pose ids \(k,\) and measurements \(k, 3\)"),
        (lambda: linear_set("x", [np.eye(3)], np.zeros((1, 3)), "g",
                            preprocess_jacobian=np.eye(3)),
         r"preprocessing Jacobians of shape \(3, 3\), not \(1, 3, 3\)"),
    ], ids=["H-columns", "prior-length", "z-length", "H-2d", "z-1d", "se2-z", "preprocess"])
    def test_shape_mismatch_rejected(self, make_set, message):
        spec = ManifoldSpec((euclidean_block("x", 3),))
        with pytest.raises(ValueError, match=message):
            fs = make_set()
            make_problem([fs], [NoiseGroup("g", fs.m, "ml")], spec)
