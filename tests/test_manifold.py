import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import origin

from jointcov.manifold import (
    EUCLIDEAN,
    SE2,
    Block,
    CutLocusError,
    ManifoldPoint,
    ManifoldSpec,
    boxminus,
    boxplus,
    euclidean_block,
    exp_se2,
    log_se2,
    se2_block,
    se2_compose,
    se2_inverse,
    wrap_angle,
)


def make_spec():
    return ManifoldSpec((euclidean_block("v", 2), se2_block("p")))


class TestExpLog:
    def test_exp_identity(self):
        np.testing.assert_array_equal(exp_se2([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_exp_pure_translation(self):
        np.testing.assert_allclose(exp_se2([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_log_identity(self):
        np.testing.assert_array_equal(log_se2([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_log_zero_rotation(self):
        np.testing.assert_allclose(log_se2([3.0, -2.0, 0.0]), [3.0, -2.0, 0.0])

    def test_quarter_turn_round_trip(self):
        v = np.array([0.0, 0.0, np.pi / 2])
        np.testing.assert_allclose(log_se2(exp_se2(v)), v, atol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.uniform(-3.0, 3.0, size=3)
            np.testing.assert_allclose(log_se2(exp_se2(v)), v, atol=1e-10)

    def test_round_trip_near_small_angle_switch(self):
        for w in [0.0, 1e-9, 9.9e-8, 1.01e-7, 1e-6, -5e-8]:
            v = np.array([0.3, -0.4, w])
            np.testing.assert_allclose(log_se2(exp_se2(v)), v, atol=1e-12)

    def test_cut_locus_raises(self):
        with pytest.raises(CutLocusError):
            log_se2([1.0, 2.0, np.pi])

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(11)
        vs = rng.uniform(-2.0, 2.0, size=(40, 3))
        batch = exp_se2(vs)
        for i in range(40):
            np.testing.assert_allclose(batch[i], exp_se2(vs[i]))


class TestComposeInverse:
    def test_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.uniform(-2.0, 2.0, size=3)
            np.testing.assert_allclose(
                se2_compose(g, se2_inverse(g)), [0, 0, 0], atol=1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(4)
        a, b, c = rng.uniform(-2.0, 2.0, size=(3, 3))
        np.testing.assert_allclose(
            se2_compose(se2_compose(a, b), c),
            se2_compose(a, se2_compose(b, c)), atol=1e-14)

    def test_angles_wrapped(self):
        g = se2_compose([0.0, 0.0, 3.0], [0.0, 0.0, 3.0])
        assert -np.pi < g[2] <= np.pi

    def test_wrap_angle_boundaries(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)


def _ulps_around(center, count=4):
    """``center`` and its ``count`` nearest floats on either side."""
    out, lo, hi = [center], center, center
    for _ in range(count):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


_NEAR_TURNS = [t for c in (-3 * np.pi, -np.pi, np.pi, 3 * np.pi) for t in _ulps_around(c)]


class TestWrapAngle:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.floats(-20.0, 20.0), st.sampled_from(_NEAR_TURNS)))
    def test_lands_in_half_open_interval_on_the_same_angle(self, theta):
        w = wrap_angle(theta)
        assert -np.pi < w <= np.pi
        assert abs(np.cos(w) - np.cos(theta)) <= 1e-12
        assert abs(np.sin(w) - np.sin(theta)) <= 1e-12

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.floats(-np.pi, np.pi, exclude_min=True),
                     st.sampled_from([t for t in _NEAR_TURNS if -np.pi < t <= np.pi])))
    def test_angles_in_the_interval_come_back_exactly(self, theta):
        assert wrap_angle(theta) == theta

    def test_arrays_wrap_elementwise(self):
        thetas = np.array(_NEAR_TURNS + list(np.linspace(-20.0, 20.0, 101)))
        np.testing.assert_array_equal(wrap_angle(thetas), [wrap_angle(t) for t in thetas])


class TestBoxOps:
    def test_euclidean_addition(self):
        spec = ManifoldSpec((euclidean_block("v", 3),))
        x = ManifoldPoint(spec, (np.array([1.0, 2.0, 3.0]),))
        y = boxplus(x, [0.5, -1.0, 0.0])
        np.testing.assert_allclose(y.block("v"), [1.5, 1.0, 3.0])

    def test_identity_pose_plus_translation(self):
        spec = ManifoldSpec((se2_block("p"),))
        x = origin(spec)
        y = boxplus(x, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(y.block("p"), [1.0, 0.0, 0.0])

    def test_boxminus_self_is_zero(self):
        spec = make_spec()
        x = ManifoldPoint(spec, (np.array([0.3, -0.7]), np.array([1.0, 2.0, 0.5])))
        np.testing.assert_array_equal(boxminus(x, x), np.zeros(5))

    def test_euclidean_boxminus(self):
        spec = ManifoldSpec((euclidean_block("v", 1),))
        z = ManifoldPoint(spec, (np.array([3.0]),))
        y = ManifoldPoint(spec, (np.array([1.0]),))
        np.testing.assert_allclose(boxminus(z, y), [2.0])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        spec = make_spec()
        for _ in range(50):
            x = ManifoldPoint(
                spec, (rng.normal(size=2), rng.uniform(-2, 2, size=3)))
            v = rng.uniform(-0.5, 0.5, size=5)
            np.testing.assert_allclose(boxminus(boxplus(x, v), x), v, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        # mixed Euclidean + SE(2) specs; pose angles include values near
        # +/-pi, tangent rotations stay inside (-pi, pi) where log inverts exp
        kinds = data.draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=5))
        spec = ManifoldSpec(tuple(
            se2_block(i) if k == 0 else euclidean_block(i, k) for i, k in enumerate(kinds)))
        coord = st.floats(-10.0, 10.0)
        angle = st.one_of(st.floats(-np.pi, np.pi),
                          st.floats(np.pi - 1e-6, np.pi),
                          st.floats(-np.pi, -np.pi + 1e-6))
        values, v = [], []
        for k in kinds:
            if k == 0:
                values.append([data.draw(coord), data.draw(coord), data.draw(angle)])
                v += [data.draw(st.floats(-5.0, 5.0)), data.draw(st.floats(-5.0, 5.0)),
                      data.draw(st.floats(-3.0, 3.0))]
            else:
                values.append([data.draw(coord) for _ in range(k)])
                v += [data.draw(st.floats(-5.0, 5.0)) for _ in range(k)]
        x = ManifoldPoint(spec, values)
        np.testing.assert_allclose(boxminus(boxplus(x, v), x), v, atol=1e-9)

    def test_dimension_mismatch(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            boxplus(origin(spec), np.zeros(4))

    def test_retraction_first_order(self):
        # d/dt boxplus(x, t v) at t = 0 equals v, measured in the chart at x.
        rng = np.random.default_rng(9)
        spec = make_spec()
        x = ManifoldPoint(spec, (rng.normal(size=2), rng.uniform(-2, 2, size=3)))
        v = rng.normal(size=5)
        h = 1e-6
        d = (boxminus(boxplus(x, h * v), x) - boxminus(boxplus(x, -h * v), x)) / (2 * h)
        np.testing.assert_allclose(d, v, atol=1e-6)

    def test_boxplus_zero_is_identity(self):
        spec = make_spec()
        x = ManifoldPoint(spec, (np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3])))
        y = boxplus(x, np.zeros(5))
        np.testing.assert_array_equal(x.poses, y.poses)
        np.testing.assert_array_equal(x.vector, y.vector)


class TestTypes:
    def test_tangent_dim(self):
        assert make_spec().tangent_dim == 5

    def test_point_angle_wrapped(self):
        spec = ManifoldSpec((se2_block("p"),))
        x = ManifoldPoint(spec, (np.array([0.0, 0.0, 4.0]),))
        th = x.block("p")[2]
        assert -np.pi < th <= np.pi

    def test_values_read_only(self):
        spec = ManifoldSpec((euclidean_block("v", 2),))
        x = ManifoldPoint(spec, (np.array([1.0, 2.0]),))
        with pytest.raises(ValueError):
            x.block("v")[0] = 9.0

    def test_block_views_read_only(self):
        spec = make_spec()
        x = boxplus(ManifoldPoint(spec, ([1.0, 2.0], [0.1, 0.2, 0.3])), np.ones(5))
        for view in (x.block("v"), x.block("p"), x.poses, x.vector):
            with pytest.raises(ValueError):
                view[0] = 9.0
        with pytest.raises(AttributeError):
            x.poses = np.zeros((1, 3))

    def test_columnar_storage(self):
        spec = ManifoldSpec((se2_block("a"), euclidean_block("v", 2), se2_block("b")))
        x = ManifoldPoint(spec, ([1.0, 2.0, 0.5], [7.0, 8.0], [3.0, 4.0, -0.5]))
        np.testing.assert_array_equal(x.poses, [[1.0, 2.0, 0.5], [3.0, 4.0, -0.5]])
        np.testing.assert_array_equal(x.vector, [7.0, 8.0])
        np.testing.assert_array_equal(spec.pose_tangent_index, [[0, 1, 2], [5, 6, 7]])
        np.testing.assert_array_equal(spec.vector_tangent_index, [3, 4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        spec = make_spec()
        with pytest.raises(ValueError, match="non-finite"):
            ManifoldPoint(spec, ([0.0, 0.0], [0.0, 1.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            ManifoldPoint(spec, ([bad, 0.0], [0.0, 1.0, 0.0]))

    def test_tangent_offsets(self):
        spec = make_spec()
        np.testing.assert_array_equal(spec.offsets, [0, 2])
        np.testing.assert_array_equal(spec.dims, [2, 3])

    def test_positions_of_ids(self):
        spec = ManifoldSpec((se2_block(0), euclidean_block("v", 2), se2_block((0, 1))))
        assert spec.position((0, 1)) == 2
        np.testing.assert_array_equal(spec.positions([(0, 1), "v", 0, "w", 1]),
                                      [2, 1, 0, -1, -1])
        assert spec.positions([]).dtype == np.intp
        with pytest.raises(KeyError):
            spec.position("w")


def _columns(blocks):
    return tuple(zip(*blocks))


class TestSpecDeclaration:
    """Both constructors run the same checks and give equal specs."""

    BLOCKS = (se2_block("a"), euclidean_block("v", 2), euclidean_block(("b", 1), 3))

    @pytest.mark.parametrize("block, message", [
        (euclidean_block("x", 0), "^block dimension must be >= 1$"),
        (euclidean_block("x", -1), "^block dimension must be >= 1$"),
        (euclidean_block("x", 2.5), "^block dimension must be an integer$"),
        (euclidean_block("x", True), "^block dimension must be an integer$"),
        (Block("x", "so3", 3), "^unknown block kind 'so3'$"),
        (Block("x", SE2, 2), "^SE2 blocks have tangent dimension 3$"),
    ])
    @pytest.mark.parametrize("from_arrays", [False, True])
    def test_bad_declarations_rejected(self, block, message, from_arrays):
        blocks = (se2_block("p"), block)
        with pytest.raises(ValueError, match=message):
            ManifoldSpec.from_arrays(*_columns(blocks)) if from_arrays else ManifoldSpec(blocks)

    @pytest.mark.parametrize("from_arrays", [False, True])
    def test_duplicate_ids_rejected(self, from_arrays):
        blocks = (euclidean_block("a", 2), se2_block("a"))
        with pytest.raises(ValueError, match="^block ids must be unique$"):
            ManifoldSpec.from_arrays(*_columns(blocks)) if from_arrays else ManifoldSpec(blocks)

    def test_numpy_integer_dimensions_accepted(self):
        spec = ManifoldSpec((euclidean_block("v", np.int64(2)),))
        assert spec == ManifoldSpec.from_arrays(["v"], [EUCLIDEAN], np.array([2]))
        assert spec.tangent_dim == 2

    def test_specs_built_separately_are_equal(self):
        a, b = ManifoldSpec(self.BLOCKS), ManifoldSpec(list(self.BLOCKS))
        c = ManifoldSpec.from_arrays(*_columns(self.BLOCKS))
        assert a is not b and a == b == c

    @pytest.mark.parametrize("change", ["id", "order", "kind", "dim"])
    def test_specs_differing_in_one_declaration_are_unequal(self, change):
        blocks = list(self.BLOCKS)
        if change == "id":
            blocks[0] = se2_block("z")
        elif change == "order":
            blocks[1], blocks[2] = blocks[2], blocks[1]
        elif change == "kind":
            blocks[2] = se2_block(("b", 1))
        else:
            blocks[1] = euclidean_block("v", 3)
        for spec in (ManifoldSpec(self.BLOCKS), ManifoldSpec.from_arrays(*_columns(self.BLOCKS))):
            assert spec != ManifoldSpec(blocks)
            assert spec != ManifoldSpec.from_arrays(*_columns(blocks))

    def test_boxminus_needs_equal_specs(self):
        same = ManifoldSpec(self.BLOCKS)
        x = origin(ManifoldSpec(self.BLOCKS))
        np.testing.assert_array_equal(boxminus(origin(same), x), np.zeros(8))
        other = ManifoldSpec(self.BLOCKS[:2] + (se2_block(("b", 1)),))
        with pytest.raises(ValueError, match="^points live on different manifold specs$"):
            boxminus(origin(other), x)


class TestFromArrays:
    """``ManifoldPoint.from_arrays`` validates the stored layout in one pass
    and builds the same point as the per-block constructor."""

    def spec(self):
        return ManifoldSpec((se2_block("a"), euclidean_block("v", 2), se2_block("b")))

    def test_matches_the_per_block_constructor(self):
        # angles outside (-pi, pi], on its edges and past a few turns wrap alike
        rng = np.random.default_rng(12)
        spec = ManifoldSpec(tuple(se2_block(i) for i in range(40)) + (euclidean_block("v", 3),))
        poses = rng.uniform(-30.0, 30.0, size=(40, 3))
        poses[:4, 2] = [np.pi, -np.pi, np.nextafter(-np.pi, 0.0), 3 * np.pi]
        vector = rng.normal(size=3)
        x = ManifoldPoint.from_arrays(spec, poses, vector)
        y = ManifoldPoint(spec, tuple(poses) + (vector,))
        assert np.array_equal(x.poses, y.poses)
        assert np.array_equal(x.vector, y.vector)

    def test_copies_its_input(self):
        poses = np.array([[0.0, 0.0, 4.0], [1.0, 2.0, 0.5]])
        x = ManifoldPoint.from_arrays(self.spec(), poses, [7.0, 8.0])
        assert poses[0, 2] == 4.0 and poses.flags.writeable
        with pytest.raises(ValueError):
            x.poses[0, 0] = 9.0

    @pytest.mark.parametrize("poses, vector, match", [
        (np.zeros((3, 3)), np.zeros(2), r"poses expects shape \(2, 3\), got \(3, 3\)"),
        (np.zeros((2, 2)), np.zeros(2), r"poses expects shape \(2, 3\), got \(2, 2\)"),
        (np.zeros((2, 3)), np.zeros(3), r"vector expects shape \(2,\), got \(3,\)"),
        (np.zeros((2, 3)), np.zeros((1, 2)), r"vector expects shape \(2,\), got \(1, 2\)"),
    ])
    def test_wrong_shape_rejected(self, poses, vector, match):
        with pytest.raises(ValueError, match=match):
            ManifoldPoint.from_arrays(self.spec(), poses, vector)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_the_first_bad_block(self, bad):
        spec = self.spec()
        poses, vector = np.zeros((2, 3)), np.zeros(2)
        for where, block in (((1, 2), "'b'"), ((0, 0), "'a'")):
            p = poses.copy()
            p[where] = bad
            with pytest.raises(ValueError, match=f"block {block} has non-finite"):
                ManifoldPoint.from_arrays(spec, p, vector)
        p = poses.copy()
        p[1, 0] = bad
        with pytest.raises(ValueError, match="block 'v' has non-finite"):
            ManifoldPoint.from_arrays(spec, p, [0.0, bad])
