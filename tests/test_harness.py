import numpy as np
import pytest

from jointcov import joint
from jointcov.covariance import UnboundedProblem
from jointcov.harness import (
    RESULT_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    base_covariance,
    emit_results,
    read_results,
    rmse,
    run_linear_mc,
    run_pgo_ablation,
    wasserstein2,
)
from jointcov.manifold import ManifoldPoint, ManifoldSpec, euclidean_block, se2_block


def random_spd(rng, m):
    a = rng.normal(size=(m, m))
    return a @ a.T + 0.5 * np.eye(m)


class TestRmse:
    def test_exact_estimate_is_zero(self):
        spec = ManifoldSpec((euclidean_block("v", 3), se2_block("p")))
        x = ManifoldPoint(spec, (np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])))
        assert rmse(x, x, "all") == 0.0
        assert rmse(x, x, "positions") == 0.0

    def test_single_component_error(self):
        # error 3 on one of nine equal components
        spec = ManifoldSpec((euclidean_block("v", 9),))
        a = ManifoldPoint(spec, (np.zeros(9),))
        vals = np.zeros(9)
        vals[4] = 3.0
        b = ManifoldPoint(spec, (vals,))
        assert rmse(a, b, "all") == pytest.approx(1.0)

    def test_block_order_invariant(self):
        rng = np.random.default_rng(0)
        va, vb = rng.normal(size=2), rng.normal(size=2)
        wa, wb = rng.normal(size=3), rng.normal(size=3)
        s1 = ManifoldSpec((euclidean_block("a", 2), euclidean_block("b", 3)))
        s2 = ManifoldSpec((euclidean_block("b", 3), euclidean_block("a", 2)))
        r1 = rmse(ManifoldPoint(s1, (va, wa)), ManifoldPoint(s1, (vb, wb)), "all")
        r2 = rmse(ManifoldPoint(s2, (wa, va)), ManifoldPoint(s2, (wb, vb)), "all")
        assert r1 == pytest.approx(r2)

    def test_positions_ignore_rotation_and_euclidean(self):
        spec = ManifoldSpec((euclidean_block("v", 2), se2_block("p")))
        a = ManifoldPoint(spec, (np.zeros(2), np.array([0.0, 0.0, 0.0])))
        b = ManifoldPoint(spec, (np.ones(2) * 9, np.array([3.0, 4.0, 1.0])))
        assert rmse(a, b, "positions") == pytest.approx(np.sqrt((9 + 16) / 2))

    def test_spec_mismatch_rejected(self):
        s1 = ManifoldSpec((euclidean_block("a", 2),))
        s2 = ManifoldSpec((euclidean_block("a", 3),))
        with pytest.raises(ValueError):
            rmse(s1.identity(), s2.identity())


class TestWasserstein:
    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = random_spd(rng, 3)
            assert wasserstein2(s, s) <= 1e-10

    def test_isotropic_closed_form(self):
        # sqrt(m) * |sqrt(a) - sqrt(b)| for a I vs b I
        assert wasserstein2(4 * np.eye(2), np.eye(2)) == pytest.approx(np.sqrt(2))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = random_spd(rng, 4), random_spd(rng, 4)
            assert wasserstein2(a, b) == pytest.approx(wasserstein2(b, a), abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            assert wasserstein2(a, b) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein2(np.eye(2), np.eye(3))


class TestEmit:
    def make_records(self):
        return [
            TrialRecord("linear-mc", 0, 7, "bcd", 0.01, 0.5, 0.25, None,
                        -3.25, 12, 17.25, "ok"),
            TrialRecord("linear-mc", 1, 7, "elimination", 0.01, None, None, None,
                        None, None, 4.0, "error: ValueError: boom"),
        ]

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([], path, "csv")
        text = path.read_text().strip()
        assert text == ",".join(RESULT_COLUMNS)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        records = self.make_records()
        emit_results(records, path, "csv")
        back = read_results(path, "csv")
        assert [r.row() for r in back] == [r.row() for r in records]

    def test_json_roundtrip_and_keys(self, tmp_path):
        import json

        path = tmp_path / "out.json"
        records = self.make_records()
        emit_results(records, path, "json")
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert list(payload[0].keys()) == list(RESULT_COLUMNS)
        back = read_results(path, "json")
        assert [r.row() for r in back] == [r.row() for r in records]

    def test_float_precision_survives(self, tmp_path):
        path = tmp_path / "out.csv"
        value = 0.1 + 0.2  # not exactly representable as 0.3
        rec = TrialRecord("linear-mc", 0, 0, "bcd", value, value, value, value,
                          value, 1, value, "ok")
        emit_results([rec], path, "csv")
        assert read_results(path)[0].rmse == value


class TestConfig:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(noise_grid=())

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)

    def test_base_covariance_fixed_by_seed(self):
        a = base_covariance(3, 5)
        b = base_covariance(3, 5)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.eigvalsh(a).min() >= 0


class TestDeterminism:
    def test_linear_mc_bit_identical_modulo_walltime(self, tmp_path):
        cfg = ExperimentConfig(experiment="linear-mc", trials=2,
                               noise_grid=(0.01,), seed=5,
                               algorithms=("bcd", "fixed-identity"))
        r1 = run_linear_mc(cfg)
        r2 = run_linear_mc(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(r1, p1)
        emit_results(r2, p2)
        strip = lambda p: [  # noqa: E731
            ",".join(line.split(",")[:10]) for line in p.read_text().splitlines()
        ]  # drops wall_ms, status columns stay equal anyway
        assert strip(p1) == strip(p2)

    def test_pgo_generator_config_input(self, tmp_path):
        gen = tmp_path / "gen.cfg"
        gen.write_text("num_poses 120\nscheme nearby\ntrajectory_seed 5\n"
                       "information all 10 20 15\n")
        cfg = ExperimentConfig(experiment="pgo-ablation", trials=1,
                               noise_grid=(2.0,), algorithms=("bcd",),
                               generator=str(gen))
        records = run_pgo_ablation(cfg)
        assert len(records) == 1 and records[0].status == "ok"
        assert records[0].rmse is not None

    def test_pgo_external_dataset_input(self, tmp_path):
        from jointcov.io_pgo import (SyntheticNoiseSpec,
                                     generate_manhattan_like, save_g2o)

        info = {"all": np.diag([100.0, 200.0, 150.0])}
        graph, truth = generate_manhattan_like(
            100, "nearby", SyntheticNoiseSpec(info, seed=3), trajectory_seed=5)
        data = tmp_path / "data.g2o"
        save_g2o(graph, data)
        gt_graph = type(graph)(
            poses={i: np.asarray(truth.block(i)) for i in graph.poses},
            edges=graph.edges)
        gt = tmp_path / "gt.g2o"
        save_g2o(gt_graph, gt)
        cfg = ExperimentConfig(experiment="pgo-ablation", trials=1,
                               noise_grid=(0.0,),
                               algorithms=("bcd", "fixed-true"),
                               dataset=str(data), dataset_truth=str(gt))
        records = run_pgo_ablation(cfg)
        by_alg = {r.algorithm: r for r in records}
        assert by_alg["bcd"].status == "ok"
        assert by_alg["bcd"].rmse is not None
        assert by_alg["bcd"].w2_odometry is None  # true covariance unknown
        assert by_alg["fixed-true"].status.startswith("skipped")

    def test_pgo_trial_failure_recorded_not_raised(self):
        # prior-free unconstrained variant on a graph: composing odometry
        # residuals can zero out; with k >= m it usually survives, but the
        # error path must record rather than raise regardless
        cfg = ExperimentConfig(experiment="pgo-ablation", trials=1,
                               noise_grid=(5.0,), num_poses=60,
                               algorithms=("bcd",))
        records = run_pgo_ablation(cfg)
        assert len(records) == 1
        assert records[0].status == "ok" or records[0].status.startswith("error:")


class TestTrialFailures:
    """A trial records documented domain failures and lets other errors out."""

    CASES = [
        ("run_block_exact_bcd", ExperimentConfig(
            experiment="linear-mc", trials=1, noise_grid=(1.0,),
            algorithms=("bcd",)), run_linear_mc),
        ("run_hybrid_bcd", ExperimentConfig(
            experiment="pgo-ablation", trials=1, noise_grid=(2.0,),
            num_poses=30, algorithms=("bcd",)), run_pgo_ablation),
    ]

    @pytest.mark.parametrize("solver, cfg, run", CASES, ids=["linear", "pgo"])
    def test_programming_error_propagates(self, monkeypatch, solver, cfg, run):
        def broken(*args, **kwargs):
            raise TypeError("bad argument")

        monkeypatch.setattr(joint, solver, broken)
        with pytest.raises(TypeError, match="bad argument"):
            run(cfg)

    @pytest.mark.parametrize("solver, cfg, run", CASES, ids=["linear", "pgo"])
    def test_domain_failure_recorded(self, monkeypatch, solver, cfg, run):
        def unbounded(*args, **kwargs):
            raise UnboundedProblem("singular")

        monkeypatch.setattr(joint, solver, unbounded)
        (record,) = run(cfg)
        assert record.status == "error: UnboundedProblem: singular"
