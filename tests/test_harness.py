import csv
import json

import numpy as np
import pytest
from conftest import one_row_sets, origin

from jointcov import joint
from jointcov.covariance import UnboundedProblem
from jointcov.harness import (
    RESULT_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    base_covariance,
    emit_results,
    rmse,
    run_linear_mc,
    run_pgo_ablation,
    wasserstein2,
)
from jointcov.manifold import ManifoldPoint, ManifoldSpec, euclidean_block, se2_block


def sqrtm_spd(a):
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(vals)) @ vecs.T


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
        with pytest.raises(ValueError, match="^points live on different manifold specs$"):
            rmse(origin(s1), origin(s2))


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

    def test_round_trip_through_the_information_matrix_reads_round_off(self):
        # a linear-mc true covariance (seed 42, m = 5, noise level 0.01)
        sigma = base_covariance(42, 5) + 0.01 * np.eye(5)
        assert wasserstein2(np.linalg.inv(np.linalg.inv(sigma)), sigma) < 1e-13

    def test_resolves_a_tiny_difference(self):
        # sqrt(1 + 1e-9) - 1 = 5e-10 to first order
        got = wasserstein2(np.diag([1.0 + 1e-9, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0]))
        assert got == pytest.approx(5e-10, rel=1e-3)

    def test_matches_the_trace_form_away_from_equality(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 3, 5):
            a, b = random_spd(rng, m), random_spd(rng, m)
            root_a = sqrtm_spd(a)
            trace_form = np.sqrt(np.trace(a) + np.trace(b)
                                 - 2.0 * np.trace(sqrtm_spd(root_a @ b @ root_a)))
            assert wasserstein2(a, b) == pytest.approx(trace_form, rel=1e-9)


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
        emit_results(self.make_records(), path, "csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            list(RESULT_COLUMNS),
            ["linear-mc", "0", "7", "bcd", "0.01", "0.5", "0.25", "", "-3.25",
             "12", "17.25", "ok"],
            ["linear-mc", "1", "7", "elimination", "0.01", "", "", "", "", "",
             "4.0", "error: ValueError: boom"],
        ]

    def test_json_roundtrip_and_keys(self, tmp_path):
        path = tmp_path / "out.json"
        records = self.make_records()
        emit_results(records, path, "json")
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert all(list(entry) == list(RESULT_COLUMNS) for entry in payload)
        assert [list(entry.values()) for entry in payload] == [r.row() for r in records]

    def test_float_precision_survives(self, tmp_path):
        path = tmp_path / "out.csv"
        value = 0.1 + 0.2  # not exactly representable as 0.3
        rec = TrialRecord("linear-mc", 0, 0, "bcd", value, value, value, value,
                          value, 1, value, "ok")
        emit_results([rec], path, "csv")
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["rmse"]) == value


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
        from jointcov.io_pgo import (PoseGraph2D, SyntheticNoiseSpec,
                                     generate_manhattan_like, save_g2o)

        info = {"all": np.diag([100.0, 200.0, 150.0])}
        graph, truth = generate_manhattan_like(
            100, "nearby", SyntheticNoiseSpec(info, seed=3), trajectory_seed=5)
        data = tmp_path / "data.g2o"
        save_g2o(graph, data)
        gt = tmp_path / "gt.g2o"
        save_g2o(PoseGraph2D(truth.poses, graph.i, graph.j, graph.z, graph.information,
                             graph.kind), gt)
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


class TestSharedLinearProblem:
    """The linear study builds one problem per (level, trial) for all four
    algorithms, and each gets what a problem of its own would give."""

    def test_one_problem_per_trial_matches_fresh_problems(self, monkeypatch):
        from jointcov import harness
        from jointcov.io_pgo import counter_rng
        from jointcov.problem import JointProblem, NoiseGroup, linear_set

        cfg = ExperimentConfig(experiment="linear-mc", trials=2, seed=3,
                               noise_grid=(0.01, 1.0), state_dim=6,
                               num_measurements=12, residual_dim=3)
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return JointProblem(*args, **kwargs)

        monkeypatch.setattr(harness, "JointProblem", counting)
        records = run_linear_mc(cfg)
        monkeypatch.undo()
        assert len(built) == 2 * 2
        assert [r.algorithm for r in records] == list(harness.LINEAR_ALGORITHMS) * 4

        # the study's draws, and a problem of its own per algorithm, with a
        # fixed-weight group for the baselines
        n, k, m = 6, 12, 3
        sigma_base = base_covariance(cfg.seed, m)
        spec = ManifoldSpec((euclidean_block("x", n),))
        expected = []
        for level_idx, sigma2 in enumerate(cfg.noise_grid):
            sigma_true = sigma_base + sigma2 * np.eye(m)
            L = np.linalg.cholesky(sigma_true)
            for trial in range(cfg.trials):
                rng = counter_rng(cfg.seed, 7, level_idx, trial)
                Hs = rng.standard_normal((k, m, n))
                zs = Hs @ np.ones(n) + rng.standard_normal((k, m)) @ L.T
                for algorithm in harness.LINEAR_ALGORITHMS:
                    group = (NoiseGroup("g", m, "fixed", information=(
                        np.linalg.inv(sigma_true) if algorithm == "fixed-true"
                        else np.eye(m))) if algorithm.startswith("fixed")
                        else NoiseGroup("g", m, "ml"))
                    # its rows as one-row sets, which must solve bit for bit alike
                    problem = JointProblem(
                        spec, one_row_sets(linear_set("x", Hs, zs, "g")), (group,))
                    expected.append(harness._run_linear_algorithm(
                        cfg, algorithm, problem, ManifoldPoint(spec, (np.zeros(n),)),
                        sigma_true, np.ones(n), trial, sigma2))
        assert all(r.status == "ok" for r in records)
        for got, ref in zip(records, expected, strict=True):
            # traces match but for the timings
            assert ([t._replace(wall_ms=None) for t in got.trace]
                    == [t._replace(wall_ms=None) for t in ref.trace])
            for name in vars(ref).keys() - {"wall_ms", "trace"}:
                assert getattr(got, name) == getattr(ref, name), name


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
