import contextlib
import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointcov import harness, joint, nls
from jointcov.cli import load_config_file, main
from jointcov.harness import ExperimentConfig
from jointcov.io_pgo import (
    PoseGraph2D,
    SyntheticNoiseSpec,
    generate_manhattan_like,
    load_g2o,
    save_g2o,
)


def read_rows(path):
    """The result CSV's rows, as dicts keyed by column."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def small_graph_files(tmp_path):
    info = {"all": np.diag([100.0, 200.0, 150.0])}
    graph, truth = generate_manhattan_like(
        80, "nearby", SyntheticNoiseSpec(info, seed=4), trajectory_seed=5)
    noisy = tmp_path / "graph.g2o"
    save_g2o(graph, noisy)
    gt = tmp_path / "gt.g2o"
    save_g2o(PoseGraph2D(truth.poses, graph.i, graph.j, graph.z, graph.information,
                         graph.kind), gt)
    return noisy, gt


class TestLinearMcCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["linear-mc", "--trials", "2", "--seed", "1",
                   "--sigma2-grid", "0.01", "--algorithms", "bcd,fixed-true",
                   "--output", str(out)])
        assert rc == 0
        records = read_rows(out)
        assert len(records) == 4
        assert {r["algorithm"] for r in records} == {"bcd", "fixed-true"}

    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials 1\nnoise_grid 1.0\nalgorithms fixed-identity\n")
        out = tmp_path / "r.csv"
        rc = main(["linear-mc", "--trials", "5", "--sigma2-grid", "0.01,100",
                   "--output", str(out), "--config", str(cfg)])
        assert rc == 0
        (record,) = read_rows(out)
        assert record["algorithm"] == "fixed-identity"
        assert float(record["noise_level"]) == 1.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["linear-mc", "--trials", "1", "--sigma2-grid", "0.01",
                   "--algorithms", "fixed-identity",
                   "--output", str(out), "--format", "json"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload[0]["algorithm"] == "fixed-identity"


class TestPgoCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "pgo.csv"
        rc = main(["pgo", "--trials", "1", "--num-poses", "80",
                   "--alpha-grid", "5", "--algorithms", "bcd,fixed-identity",
                   "--output", str(out)])
        assert rc == 0
        records = read_rows(out)
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)

    def test_generator_config_input(self, tmp_path):
        gen = tmp_path / "gen.cfg"
        gen.write_text("num_poses 90\nscheme nearby\ntrajectory_seed 5\n")
        out = tmp_path / "pgo.csv"
        rc = main(["pgo", "--trials", "1", "--alpha-grid", "5",
                   "--algorithms", "bcd", "--generator", str(gen),
                   "--output", str(out)])
        assert rc == 0
        (record,) = read_rows(out)
        assert record["status"] == "ok"

    def test_bad_generator_argument_is_one_error_line(self, tmp_path, capsys):
        gen = tmp_path / "gen.cfg"
        gen.write_text("num_poses 90\nloop_fraction -0.1\n")
        rc = main(["pgo", "--trials", "1", "--alpha-grid", "5", "--algorithms", "bcd",
                   "--generator", str(gen), "--output", str(tmp_path / "pgo.csv")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: loop_fraction must be finite and >= 0")

    def test_short_information_line_is_one_error_line(self, tmp_path, capsys):
        gen = tmp_path / "gen.cfg"
        gen.write_text("num_poses 90\ninformation loop 1 2\n")
        rc = main(["pgo", "--trials", "1", "--alpha-grid", "5", "--algorithms", "bcd",
                   "--heteroscedastic", "--generator", str(gen),
                   "--output", str(tmp_path / "pgo.csv")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: line 2: information takes a class")

    def test_bounds_below_one(self, tmp_path):
        out = tmp_path / "pgo.csv"
        assert main(["pgo", "--trials", "1", "--num-poses", "40", "--alpha-grid", "5",
                     "--lam-max", "0.5", "--output", str(out)]) == 0
        records = read_rows(out)
        assert len(records) == len(harness.PGO_ALGORITHMS)
        assert all(r["status"] == "ok" for r in records)

    def test_dataset_input(self, small_graph_files, tmp_path):
        noisy, gt = small_graph_files
        out = tmp_path / "pgo.csv"
        rc = main(["pgo", "--trials", "1", "--algorithms", "bcd,fixed-true",
                   "--dataset", str(noisy), "--dataset-truth", str(gt),
                   "--output", str(out)])
        assert rc == 0
        by_alg = {r["algorithm"]: r for r in read_rows(out)}
        assert by_alg["bcd"]["status"] == "ok"
        assert by_alg["bcd"]["rmse"] != ""
        assert by_alg["fixed-true"]["status"].startswith("skipped")


def invalid_settings():
    """(command, flag, value) with a value the flag must reject: a cap
    below 1, a grid entry that is not finite and positive, a prior weight
    or scale that is not, or eigenvalue bounds out of order."""
    not_positive = st.one_of(st.floats(max_value=0.0, allow_nan=False),
                             st.sampled_from([np.nan, np.inf]))
    cap = st.integers(max_value=0)
    grid = st.tuples(not_positive, st.lists(st.floats(0.1, 10.0), max_size=2)).map(
        lambda t: ",".join(repr(float(v)) for v in (t[0], *t[1])))
    return st.one_of(
        st.tuples(st.just("linear-mc"),
                  st.sampled_from(["--bcd-iterations", "--elimination-iterations"]),
                  cap),
        st.tuples(st.just("pgo"),
                  st.sampled_from(["--outer-iterations", "--baseline-iterations"]),
                  cap),
        st.tuples(st.just("linear-mc"), st.just("--sigma2-grid"), grid),
        st.tuples(st.just("pgo"), st.just("--alpha-grid"), grid),
        st.tuples(st.just("pgo"), st.sampled_from(["--w-prior", "--sigma0", "--lam-min"]),
                  not_positive),
        # above the default lam_max, 1e4
        st.tuples(st.just("pgo"), st.just("--lam-min"), st.floats(1.01e4, 1e300)),
        # below the default lam_min, 1e-4
        st.tuples(st.just("pgo"), st.just("--lam-max"),
                  st.one_of(st.floats(max_value=0.99e-4, allow_nan=False),
                            st.sampled_from([np.nan, np.inf]))),
    )


class TestBoundaryErrors:
    """Bad experiment settings end in one error line before anything is solved."""

    @pytest.mark.parametrize("command, experiment", [("linear-mc", "linear-mc"),
                                                     ("pgo", "pgo-ablation")])
    def test_unknown_algorithm_fails_before_solving(self, tmp_path, capsys,
                                                    monkeypatch, command, experiment):
        def solved(*args, **kwargs):
            raise AssertionError("solved before the algorithm names were checked")

        for name in ("solve_fixed_P", "run_block_exact_bcd", "run_hybrid_bcd"):
            monkeypatch.setattr(nls if name == "solve_fixed_P" else joint, name, solved)
        out = tmp_path / "r.csv"
        rc = main([command, "--trials", "1", "--algorithms", "bcd,foo",
                   "--output", str(out)])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: unknown {experiment} algorithm 'foo'; choose from ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--state-dim", "--num-measurements",
                                      "--residual-dim"])
    def test_non_positive_size_rejected(self, tmp_path, capsys, flag):
        rc = main(["linear-mc", "--trials", "1", flag, "0",
                   "--output", str(tmp_path / "r.csv")])
        assert rc == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {name} must be an int >= 1, got 0"]

    @settings(max_examples=150, deadline=None)
    @given(invalid_settings())
    @example(("pgo", "--baseline-iterations", 0))
    @example(("linear-mc", "--bcd-iterations", 0))
    @example(("linear-mc", "--sigma2-grid", "-5"))
    def test_invalid_numeric_setting_fails_before_solving(self, setting):
        command, flag, value = setting

        def called(*args, **kwargs):
            raise AssertionError("a runner was called before the settings were checked")

        err = io.StringIO()
        with contextlib.ExitStack() as stack:
            out = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "r.csv"
            for module, name in ((harness, "run_linear_mc"), (harness, "run_pgo_ablation"),
                                 (nls, "solve_fixed_P"), (joint, "run_elimination"),
                                 (joint, "run_block_exact_bcd"), (joint, "run_hybrid_bcd")):
                stack.enter_context(patch.object(module, name, called))
            stack.enter_context(contextlib.redirect_stderr(err))
            rc = main([command, "--trials", "1", f"{flag}={value}", "--output", str(out)])
            assert not out.exists()
        assert rc == 2
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
        assert flag in line or flag[2:].replace("-", "_") in line


class TestSolveCommand:
    def test_solve_and_outputs(self, small_graph_files, tmp_path, capsys):
        noisy, _ = small_graph_files
        out_graph = tmp_path / "est.g2o"
        out_cov = tmp_path / "cov.json"
        rc = main(["solve", "--input", str(noisy), "--variant", "ml-eig",
                   "--output-graph", str(out_graph),
                   "--output-covariance", str(out_cov)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "objective" in printed
        est = load_g2o(out_graph)
        assert est.num_poses == 80
        payload = json.loads(out_cov.read_text())
        assert "all" in payload
        cov = np.asarray(payload["all"]["covariance"])
        assert cov.shape == (3, 3)
        assert np.linalg.eigvalsh(cov).min() > 0

    def test_output_graph_is_the_input_edges_at_the_solved_poses(self, small_graph_files,
                                                                 tmp_path):
        # one VERTEX_SE2 line per solved pose block, each value to 17
        # digits, then the input's edge lines byte for byte
        noisy, _ = small_graph_files
        out_graph = tmp_path / "est.g2o"
        assert main(["solve", "--input", str(noisy), "--output-graph", str(out_graph)]) == 0
        result, _ = harness.solve_graph(load_g2o(noisy), ExperimentConfig(experiment="single-run"))
        vertices = [f"VERTEX_SE2 {v} " + " ".join(format(float(c), ".17g")
                                                  for c in result.x.block(v))
                    for v in range(80)]
        edges = [line for line in noisy.read_text().splitlines() if line.startswith("EDGE_SE2")]
        assert out_graph.read_text() == "\n".join(vertices + edges) + "\n"

    @pytest.mark.parametrize("bounds", [["--lam-max", "0.5"],
                                        ["--lam-min", "2", "--lam-max", "100"]],
                             ids=["below-one", "above-one"])
    def test_bounds_that_exclude_one(self, small_graph_files, tmp_path, capsys, bounds):
        """No group starts from the identity, so its eigenvalue 1 need not
        lie in the bounds; the estimate's eigenvalues do."""
        noisy, _ = small_graph_files
        out_cov = tmp_path / "cov.json"
        assert main(["solve", "--input", str(noisy), *bounds,
                     "--output-covariance", str(out_cov)]) == 0
        cov = np.asarray(json.loads(out_cov.read_text())["all"]["covariance"])
        lam_min = float(bounds[1]) if bounds[0] == "--lam-min" else 1e-4
        eigs = np.linalg.eigvalsh(cov)
        assert lam_min * (1 - 1e-9) <= eigs.min() and eigs.max() <= float(bounds[-1]) * (1 + 1e-9)

    def test_flags_are_printed(self, tmp_path, capsys):
        # one edge: every eigenvalue of the estimate sits at lam_min
        graph = tmp_path / "one_edge.g2o"
        graph.write_text("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n"
                         "EDGE_SE2 0 1 1.0 0.1 0.05 100 0 0 100 0 100\n")
        assert main(["solve", "--input", str(graph)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"solved {graph}: 2 poses, 1 edges",
            "objective -27.631021 after 2 iterations (converged: True)",
            "flags: eigenvalue_bound_hit",
            "group all: estimated covariance diag [0.0001, 0.0001, 0.0001]",
        ]


@pytest.fixture
def noise_free_graph(tmp_path):
    graph, truth = generate_manhattan_like(30, "nearby", None, trajectory_seed=5)
    noisy = tmp_path / "clean.g2o"
    save_g2o(graph, noisy)
    gt = tmp_path / "clean_gt.g2o"
    save_g2o(PoseGraph2D(truth.poses, graph.i, graph.j, graph.z, graph.information,
                         graph.kind), gt)
    return noisy, gt


class TestUnboundedProblem:
    @pytest.mark.parametrize("command", ["solve", "calibrate"])
    def test_noise_free_ml_fails_in_one_line(self, noise_free_graph, capsys, command):
        noisy, gt = noise_free_graph
        argv = [command, "--input", str(noisy), "--variant", "ml"]
        if command == "calibrate":
            argv += ["--ground-truth", str(gt)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: group 'all': sample covariance is singular")


class TestCalibrateCommand:
    def test_recovers_noise_scale(self, small_graph_files, tmp_path, capsys):
        noisy, gt = small_graph_files
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--input", str(noisy), "--ground-truth", str(gt),
                   "--variant", "ml", "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        cov = np.asarray(payload["all"]["covariance"])
        true_cov = np.linalg.inv(np.diag([100.0, 200.0, 150.0]))
        # calibration at the exact ground truth: close in relative terms
        assert np.abs(np.diag(cov) - np.diag(true_cov)).max() <= 0.5 * true_cov.max()

    @pytest.mark.parametrize("command", ["solve", "calibrate"])
    @pytest.mark.parametrize("variant", ["fixed", "ml-eigg"])
    def test_variant_takes_the_estimated_choices(self, small_graph_files, capsys,
                                                 command, variant):
        noisy, gt = small_graph_files
        truth = ["--ground-truth", str(gt)] if command == "calibrate" else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--input", str(noisy), *truth, "--variant", variant])
        assert exit_info.value.code == 2
        assert f"--variant: invalid choice: '{variant}'" in capsys.readouterr().err

    def test_vertex_count_mismatch_fails(self, small_graph_files, tmp_path):
        noisy, _ = small_graph_files
        other = tmp_path / "other.g2o"
        other.write_text("VERTEX_SE2 0 0 0 0\n")
        rc = main(["calibrate", "--input", str(noisy),
                   "--ground-truth", str(other)])
        assert rc == 2


# Config-file text and parsed value per field type, and for the tuple fields.
_VALUE_BY_TYPE = {"int": ("3", 3), "float": ("0.5", 0.5), "bool": ("yes", True),
                  "str": ("abc", "abc"), "str | None": ("abc", "abc")}
_VALUE_BY_NAME = {"noise_grid": ("0.1 2", (0.1, 2.0)),
                  "algorithms": ("bcd elimination", ("bcd", "elimination"))}


class TestConfigFile:
    @pytest.mark.parametrize("field", [f for f in dataclasses.fields(ExperimentConfig)
                                       if f.name != "experiment"], ids=lambda f: f.name)
    def test_every_field_accepted(self, tmp_path, field):
        text, value = _VALUE_BY_NAME.get(field.name) or _VALUE_BY_TYPE[field.type]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{field.name} {text}\n")
        parsed = load_config_file(cfg)
        assert parsed == {field.name: value}
        assert type(parsed[field.name]) is type(value)

    @pytest.mark.parametrize("command", ["linear-mc", "pgo"])
    def test_experiment_key_rejected(self, tmp_path, capsys, monkeypatch, command):
        # the subcommand names the experiment; a config file relabelling it
        # would mislabel every record
        def called(*args, **kwargs):
            raise AssertionError("a runner was called before the config was checked")

        monkeypatch.setattr(harness, "run_linear_mc", called)
        monkeypatch.setattr(harness, "run_pgo_ablation", called)
        cfg = tmp_path / "exp.txt"
        cfg.write_text("trials 2\nexperiment bogus\n")
        with pytest.raises(ValueError, match=f"^{cfg}:2: config key 'experiment' is set "
                                             "by the subcommand$"):
            load_config_file(cfg)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:2: config key 'experiment' is set by the subcommand"]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("bogus 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(cfg)

    def test_key_without_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bare.txt"
        cfg.write_text("# comment\ntrials\n")
        with pytest.raises(ValueError, match=r"bare.txt:2: config key 'trials' needs a value"):
            load_config_file(cfg)
        rc = main(["linear-mc", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg}:2: config key 'trials' needs a value"]

    @pytest.mark.parametrize("text, message", [
        ("heteroscedastic ture",
         "config key 'heteroscedastic' takes one of 1/true/yes/0/false/no, got 'ture'"),
        ("trials 2 3", "config key 'trials' takes one value, got 2"),
        ("trials 2.5", "config key 'trials' takes an integer, got '2.5'"),
        ("w_prior abc", "config key 'w_prior' takes a number, got 'abc'"),
        ("noise_grid 1 x", "config key 'noise_grid' takes a number, got 'x'"),
    ], ids=["bool", "two-values", "int", "float", "grid"])
    def test_bad_value_fails_before_solving(self, tmp_path, capsys, monkeypatch,
                                            text, message):
        def called(*args, **kwargs):
            raise AssertionError("a runner was called before the config was checked")

        monkeypatch.setattr(harness, "run_linear_mc", called)
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"# comment\n{text}\n")
        with pytest.raises(ValueError, match=f"^{cfg}:2: "):
            load_config_file(cfg)
        assert main(["linear-mc", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:2: {message}"]

    def test_unknown_format_fails_before_solving(self, tmp_path, capsys, monkeypatch):
        def called(*args, **kwargs):
            raise AssertionError("a runner was called before the config was checked")

        monkeypatch.setattr(harness, "run_linear_mc", called)
        cfg = tmp_path / "fmt.txt"
        cfg.write_text("format xml\n")
        out = tmp_path / "r.xml"
        assert main(["linear-mc", "--config", str(cfg), "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: format must be one of csv, json; got 'xml'"]
        assert not out.exists()
