"""Command-line entry points: linear-mc, pgo, solve, calibrate.

Flags mirror the experiment configuration; a key-value config file passed
with --config overrides any flags.  Results go to CSV/JSON files; `solve`
and `calibrate` also print a short summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import harness, io_pgo, joint
from .covariance import UnboundedProblem
from .harness import ExperimentConfig
from .problem import VARIANTS


def _keys_of_type(*types: str) -> set:
    """Config keys: the ExperimentConfig fields annotated with one of ``types``."""
    return {f.name for f in dataclasses.fields(ExperimentConfig) if f.type in types}


_GRID_KEYS = {"noise_grid"}
_INT_KEYS = _keys_of_type("int")
_FLOAT_KEYS = _keys_of_type("float")
_BOOL_KEYS = _keys_of_type("bool")
_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_ESTIMATED_VARIANTS = sorted(set(VARIANTS) - {"fixed"})
_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _parse_grid(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _number(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"takes {'an integer' if kind is int else 'a number'}, "
                         f"got {text!r}") from None


def _config_value(key: str, values: list):
    """The typed value of a config line's ``values``; the ValueError names
    what is wrong with them."""
    if not values:
        raise ValueError("needs a value")
    if key in _GRID_KEYS:
        return tuple(_number(float, v) for v in values)
    if key == "algorithms":
        return tuple(values)
    if len(values) > 1:
        raise ValueError(f"takes one value, got {len(values)}")
    (value,) = values
    if key in _INT_KEYS:
        return _number(int, value)
    if key in _FLOAT_KEYS:
        return _number(float, value)
    if key in _BOOL_KEYS:
        if value.lower() not in _BOOL_WORDS:
            raise ValueError(f"takes one of {'/'.join(_BOOL_WORDS)}, got {value!r}")
        return _BOOL_WORDS[value.lower()]
    return value


def load_config_file(path) -> dict:
    """Key-value overrides: one `key value...` pair per line, '#' comments.

    Grids and algorithm lists take several values, every other key one;
    a bad line fails as ``path:line: config key 'k' ...``.  The subcommand
    names the experiment, so the file may not set ``experiment``.
    """
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            key = parts[0]
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key == "experiment":
                raise ValueError(f"{path}:{lineno}: config key 'experiment' is set by "
                                 "the subcommand")
            try:
                overrides[key] = _config_value(key, parts[1:])
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: config key {key!r} {err}") from None
    return overrides


def _apply_config(cfg: ExperimentConfig, path) -> ExperimentConfig:
    if path is None:
        return cfg
    for key, value in load_config_file(path).items():
        setattr(cfg, key, value)
    cfg.__post_init__()
    return cfg


def _add_common(p):
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--algorithms", type=lambda s: tuple(s.split(",")))
    p.add_argument("--output", help="result file path")
    p.add_argument("--format", choices=harness.FORMATS)
    p.add_argument("--config", help="key-value config file; overrides flags")


def _add_prior_and_bounds(p):
    """Noise-model flags of the pose-graph commands; unset flags take the
    ExperimentConfig defaults."""
    p.add_argument("--heteroscedastic", action="store_true", default=None)
    p.add_argument("--w-prior", type=float)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--lam-min", type=float)
    p.add_argument("--lam-max", type=float)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jointcov",
        description="Joint state and noise-covariance estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linear-mc", help="linear-model Monte Carlo study")
    _add_common(p)
    p.add_argument("--sigma2-grid", type=_parse_grid, dest="noise_grid",
                   help="comma-separated noise variances")
    p.add_argument("--bcd-iterations", type=int)
    p.add_argument("--elimination-iterations", type=int)
    p.add_argument("--state-dim", type=int)
    p.add_argument("--num-measurements", type=int)
    p.add_argument("--residual-dim", type=int)

    p = sub.add_parser("pgo", help="pose-graph covariance-estimation ablation")
    _add_common(p)
    p.add_argument("--alpha-grid", type=_parse_grid, dest="noise_grid",
                   help="comma-separated information levels")
    p.add_argument("--num-poses", type=int)
    p.add_argument("--scheme", choices=("nearby", "densified"))
    _add_prior_and_bounds(p)
    p.add_argument("--outer-iterations", type=int)
    p.add_argument("--baseline-iterations", type=int)
    p.add_argument("--generator", help="generator-config file for the dataset")
    p.add_argument("--dataset", help="fixed g2o dataset instead of synthetic data")
    p.add_argument("--dataset-truth", help="g2o file with ground-truth vertices")
    p.add_argument("--full-scale", action="store_true",
                   help="benchmark-size run: 3500 poses, 50 trials, full grid")

    p = sub.add_parser("solve", help="jointly solve one SE(2) g2o dataset")
    p.add_argument("--input", required=True, help="g2o file")
    p.add_argument("--classes", help="edge-class override file (i j odometry|loop)")
    p.add_argument("--variant", default="ml-eig", choices=_ESTIMATED_VARIANTS)
    p.add_argument("--algorithm", default=joint.HYBRID_BCD,
                   choices=joint.ALGORITHMS)
    _add_prior_and_bounds(p)
    p.add_argument("--outer-iterations", type=int)
    p.add_argument("--output-graph", help="write optimized poses as g2o")
    p.add_argument("--output-covariance", help="write covariance estimates as JSON")

    p = sub.add_parser("calibrate",
                       help="estimate noise covariances at a known ground truth")
    p.add_argument("--input", required=True, help="g2o file with measurements")
    p.add_argument("--ground-truth", required=True,
                   help="g2o file whose vertices are the true poses")
    p.add_argument("--classes", help="edge-class override file")
    p.add_argument("--variant", default="ml", choices=_ESTIMATED_VARIANTS)
    _add_prior_and_bounds(p)
    p.add_argument("--output", help="write covariance estimates as JSON")
    return parser


def _experiment_config(args, experiment: str, defaults: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=experiment, **defaults)
    for key in vars(args):
        if key in ("command", "config", "full_scale") or getattr(args, key) is None:
            continue
        if hasattr(cfg, key):
            setattr(cfg, key, getattr(args, key))
    cfg.__post_init__()
    return _apply_config(cfg, getattr(args, "config", None))


def _emit(records, cfg: ExperimentConfig, default_name: str) -> str:
    path = cfg.output or default_name
    harness.emit_results(records, path, cfg.format)
    return path


def _summarize(records) -> str:
    failures = sum(1 for r in records if r.status != "ok")
    return f"{len(records)} records ({failures} failed)"


def _covariance_payload(information: dict) -> dict:
    payload = {}
    for gid, P in information.items():
        payload[str(gid)] = {
            "information": np.asarray(P).tolist(),
            "covariance": np.linalg.inv(P).tolist(),
        }
    return payload


def main(argv=None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except (OSError, ValueError, UnboundedProblem) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:

    if args.command == "linear-mc":
        cfg = _experiment_config(args, "linear-mc", {})
        records = harness.run_linear_mc(cfg)
        path = _emit(records, cfg, "linear_mc_results." + cfg.format)
        print(f"linear-mc: {_summarize(records)} -> {path}")
        return 0

    if args.command == "pgo":
        defaults = {"trials": 10, "noise_grid": (5.0, 40.0)}
        if args.full_scale:
            defaults = {"trials": 50, "noise_grid": (5.0, 10.0, 20.0, 30.0, 40.0),
                        "num_poses": 3500}
        cfg = _experiment_config(args, "pgo-ablation", defaults)
        records = harness.run_pgo_ablation(cfg)
        path = _emit(records, cfg, "pgo_results." + cfg.format)
        print(f"pgo-ablation: {_summarize(records)} -> {path}")
        return 0

    if args.command == "solve":
        graph = io_pgo.load_g2o(args.input, classes_path=args.classes)
        if not graph.edges:
            print(f"{args.input}: no EDGE_SE2 measurements to solve",
                  file=sys.stderr)
            return 2
        result, problem = harness.solve_graph(
            graph, _experiment_config(args, "single-run", {}),
            variant=args.variant, algorithm=args.algorithm)
        print(f"solved {args.input}: {graph.num_poses} poses, "
              f"{len(graph.edges)} edges")
        print(f"objective {result.objective:.6f} after {result.iterations} "
              f"iterations (converged: {result.converged})")
        if result.flags:
            print(f"flags: {', '.join(sorted(result.flags))}")
        for gid, P in result.information.items():
            sigma = np.linalg.inv(P)
            print(f"group {gid}: estimated covariance diag "
                  f"{np.diag(sigma).round(8).tolist()}")
        if args.output_graph:
            io_pgo.save_g2o(io_pgo.PoseGraph2D(result.x.poses, graph.i, graph.j, graph.z,
                                               graph.information, graph.kind),
                            args.output_graph)
            print(f"poses -> {args.output_graph}")
        if args.output_covariance:
            with open(args.output_covariance, "w") as fh:
                json.dump(_covariance_payload(result.information), fh, indent=1)
            print(f"covariances -> {args.output_covariance}")
        return 0

    if args.command == "calibrate":
        graph = io_pgo.load_g2o(args.input, classes_path=args.classes)
        truth_graph = io_pgo.load_g2o(args.ground_truth)
        if truth_graph.num_poses != graph.num_poses:
            print("ground-truth vertex count does not match input", file=sys.stderr)
            return 2
        problem, _ = harness.pose_graph_setup(
            graph, _experiment_config(args, "single-run", {}), args.variant)
        x_true = io_pgo.graph_poses_point(truth_graph)
        P = joint.calibrate(problem, x_true)
        payload = _covariance_payload(P)
        for gid, entry in payload.items():
            print(f"group {gid}: covariance diag "
                  f"{np.diag(np.asarray(entry['covariance'])).round(8).tolist()}")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=1)
            print(f"covariances -> {args.output}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
