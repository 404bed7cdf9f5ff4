"""Experiment orchestration: linear Monte-Carlo study, pose-graph ablations,
metrics (RMSE, 2-Wasserstein), and CSV/JSON result emission.

Protocol notes
--------------
Linear study: states in R^20, 50 measurements of dimension 5 per trial with
``H_i`` drawn standard normal, noise covariance ``sigma_base + sigma^2 I``.
``sigma_base`` is constructed as ``A^T A / m`` with ``A`` an m x m standard
normal draw from a dedicated stream of the master seed, fixed across all
trials and noise levels; per-trial noise is reseeded deterministically from
(master seed, level index, trial index).  The joint estimators run without
a prior (pure likelihood), alongside fixed-weight baselines using the true
covariance and the identity.

Pose-graph ablations: a synthetic Manhattan-style graph (fixed topology per
seed, fresh noise per trial) is solved by four one-step BCD variants
(eigenvalue-bounded likelihood / diagonal / Wishart-prior / diagonal+prior)
plus the two fixed-weight baselines, homoscedastic or heteroscedastic
(odometry vs loop closure).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import io_pgo, joint, nls
from .covariance import (
    NotPositiveDefiniteError,
    UnboundedProblem,
    jacobi_eigh,
    mode_match_prior,
    symmetrize,
)
from .io_pgo import LOOP, ODOMETRY, SyntheticNoiseSpec, counter_rng
from .manifold import (
    EUCLIDEAN,
    SE2,
    CutLocusError,
    ManifoldPoint,
    ManifoldSpec,
    euclidean_block,
)
from .problem import JointProblem, NoiseGroup, linear_factor

RESULT_COLUMNS = (
    "experiment", "trial", "seed", "algorithm", "noise_level",
    "rmse", "w2_odometry", "w2_loop", "final_F", "iters", "wall_ms", "status",
)

# The documented domain failures a trial records in its status column;
# anything else is a programming error and propagates.
TRIAL_FAILURES = (UnboundedProblem, CutLocusError, np.linalg.LinAlgError,
                  NotPositiveDefiniteError)

LINEAR_ALGORITHMS = ("elimination", "bcd", "fixed-true", "fixed-identity")
PGO_ALGORITHMS = ("bcd", "bcd-diag", "bcd-wishart", "bcd-diag-wishart",
                  "fixed-true", "fixed-identity")

_PGO_VARIANTS = {
    "bcd": "ml-eig",
    "bcd-diag": "ml-diag-eig",
    "bcd-wishart": "map-eig",
    "bcd-diag-wishart": "map-diag-eig",
}


@dataclass
class ExperimentConfig:
    """Settings shared by the experiment drivers; see the CLI for defaults."""

    experiment: str = "linear-mc"     # linear-mc | pgo-ablation | single-run
    trials: int = 20
    seed: int = 0
    noise_grid: tuple = (0.01, 1.0, 100.0)   # sigma^2 (linear) or alpha (pgo)
    algorithms: tuple = ()            # empty = all defaults for the experiment
    w_prior: float = 0.1
    sigma0: float = 0.002             # isotropic prior covariance guess
    lam_min: float = 1e-4
    lam_max: float = 1e4
    num_poses: int = 500
    scheme: str = "nearby"
    heteroscedastic: bool = False
    outer_iterations: int = 13        # one-step BCD outer loop (pgo)
    baseline_iterations: int = 8      # fixed-weight baseline iterations (pgo)
    bcd_iterations: int = 25          # block-exact BCD cap (linear)
    elimination_iterations: int = 400
    state_dim: int = 20
    num_measurements: int = 50
    residual_dim: int = 5
    generator: str | None = None      # generator-config file for pgo topology
    dataset: str | None = None        # fixed g2o dataset for pgo
    dataset_truth: str | None = None  # g2o file with ground-truth vertices
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.noise_grid = tuple(self.noise_grid)
        if not self.noise_grid:
            raise ValueError("noise grid must be non-empty")
        self.algorithms = tuple(self.algorithms)


@dataclass
class TrialRecord:
    """One (trial, algorithm) result row; column order fixed by RESULT_COLUMNS."""

    experiment: str
    trial: int
    seed: int
    algorithm: str
    noise_level: float
    rmse: float | None
    w2_odometry: float | None
    w2_loop: float | None
    final_F: float | None
    iters: int | None
    wall_ms: float | None
    status: str = "ok"
    cov_update_ms: tuple = ()   # per-iteration P-update timing; not emitted
    objective_trace: tuple = ()  # F after each half-step; not emitted

    def row(self) -> list:
        return [getattr(self, c) for c in RESULT_COLUMNS]


def _check_finite(rec: TrialRecord) -> None:
    """Records carry finite metrics or an explicit failure marker."""
    for col in ("rmse", "w2_odometry", "w2_loop", "final_F"):
        value = getattr(rec, col)
        if value is not None and not np.isfinite(value):
            rec.status = f"error: non-finite {col}"


def rmse(x_est: ManifoldPoint, x_true: ManifoldPoint, which: str = "all") -> float:
    """Root mean square component error, without alignment.

    ``which="all"`` covers Euclidean components and SE(2) translations;
    ``which="positions"`` covers SE(2) translations only (rotation errors
    are excluded in both modes).
    """
    if x_est.spec != x_true.spec:
        raise ValueError("points live on different manifold specs")
    if which not in ("all", "positions"):
        raise ValueError(f"unknown selector {which!r}")
    sq = []
    for blk, est, true in zip(x_est.spec.blocks, x_est.values, x_true.values):
        if blk.kind == EUCLIDEAN:
            if which == "all":
                sq.extend((est - true) ** 2)
        elif blk.kind == SE2:
            sq.extend((est[:2] - true[:2]) ** 2)
    if not sq:
        raise ValueError("no components selected")
    return float(np.sqrt(np.mean(sq)))


def _spd_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = jacobi_eigh(symmetrize(a))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def wasserstein2(sigma_a: np.ndarray, sigma_b: np.ndarray) -> float:
    """2-Wasserstein distance between zero-mean Gaussians:
    ``sqrt(trace(A + B - 2 (A^1/2 B A^1/2)^1/2))``, clamped at zero for
    round-off under the radical."""
    sigma_a = np.asarray(sigma_a, dtype=float)
    sigma_b = np.asarray(sigma_b, dtype=float)
    if sigma_a.shape != sigma_b.shape:
        raise ValueError("covariance dimensions differ")
    if np.array_equal(sigma_a, sigma_b):
        return 0.0
    root_a = _spd_sqrt(sigma_a)
    cross = _spd_sqrt(root_a @ sigma_b @ root_a)
    arg = float(np.trace(sigma_a) + np.trace(sigma_b) - 2.0 * np.trace(cross))
    return float(np.sqrt(max(arg, 0.0)))


# ---------------------------------------------------------------------------
# Linear Monte-Carlo study
# ---------------------------------------------------------------------------

def _linear_problem(Hs, zs, m, group: NoiseGroup) -> tuple[JointProblem, ManifoldPoint]:
    n = Hs.shape[2]
    spec = ManifoldSpec((euclidean_block("x", n),))
    factors = tuple(
        linear_factor(i, "x", Hs[i], zs[i], group.group_id)
        for i in range(Hs.shape[0]))
    problem = JointProblem(spec, factors, (group,))
    return problem, ManifoldPoint(spec, (np.zeros(n),))


def base_covariance(seed: int, m: int) -> np.ndarray:
    """The experiment's fixed random covariance component (A^T A / m)."""
    rng = counter_rng(seed, 101)
    A = rng.standard_normal((m, m))
    return A.T @ A / m


def run_linear_mc(config: ExperimentConfig) -> list[TrialRecord]:
    """Monte-Carlo study on the linear measurement model.

    Per trial and noise level, runs the selected algorithms on one noise
    realization and records RMSE of the state, 2-Wasserstein error of the
    covariance estimate, final objective, iterations, and wall time.
    Failures are recorded per trial and the run continues.
    """
    n, k, m = config.state_dim, config.num_measurements, config.residual_dim
    algorithms = config.algorithms or LINEAR_ALGORITHMS
    sigma_base = base_covariance(config.seed, m)
    x_true_vec = np.ones(n)
    records = []
    for level_idx, sigma2 in enumerate(config.noise_grid):
        sigma_true = sigma_base + sigma2 * np.eye(m)
        L = np.linalg.cholesky(sigma_true)
        for trial in range(config.trials):
            rng = counter_rng(config.seed, 7, level_idx, trial)
            Hs = rng.standard_normal((k, m, n))
            eps = rng.standard_normal((k, m)) @ L.T
            zs = Hs @ x_true_vec + eps
            for algorithm in algorithms:
                records.append(_run_linear_algorithm(
                    config, algorithm, Hs, zs, sigma_true, x_true_vec,
                    trial, sigma2))
    return records


def _run_linear_algorithm(config, algorithm, Hs, zs, sigma_true, x_true_vec,
                          trial, sigma2) -> TrialRecord:
    m = sigma_true.shape[0]
    rec = TrialRecord(config.experiment, trial, config.seed, algorithm,
                      sigma2, None, None, None, None, None, None)
    start = time.perf_counter()
    try:
        if algorithm in ("fixed-true", "fixed-identity"):
            P = np.linalg.inv(sigma_true) if algorithm == "fixed-true" else np.eye(m)
            group = NoiseGroup("g", m, "fixed", information=P)
            problem, x0 = _linear_problem(Hs, zs, m, group)
            res = nls.solve_fixed_P(problem, x0, {"g": P},
                                    nls.NlsConfig(max_iterations=25))
            x_est, iters = res.x, res.iterations
            final_F = joint.joint_objective(problem, x_est, {"g": P})
            sigma_est = np.linalg.inv(P)
        else:
            group = NoiseGroup("g", m, "ml")
            problem, x0 = _linear_problem(Hs, zs, m, group)
            if algorithm == "bcd":
                cfg = joint.JointConfig(algorithm=joint.BLOCK_EXACT_BCD,
                                        max_outer_iterations=config.bcd_iterations)
                res = joint.run_block_exact_bcd(problem, x0, cfg)
            elif algorithm == "elimination":
                cfg = joint.JointConfig(
                    algorithm=joint.ELIMINATION,
                    max_outer_iterations=config.elimination_iterations,
                    f_tol=1e-12)
                res = joint.run_elimination(problem, x0, cfg)
            else:
                raise ValueError(f"unknown algorithm {algorithm!r}")
            x_est, iters = res.x, res.iterations
            final_F = res.objective
            sigma_est = np.linalg.inv(res.information["g"])
            rec.cov_update_ms = res.cov_update_ms
            rec.objective_trace = tuple(t.objective for t in res.trace)
        x_true = ManifoldPoint(x_est.spec, (x_true_vec,))
        rec.rmse = rmse(x_est, x_true, "all")
        rec.w2_odometry = wasserstein2(sigma_est, sigma_true)
        rec.final_F = float(final_F)
        rec.iters = int(iters)
    except TRIAL_FAILURES as err:  # per-trial failure: record and continue
        rec.status = f"error: {type(err).__name__}: {err}"
    else:
        _check_finite(rec)
    rec.wall_ms = (time.perf_counter() - start) * 1e3
    return rec


# ---------------------------------------------------------------------------
# Pose-graph ablations
# ---------------------------------------------------------------------------

def _pgo_noise_spec(config: ExperimentConfig, alpha: float, seed: int,
                    base: dict | None = None) -> SyntheticNoiseSpec:
    """Per-class true information at one information level.

    ``base`` (e.g. from a generator-config file) overrides the built-in
    base matrices: the scaled class (loop closures, or everything in the
    homoscedastic case) is ``alpha`` times its base; the odometry class in
    the heteroscedastic case stays fixed.
    """
    base = base or {}
    if config.heteroscedastic:
        info = {ODOMETRY: base.get(ODOMETRY, np.diag([1000.0, 1000.0, 800.0])),
                LOOP: alpha * base.get(LOOP, np.diag([20.0, 40.0, 30.0]))}
    else:
        info = {"all": alpha * base.get("all", np.diag([20.0, 40.0, 30.0]))}
    return SyntheticNoiseSpec(info, seed=seed, alpha=alpha)


def _pgo_groups(config: ExperimentConfig, variant: str, graph,
                fixed_info=None) -> list[NoiseGroup]:
    """Noise groups for one run: per edge class when heteroscedastic."""
    bounds = (config.lam_min, config.lam_max)
    if config.heteroscedastic:
        class_counts = {
            ODOMETRY: len(graph.edges_of_kind(ODOMETRY)),
            LOOP: len(graph.edges_of_kind(LOOP)),
        }
        names = [ODOMETRY, LOOP]
    else:
        class_counts = {"all": len(graph.edges)}
        names = ["all"]
    groups = []
    for name in names:
        if fixed_info is not None:
            groups.append(NoiseGroup(name, 3, "fixed",
                                     information=fixed_info(name)))
            continue
        prior = None
        if variant.startswith("map"):
            prior = mode_match_prior(config.sigma0 * np.eye(3), config.w_prior,
                                     class_counts[name])
        groups.append(NoiseGroup(name, 3, variant, prior=prior, bounds=bounds))
    return groups


def run_pgo_ablation(config: ExperimentConfig) -> list[TrialRecord]:
    """Covariance-estimation ablation on pose graphs.

    Per (information level alpha, trial): one noise realization of the fixed
    graph topology is solved by every selected algorithm; position RMSE,
    per-class covariance W2 errors, objective, and timing are recorded.

    The dataset comes from the built-in Manhattan-style generator by
    default; ``config.generator`` points at a generator-config file that
    overrides topology and base noise, and ``config.dataset`` runs the
    ablation on a fixed external g2o file instead (ground truth from
    ``config.dataset_truth`` when available; the true-covariance baseline
    and W2 metrics are skipped since the true noise model is unknown).
    """
    algorithms = config.algorithms or PGO_ALGORITHMS
    if config.dataset is not None:
        return _run_pgo_on_dataset(config, algorithms)

    gen_cfg = {}
    if config.generator is not None:
        with open(config.generator) as fh:
            gen_cfg = io_pgo.parse_generator_config(fh)
    base_info = gen_cfg.get("information") or None
    num_poses = gen_cfg.get("num_poses", config.num_poses)
    scheme = gen_cfg.get("scheme", config.scheme)
    trajectory_seed = gen_cfg.get("trajectory_seed", config.seed)
    gen_kwargs = {k: gen_cfg[k] for k in ("loop_fraction", "loop_radius", "loop_gap")
                  if k in gen_cfg}

    records = []
    for level_idx, alpha in enumerate(config.noise_grid):
        for trial in range(config.trials):
            noise = _pgo_noise_spec(config, alpha,
                                    seed=_mix(config.seed, level_idx, trial),
                                    base=base_info)
            graph, truth = io_pgo.generate_manhattan_like(
                num_poses, scheme, noise,
                trajectory_seed=trajectory_seed, **gen_kwargs)
            x_init = io_pgo.spanning_tree_init(graph)
            for algorithm in algorithms:
                records.append(_run_pgo_algorithm(
                    config, algorithm, graph, truth, x_init, noise, trial, alpha))
    return records


def _run_pgo_on_dataset(config: ExperimentConfig, algorithms) -> list[TrialRecord]:
    graph = io_pgo.load_g2o(config.dataset)
    truth = None
    if config.dataset_truth is not None:
        truth_graph = io_pgo.load_g2o(config.dataset_truth)
        if truth_graph.num_poses != graph.num_poses:
            raise ValueError("ground-truth vertex count does not match dataset")
        truth = io_pgo.graph_poses_point(truth_graph)
    x_init = io_pgo.spanning_tree_init(graph)
    records = []
    for trial in range(config.trials):
        for algorithm in algorithms:
            if algorithm == "fixed-true":
                rec = TrialRecord(config.experiment, trial, config.seed,
                                  algorithm, 0.0, None, None, None, None,
                                  None, None,
                                  status="skipped: true covariance unknown")
                records.append(rec)
                continue
            records.append(_run_pgo_algorithm(
                config, algorithm, graph, truth, x_init, None, trial, 0.0))
    return records


def _mix(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _run_pgo_algorithm(config, algorithm, graph, truth, x_init, noise,
                       trial, alpha) -> TrialRecord:
    rec = TrialRecord(config.experiment, trial, config.seed, algorithm,
                      alpha, None, None, None, None, None, None)
    start = time.perf_counter()
    try:
        if algorithm in ("fixed-true", "fixed-identity"):
            if algorithm == "fixed-true":
                fixed_info = noise.information_for
            else:
                fixed_info = lambda name: np.eye(3)  # noqa: E731
            groups = _pgo_groups(config, "fixed", graph, fixed_info=fixed_info)
            problem = io_pgo.pose_graph_problem(graph, groups)
            weights = {g.group_id: g.information for g in groups}
            res = nls.solve_fixed_P(
                problem, x_init, weights,
                nls.NlsConfig(max_iterations=config.baseline_iterations))
            x_est, iters = res.x, res.iterations
            final_F = joint.joint_objective(problem, x_est, weights)
            sigma_est = {g.group_id: np.linalg.inv(g.information) for g in groups}
        else:
            variant = _PGO_VARIANTS[algorithm]
            groups = _pgo_groups(config, variant, graph)
            problem = io_pgo.pose_graph_problem(graph, groups)
            cfg = joint.JointConfig(
                algorithm=joint.HYBRID_BCD,
                max_outer_iterations=config.outer_iterations,
                nls=nls.NlsConfig(step_mode=nls.SINGLE_ITERATION))
            res = joint.run_hybrid_bcd(problem, x_init, cfg)
            x_est, iters = res.x, res.iterations
            final_F = res.objective
            sigma_est = {gid: np.linalg.inv(P) for gid, P in res.information.items()}
            rec.cov_update_ms = res.cov_update_ms
            rec.objective_trace = tuple(t.objective for t in res.trace)
        if truth is not None:
            rec.rmse = rmse(x_est, truth, "positions")
        if noise is not None:
            if config.heteroscedastic:
                rec.w2_odometry = wasserstein2(sigma_est[ODOMETRY],
                                               noise.covariance_for(ODOMETRY))
                rec.w2_loop = wasserstein2(sigma_est[LOOP],
                                           noise.covariance_for(LOOP))
            else:
                rec.w2_odometry = wasserstein2(sigma_est["all"],
                                               noise.covariance_for("all"))
        rec.final_F = float(final_F)
        rec.iters = int(iters)
    except TRIAL_FAILURES as err:  # per-trial failure: record and continue
        rec.status = f"error: {type(err).__name__}: {err}"
    else:
        _check_finite(rec)
    rec.wall_ms = (time.perf_counter() - start) * 1e3
    return rec


# ---------------------------------------------------------------------------
# Single-dataset solving (CLI `solve`)
# ---------------------------------------------------------------------------

def solve_graph(graph, variant: str = "ml-eig", algorithm: str = joint.HYBRID_BCD,
                heteroscedastic: bool = False, w_prior: float = 0.1,
                sigma0: float = 0.002, lam_min: float = 1e-4, lam_max: float = 1e4,
                outer_iterations: int = 13):
    """Jointly solve one pose graph; returns (JointResult, problem)."""
    cfg = ExperimentConfig(experiment="single-run", trials=1,
                           noise_grid=(0.0,), w_prior=w_prior, sigma0=sigma0,
                           lam_min=lam_min, lam_max=lam_max,
                           heteroscedastic=heteroscedastic)
    groups = _pgo_groups(cfg, variant, graph)
    problem = io_pgo.pose_graph_problem(graph, groups)
    x_init = io_pgo.spanning_tree_init(graph)
    jcfg = joint.JointConfig(algorithm=algorithm,
                             max_outer_iterations=outer_iterations,
                             nls=nls.NlsConfig(step_mode=nls.SINGLE_ITERATION))
    if algorithm == joint.ELIMINATION:
        result = joint.run_elimination(problem, x_init, jcfg)
    elif algorithm == joint.BLOCK_EXACT_BCD:
        jcfg.nls = nls.NlsConfig()
        result = joint.run_block_exact_bcd(problem, x_init, jcfg)
    else:
        result = joint.run_hybrid_bcd(problem, x_init, jcfg)
    return result, problem


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def emit_results(records: Iterable[TrialRecord], path, fmt: str = "csv") -> None:
    """Write records with the fixed column order; deterministic formatting."""
    records = list(records)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for rec in records:
                writer.writerow([_cell(v) for v in rec.row()])
    elif fmt == "json":
        payload = [
            {col: val for col, val in zip(RESULT_COLUMNS, rec.row())}
            for rec in records
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_cell(column: str, text: str):
    if text == "":
        return None
    if column in ("trial", "seed", "iters"):
        return int(text)
    if column in ("noise_level", "rmse", "w2_odometry", "w2_loop",
                  "final_F", "wall_ms"):
        return float(text)
    return text


def read_results(path, fmt: str = "csv") -> list[TrialRecord]:
    """Inverse of :func:`emit_results` (up to the non-emitted timing field)."""
    records = []
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != RESULT_COLUMNS:
                raise ValueError("unexpected result header")
            for row in reader:
                kwargs = {c: _parse_cell(c, v) for c, v in zip(RESULT_COLUMNS, row)}
                records.append(TrialRecord(**kwargs))
    elif fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        for entry in payload:
            records.append(TrialRecord(**{c: entry[c] for c in RESULT_COLUMNS}))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return records
