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
covariance and the identity.  Each (level, trial) builds one problem, with
a likelihood (``ml``) noise group, and all algorithms solve it: the
baselines pass their fixed weights explicitly.  A record's ``wall_ms``
covers its own solve and metrics, not that shared build.

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
from .manifold import CutLocusError, ManifoldPoint, ManifoldSpec, euclidean_block
from .problem import JointProblem, NoiseGroup, linear_set

RESULT_COLUMNS = (
    "experiment", "trial", "seed", "algorithm", "noise_level",
    "rmse", "w2_odometry", "w2_loop", "final_F", "iters", "wall_ms", "status",
)

# The documented domain failures a trial records in its status column;
# anything else is a programming error and propagates.
TRIAL_FAILURES = (UnboundedProblem, CutLocusError, np.linalg.LinAlgError,
                  NotPositiveDefiniteError)

# Result file formats of emit_results.
FORMATS = ("csv", "json")

# Fixed-weight baselines: the true covariance's information, or the identity.
BASELINES = ("fixed-true", "fixed-identity")

LINEAR_ALGORITHMS = ("elimination", "bcd") + BASELINES

# pgo algorithm -> the noise-group variant its hybrid BCD run estimates
_PGO_VARIANTS = {
    "bcd": "ml-eig",
    "bcd-diag": "ml-diag-eig",
    "bcd-wishart": "map-eig",
    "bcd-diag-wishart": "map-diag-eig",
}
PGO_ALGORITHMS = tuple(_PGO_VARIANTS) + BASELINES

# JointConfig.algorithm -> the name of its driver in `joint`, looked up there
# on every call so that patches of `joint.run_*` apply
_DRIVERS = {
    joint.ELIMINATION: "run_elimination",
    joint.HYBRID_BCD: "run_hybrid_bcd",
    joint.BLOCK_EXACT_BCD: "run_block_exact_bcd",
}


@dataclass
class ExperimentConfig:
    """Settings shared by the experiment drivers; the CLI flags default to these."""

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
        """Reject a bad setting before anything is solved; each message names
        the config key, which is the CLI flag with underscores."""
        for name in ("trials", "state_dim", "num_measurements", "residual_dim",
                     "outer_iterations", "baseline_iterations", "bcd_iterations",
                     "elimination_iterations"):
            nls.check_cap(name, getattr(self, name))
        self.noise_grid = tuple(self.noise_grid)
        if not self.noise_grid:
            raise ValueError("noise grid must be non-empty")
        # a fixed dataset ignores the grid (its runs record level 0)
        if self.dataset is None and not all(0 < v < np.inf for v in self.noise_grid):
            flag = _GRID_FLAGS.get(self.experiment)
            raise ValueError("noise_grid entries " + (f"({flag}) " if flag else "")
                             + "must be finite and > 0")
        for name in ("w_prior", "sigma0", "lam_min"):
            if not 0 < getattr(self, name) < np.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and > 0")
        if not (self.lam_min <= self.lam_max < np.inf):
            raise ValueError(f"lam_max ({self.lam_max:g}) must be finite and "
                             f">= lam_min ({self.lam_min:g})")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}; "
                             f"got {self.format!r}")
        self.algorithms = tuple(self.algorithms)


# the CLI flag that sets ExperimentConfig.noise_grid, per experiment
_GRID_FLAGS = {"linear-mc": "--sigma2-grid", "pgo-ablation": "--alpha-grid"}


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
    trace: tuple = ()  # the solver's JointResult.trace; not emitted

    def row(self) -> list:
        return [getattr(self, c) for c in RESULT_COLUMNS]


def _selected_algorithms(config: ExperimentConfig, known: tuple) -> tuple:
    """The config's algorithms, all of ``known`` by default; an unknown name
    fails before anything is solved."""
    for algorithm in config.algorithms:
        if algorithm not in known:
            raise ValueError(f"unknown {config.experiment} algorithm {algorithm!r}; "
                             f"choose from {', '.join(known)}")
    return config.algorithms or known


def _run_trial(config: ExperimentConfig, trial: int, algorithm: str, level: float,
               solve, metrics, skipped: str | None = None) -> TrialRecord:
    """One result row.

    ``solve()`` returns a :class:`joint.JointResult` and ``metrics(rec, x,
    sigma)`` fills the record's error metrics from its state and its
    covariance per group.  Both are timed together; a documented domain
    failure is recorded in the status, and a record's metrics must be
    finite.  A ``skipped`` trial records that reason and solves nothing.
    """
    rec = TrialRecord(config.experiment, trial, config.seed, algorithm,
                      level, None, None, None, None, None, None)
    if skipped is not None:
        rec.status = f"skipped: {skipped}"
        return rec
    start = time.perf_counter()
    try:
        res = solve()
        rec.trace = res.trace
        metrics(rec, res.x, {gid: np.linalg.inv(P) for gid, P in res.information.items()})
        rec.final_F = float(res.objective)
        rec.iters = int(res.iterations)
    except TRIAL_FAILURES as err:  # per-trial failure: record and continue
        rec.status = f"error: {type(err).__name__}: {err}"
    else:
        for col in ("rmse", "w2_odometry", "w2_loop", "final_F"):
            value = getattr(rec, col)
            if value is not None and not np.isfinite(value):
                rec.status = f"error: non-finite {col}"
    rec.wall_ms = (time.perf_counter() - start) * 1e3
    return rec


def _solve_joint(problem: JointProblem, x_init: ManifoldPoint,
                 config: joint.JointConfig) -> joint.JointResult:
    return getattr(joint, _DRIVERS[config.algorithm])(problem, x_init, config)


def _solve_fixed(problem: JointProblem, x_init: ManifoldPoint, weights: dict,
                 max_iterations: int) -> joint.JointResult:
    """A fixed-weight baseline, as a result whose information is ``weights``."""
    res = nls.solve_fixed_P(problem, x_init, weights,
                            nls.NlsConfig(max_iterations=max_iterations))
    return joint.JointResult(res.x, weights, joint.joint_objective(problem, res.x, weights),
                             res.iterations, res.converged, (), frozenset())


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
    err = np.concatenate([(x_est.poses[:, :2] - x_true.poses[:, :2]).ravel(),
                          x_est.vector - x_true.vector if which == "all" else []])
    if not err.size:
        raise ValueError("no components selected")
    return float(np.sqrt(np.mean(err ** 2)))


def _spd_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = jacobi_eigh(symmetrize(a))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def wasserstein2(sigma_a: np.ndarray, sigma_b: np.ndarray) -> float:
    """2-Wasserstein distance between zero-mean Gaussians in the
    orthogonal-Procrustes form ``||A^1/2 - B^1/2 U V^T||_F``, where
    ``U S V^T`` is the SVD of ``B^1/2 A^1/2`` (Bhatia, Jain and Lim, 2019).

    It equals ``sqrt(trace(A + B - 2 (A^1/2 B A^1/2)^1/2))`` in exact
    arithmetic, but takes the difference of the two factors instead of
    the traces, so nearly equal covariances do not cancel.
    """
    sigma_a = np.asarray(sigma_a, dtype=float)
    sigma_b = np.asarray(sigma_b, dtype=float)
    if sigma_a.shape != sigma_b.shape:
        raise ValueError("covariance dimensions differ")
    if np.array_equal(sigma_a, sigma_b):
        return 0.0
    root_a, root_b = _spd_sqrt(sigma_a), _spd_sqrt(sigma_b)
    u, _, vt = np.linalg.svd(root_b @ root_a)
    return float(np.linalg.norm(root_a - root_b @ u @ vt))


# ---------------------------------------------------------------------------
# Linear Monte-Carlo study
# ---------------------------------------------------------------------------

def base_covariance(seed: int, m: int) -> np.ndarray:
    """The experiment's fixed random covariance component (A^T A / m)."""
    rng = counter_rng(seed, 101)
    A = rng.standard_normal((m, m))
    return A.T @ A / m


def run_linear_mc(config: ExperimentConfig) -> list[TrialRecord]:
    """Monte-Carlo study on the linear measurement model.

    Per trial and noise level, runs the selected algorithms on one noise
    realization, one problem shared by all of them (one likelihood noise
    group ``"g"``, the zero start, and the study's one manifold spec), and
    records RMSE of the state, 2-Wasserstein error of the covariance
    estimate, final objective, iterations, and the wall time of each
    algorithm's solve and metrics.  Failures are recorded per trial and the
    run continues.
    """
    n, k, m = config.state_dim, config.num_measurements, config.residual_dim
    algorithms = _selected_algorithms(config, LINEAR_ALGORITHMS)
    sigma_base = base_covariance(config.seed, m)
    x_true_vec = np.ones(n)
    spec = ManifoldSpec((euclidean_block("x", n),))
    x0 = ManifoldPoint(spec, (np.zeros(n),))
    records = []
    for level_idx, sigma2 in enumerate(config.noise_grid):
        sigma_true = sigma_base + sigma2 * np.eye(m)
        L = np.linalg.cholesky(sigma_true)
        for trial in range(config.trials):
            rng = counter_rng(config.seed, 7, level_idx, trial)
            Hs = rng.standard_normal((k, m, n))
            eps = rng.standard_normal((k, m)) @ L.T
            zs = Hs @ x_true_vec + eps
            problem = JointProblem(spec, (linear_set("x", Hs, zs, "g"),),
                                   (NoiseGroup("g", m, "ml"),))
            for algorithm in algorithms:
                records.append(_run_linear_algorithm(
                    config, algorithm, problem, x0, sigma_true, x_true_vec,
                    trial, sigma2))
    return records


def _run_linear_algorithm(config, algorithm, problem, x0, sigma_true, x_true_vec,
                          trial, sigma2) -> TrialRecord:
    def solve():
        if algorithm in BASELINES:
            P = (np.linalg.inv(sigma_true) if algorithm == "fixed-true"
                 else np.eye(len(sigma_true)))
            return _solve_fixed(problem, x0, {"g": P}, 25)
        if algorithm == "bcd":
            cfg = joint.JointConfig(algorithm=joint.BLOCK_EXACT_BCD,
                                    max_outer_iterations=config.bcd_iterations)
        else:
            cfg = joint.JointConfig(algorithm=joint.ELIMINATION,
                                    max_outer_iterations=config.elimination_iterations,
                                    f_tol=1e-12)
        return _solve_joint(problem, x0, cfg)

    def metrics(rec, x_est, sigma_est):
        rec.rmse = rmse(x_est, ManifoldPoint(x_est.spec, (x_true_vec,)), "all")
        rec.w2_odometry = wasserstein2(sigma_est["g"], sigma_true)

    return _run_trial(config, trial, algorithm, sigma2, solve, metrics)


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
    return SyntheticNoiseSpec(info, seed=seed)


def pose_graph_setup(graph, config: ExperimentConfig, variant: str,
                     algorithm: str = joint.HYBRID_BCD, fixed_info=None):
    """The pose-graph problem, with ``config``'s noise model, and the
    :class:`joint.JointConfig` of ``algorithm`` at its outer iteration cap.

    One group per edge class when heteroscedastic, else one for all edges,
    each of ``variant`` with ``config``'s eigenvalue bounds and, for MAP
    variants, a Wishart prior; ``fixed_info(name)``, if given, fixes each
    group's information instead.
    """
    if config.heteroscedastic:
        class_counts = {ODOMETRY: len(graph.edges_of_kind(ODOMETRY)),
                        LOOP: len(graph.edges_of_kind(LOOP))}
    else:
        class_counts = {"all": len(graph.edges)}
    groups = []
    for name, count in class_counts.items():
        if fixed_info is not None:
            groups.append(NoiseGroup(name, 3, "fixed", information=fixed_info(name)))
            continue
        prior = None
        if variant.startswith("map"):
            prior = mode_match_prior(config.sigma0 * np.eye(3), config.w_prior, count)
        groups.append(NoiseGroup(name, 3, variant, prior=prior,
                                 bounds=(config.lam_min, config.lam_max)))
    jcfg = joint.JointConfig(algorithm=algorithm,
                             max_outer_iterations=config.outer_iterations,
                             nls=nls.NlsConfig(step_mode=nls.SINGLE_ITERATION))
    return io_pgo.pose_graph_problem(graph, groups), jcfg


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
    algorithms = _selected_algorithms(config, PGO_ALGORITHMS)
    records = []
    for trial, alpha, graph, truth, x_init, noise in _pgo_instances(config):
        for algorithm in algorithms:
            records.append(_run_pgo_algorithm(
                config, algorithm, graph, truth, x_init, noise, trial, alpha))
    return records


def _pgo_instances(config: ExperimentConfig):
    """(trial, alpha, graph, truth, x_init, noise) per run: a fresh noise
    realization of the generated topology per (level, trial), or the fixed
    dataset (truth possibly None, noise None, alpha 0) per trial."""
    if config.dataset is not None:
        graph = io_pgo.load_g2o(config.dataset)
        truth = None
        if config.dataset_truth is not None:
            truth_graph = io_pgo.load_g2o(config.dataset_truth)
            if truth_graph.num_poses != graph.num_poses:
                raise ValueError("ground-truth vertex count does not match dataset")
            truth = io_pgo.graph_poses_point(truth_graph)
        x_init = io_pgo.spanning_tree_init(graph)
        for trial in range(config.trials):
            yield trial, 0.0, graph, truth, x_init, None
        return

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
    for level_idx, alpha in enumerate(config.noise_grid):
        for trial in range(config.trials):
            noise = _pgo_noise_spec(config, alpha,
                                    seed=_mix(config.seed, level_idx, trial),
                                    base=base_info)
            graph, truth = io_pgo.generate_manhattan_like(
                num_poses, scheme, noise,
                trajectory_seed=trajectory_seed, **gen_kwargs)
            yield trial, alpha, graph, truth, io_pgo.spanning_tree_init(graph), noise


def _mix(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _run_pgo_algorithm(config, algorithm, graph, truth, x_init, noise,
                       trial, alpha) -> TrialRecord:
    def solve():
        if algorithm in BASELINES:
            fixed_info = (noise.information_for if algorithm == "fixed-true"
                          else lambda name: np.eye(3))
            problem, _ = pose_graph_setup(graph, config, "fixed", fixed_info=fixed_info)
            weights = {g.group_id: g.information for g in problem.groups}
            return _solve_fixed(problem, x_init, weights, config.baseline_iterations)
        problem, jcfg = pose_graph_setup(graph, config, _PGO_VARIANTS[algorithm])
        return _solve_joint(problem, x_init, jcfg)

    def metrics(rec, x_est, sigma_est):
        if truth is not None:
            rec.rmse = rmse(x_est, truth, "positions")
        if noise is not None:
            classes = (ODOMETRY, LOOP) if config.heteroscedastic else ("all",)
            for column, name in zip(("w2_odometry", "w2_loop"), classes):
                setattr(rec, column, wasserstein2(sigma_est[name],
                                                  noise.covariance_for(name)))

    skipped = ("true covariance unknown"
               if noise is None and algorithm == "fixed-true" else None)
    return _run_trial(config, trial, algorithm, alpha, solve, metrics, skipped)


# ---------------------------------------------------------------------------
# Single-dataset solving (CLI `solve`)
# ---------------------------------------------------------------------------

def solve_graph(graph, cfg: ExperimentConfig, variant: str = "ml-eig",
                algorithm: str = joint.HYBRID_BCD):
    """Jointly solve one pose graph with the noise model and outer iteration
    cap of ``cfg``; returns (JointResult, problem)."""
    problem, jcfg = pose_graph_setup(graph, cfg, variant, algorithm)
    return _solve_joint(problem, io_pgo.spanning_tree_init(graph), jcfg), problem


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
