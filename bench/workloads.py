"""The three benchmark workloads: inputs from a seed, the solve, output checks.

Every library call goes through its module attribute (``io_pgo.x``, not a
name imported from it), so that the tracer's patches see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from jointcov import harness, io_pgo, joint, nls
from jointcov.covariance import mode_match_prior
from jointcov.problem import NoiseGroup

# Acceptance-criterion instances: criterion 7 is the 3500-pose graph with
# noise seed 1, criterion 5 the linear study with seed 42.  HOLDOUT_SEED is
# kept out of tuning so that later claims can be re-checked on it.
PGO_SEED = 1
LINEAR_SEED = 42
HOLDOUT_SEED = 1000

PGO_EDGES = 5598          # edge count of the 3500-pose graph
HYBRID_ITERATIONS = 13
ELIMINATION_ITERATIONS = 25
F_RTOL = 1e-9             # final F against the recorded reference
GAP_TOL = 1e-6            # |F_elim - F_bcd| per linear (level, trial)
CAPPED_GAP_TOL = 1e-5     # F_bcd - F_elim where block-exact BCD hit its cap
MONOTONE_SLACK = 1e-10    # as in the criterion 8 descent check

# A pgo run solves the noise seeds s .. s+3 in turn.  Realizations differ
# in trial steps: hybrid takes 14 factorizations and about 40% less time at
# noise seeds 0, 7 and 22, 26 at most others; elimination takes 31 to 38
# objective evaluations, about 20% apart in time.  The median of four is the
# mean of the middle two, so one outlying realization does not move it and
# the rest average; the set depends on the seed alone, not on the budget.
PGO_INSTANCES = 4


@dataclass(frozen=True)
class Size:
    num_poses: int
    trials: int


FULL = Size(num_poses=3500, trials=20)
SMALL = Size(num_poses=300, trials=2)   # self-test only


@dataclass
class PgoInstance:
    graph: io_pgo.PoseGraph2D
    problem: object
    x_init: object
    full: bool


def _pgo_setup(heteroscedastic: bool, noise_seed: int, size: Size) -> PgoInstance:
    """The criterion 7 topology (trajectory seed 1) with fresh noise."""
    loop_info = 5.0 * np.diag([20.0, 40.0, 30.0])
    if heteroscedastic:
        info = {io_pgo.ODOMETRY: np.diag([1000.0, 1000.0, 800.0]),
                io_pgo.LOOP: loop_info}
    else:
        info = {"all": loop_info}
    noise = io_pgo.SyntheticNoiseSpec(info, seed=noise_seed)
    graph, _ = io_pgo.generate_manhattan_like(
        size.num_poses, "nearby", noise, trajectory_seed=1,
        loop_fraction=2099 / 3500)
    bounds = (1e-4, 1e4)
    if heteroscedastic:
        groups = [NoiseGroup(kind, 3, "map-eig", bounds=bounds,
                             prior=mode_match_prior(0.002 * np.eye(3), 0.1,
                                                    len(graph.edges_of_kind(kind))))
                  for kind in (io_pgo.ODOMETRY, io_pgo.LOOP)]
    else:
        groups = [NoiseGroup("all", 3, "ml-eig", bounds=bounds)]
    problem = io_pgo.pose_graph_problem(graph, groups)
    x_init = io_pgo.spanning_tree_init(graph)
    return PgoInstance(graph, problem, x_init, size == FULL)


def _solve_hybrid(inst: PgoInstance):
    config = joint.JointConfig(
        algorithm=joint.HYBRID_BCD, max_outer_iterations=HYBRID_ITERATIONS,
        nls=nls.NlsConfig(step_mode=nls.SINGLE_ITERATION))
    return joint.run_hybrid_bcd(inst.problem, inst.x_init, config)


def _solve_elimination(inst: PgoInstance):
    config = joint.JointConfig(
        algorithm=joint.ELIMINATION, max_outer_iterations=ELIMINATION_ITERATIONS,
        nls=nls.NlsConfig(step_mode=nls.SINGLE_ITERATION))
    return joint.run_elimination(inst.problem, inst.x_init, config)


def _pgo_summary(result) -> dict:
    return {"F": float(result.objective), "iterations": int(result.iterations)}


def _non_increasing(values) -> bool:
    return all(b <= a + MONOTONE_SLACK for a, b in zip(values, values[1:]))


def _pgo_check(cap: int):
    def check(inst: PgoInstance, result, reference: dict | None):
        """(operations attempted, one message per failed operation)."""
        problems = []
        if inst.full and len(inst.graph.edges) != PGO_EDGES:
            problems.append(f"{len(inst.graph.edges)} edges, expected {PGO_EDGES}")
        if not math.isfinite(result.objective):
            problems.append(f"final F is {result.objective}")
        if result.iterations != cap and not result.converged:
            problems.append(f"stopped after {result.iterations} of {cap} "
                            "iterations without converging")
        failures = {joint.FLAG_LM_FAILURE, joint.FLAG_LINE_SEARCH_FAILURE}
        if result.flags & failures:
            problems.append(f"flags {sorted(result.flags & failures)}")
        if not _non_increasing([t.objective for t in result.trace]):
            problems.append("objective trace increases")
        if reference is not None:
            got = _pgo_summary(result)
            if abs(got["F"] - reference["F"]) > F_RTOL * abs(reference["F"]):
                problems.append(f"F {got['F']!r} != reference {reference['F']!r}")
            if got["iterations"] != reference["iterations"]:
                problems.append(f"{got['iterations']} iterations != reference "
                                f"{reference['iterations']}")
        return 1, ["; ".join(problems)] if problems else []
    return check


def _linear_setup(seed: int, size: Size) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(experiment="linear-mc", trials=size.trials,
                                    seed=seed, noise_grid=(0.01, 1.0, 100.0))


def _solve_linear(config: harness.ExperimentConfig):
    return harness.run_linear_mc(config)


def _record_key(rec) -> str:
    return f"{rec.noise_level!r}/{rec.trial}/{rec.algorithm}"


def _linear_summary(records) -> dict:
    return {_record_key(r): [r.final_F, r.iters] for r in records}


def _linear_check(config: harness.ExperimentConfig, records, reference: dict | None):
    """Every record ok, elimination and BCD agree, reference matches."""
    expected = (len(config.noise_grid) * config.trials
                * len(harness.LINEAR_ALGORITHMS))
    problems = {}

    def fail(rec, message):
        problems.setdefault(_record_key(rec), []).append(message)

    by_trial = {}
    for rec in records:
        if rec.status != "ok":
            fail(rec, rec.status)
        by_trial.setdefault((rec.noise_level, rec.trial), {})[rec.algorithm] = rec
        if reference is not None:
            want = reference.get(_record_key(rec))
            if want is None:
                fail(rec, "no reference")
            elif rec.final_F is None or rec.iters != want[1] or (
                    abs(rec.final_F - want[0]) > F_RTOL * abs(want[0])):
                fail(rec, f"F {rec.final_F!r}, {rec.iters} iterations != "
                          f"reference {want[0]!r}, {want[1]}")
    for pair in by_trial.values():
        elim, bcd = pair.get("elimination"), pair.get("bcd")
        if elim is None or bcd is None or None in (elim.final_F, bcd.final_F):
            continue
        gap = elim.final_F - bcd.final_F
        # Block-exact BCD stopped by its iteration cap may still sit above
        # the optimum (seed 11, sigma^2 = 0.01, trial 15: by 1.6e-6); then
        # BCD may trail elimination by up to CAPPED_GAP_TOL.
        capped = bcd.iters >= config.bcd_iterations
        if gap > GAP_TOL or -gap > (CAPPED_GAP_TOL if capped else GAP_TOL):
            fail(elim, f"F_elim - F_bcd = {gap:.3e}")
            fail(bcd, f"F_elim - F_bcd = {gap:.3e}")
    messages = [f"{key}: {'; '.join(m)}" for key, m in problems.items()]
    missing = expected - len(records)
    messages += [f"{missing} of {expected} records missing"] * max(missing, 0)
    return max(expected, len(records)), messages


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    instances: int   # a run solves seeds seed .. seed + instances - 1 in turn
    setup: Callable[[int, Size], object]
    solve: Callable[[object], object]
    check: Callable[[object, object, dict | None], tuple[int, list]]
    summary: Callable[[object], dict]
    ops: Callable[[Size], int]   # operations one repetition attempts


WORKLOADS = {
    "pgo-hybrid": Workload(
        "pgo-hybrid", PGO_SEED, PGO_INSTANCES,
        lambda s, size: _pgo_setup(False, s, size), _solve_hybrid,
        _pgo_check(HYBRID_ITERATIONS), _pgo_summary, lambda size: 1),
    "pgo-elimination": Workload(
        "pgo-elimination", PGO_SEED, PGO_INSTANCES,
        lambda s, size: _pgo_setup(True, s, size), _solve_elimination,
        _pgo_check(ELIMINATION_ITERATIONS), _pgo_summary, lambda size: 1),
    "linear-mc": Workload(
        "linear-mc", LINEAR_SEED, 1, _linear_setup, _solve_linear,
        _linear_check, _linear_summary,
        lambda size: 3 * size.trials * len(harness.LINEAR_ALGORITHMS)),
}
