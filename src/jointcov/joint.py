"""Joint state / noise-covariance estimation algorithms.

Three drivers minimize the joint objective

    F(x, P) = sum_g [ -log det P_g + <M_g(x), P_g> ]

over the state x and one information matrix per noise group:

* ``run_elimination`` substitutes the analytic optimum P*(x) into F and
  minimizes the reduced objective over x alone with L-BFGS in a retraction
  chart (re-centered after every accepted step).
* ``run_hybrid_bcd`` alternates one descent step on x with the analytic P
  update.  The step is a Levenberg-Marquardt iteration by default, which
  tries the undamped step only if the previous one accepted it (the first
  always does), and whose accepted trial's residuals feed the P update; or
  a backtracking Riemannian gradient-descent step.
* ``run_block_exact_bcd`` alternates a full weighted NLS solve on x with the
  analytic P update; its F trace is non-increasing.

F depends on x only through the second moments ``M_g(x)``, so each point is
evaluated once: one residual pass gives every ``M_g``, from which the P
update and both F values there derive.  Elimination forms ``M_g`` from the
residuals of the linearization its gradient uses.

``JointResult.trace`` is the one record of a run: a :class:`TracePoint`
per half-step, with F after it, the latest gradient norm and the wall time
the half-step took.  A BCD ``p-step`` entry's time covers ``M_g`` at the new
x, the P update and F at the new P; its ``x-step`` entry takes the rest of
the iteration.

The x-dependent part of F is ``sum_g s_g sum_{i in g} ||r_i||^2_{P_g}`` with
``s_g = 1/(k_g + nu_g - m_g - 1)`` for MAP groups and ``1/k_g`` otherwise,
so the NLS subproblems are weighted with ``s_g P_g``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nls
from .covariance import (
    UNCONSTRAINED,
    UnboundedProblem,
    assemble_M,
    inner_objective,
    solve_inner,
)
from .manifold import CutLocusError, ManifoldPoint, boxplus
from .nls import NlsConfig
from .problem import JointProblem, NoiseGroup, residual_covariance, sample_covariance

ELIMINATION = "elimination"
HYBRID_BCD = "hybrid-bcd"
BLOCK_EXACT_BCD = "block-exact-bcd"

ALGORITHMS = (ELIMINATION, HYBRID_BCD, BLOCK_EXACT_BCD)

# Status flags collected on JointResult.
FLAG_BOUND_HIT = "eigenvalue_bound_hit"
FLAG_LM_FAILURE = "lm_failure"
FLAG_LINE_SEARCH_FAILURE = "line_search_failure"

LBFGS_MEMORY = 10  # curvature pairs elimination's L-BFGS keeps


@dataclass
class JointConfig:
    algorithm: str = BLOCK_EXACT_BCD
    max_outer_iterations: int = 25
    nls: NlsConfig = field(default_factory=NlsConfig)
    f_tol: float = 1e-9  # relative change of F, two consecutive iterations

    def __post_init__(self):
        nls.check_cap("max_outer_iterations", self.max_outer_iterations)
        if not 0 <= self.f_tol < np.inf:  # also rejects NaN
            raise ValueError(f"f_tol must be finite and >= 0, got {self.f_tol!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


class TracePoint(NamedTuple):
    """One trace entry, recorded after each half-step."""

    iteration: int
    phase: str                 # "init" | "x-step" | "p-step"
    objective: float
    gradient_norm: float       # proxy: latest weighted-NLS gradient norm
    wall_ms: float             # the half-step's wall time; "init": the driver's so far


@dataclass
class JointResult:
    x: ManifoldPoint
    information: dict
    objective: float
    iterations: int
    converged: bool
    trace: tuple[TracePoint, ...]
    flags: frozenset


def group_scale(group: NoiseGroup, k: int) -> float:
    """Scale of the group's residual sum inside F (see module docstring)."""
    if group.estimator == "map":
        gamma = k + group.prior.dof - group.m - 1
        return 1.0 / gamma
    return 1.0 / k


def _scaled_weights(problem: JointProblem, P: dict) -> dict:
    return {
        g.group_id: group_scale(g, problem.group_sizes[g.group_id])
        * P[g.group_id]
        for g in problem.groups
    }


def second_moments(problem: JointProblem, x: ManifoldPoint,
                   residuals: dict | None = None) -> dict:
    """Group id -> M_g(x): the sample covariance, prior-blended for MAP
    groups, from one residual pass or from ``residuals`` (group id ->
    stacked residuals at x)."""
    M = {}
    for g in problem.groups:
        S = (sample_covariance(problem, x, g.group_id) if residuals is None
             else residual_covariance(problem, g.group_id, residuals[g.group_id]))
        M[g.group_id] = (assemble_M(S, problem.group_sizes[g.group_id],
                                    g.prior, g.m) if g.estimator == "map" else S)
    return M


def joint_objective(problem: JointProblem, x: ManifoldPoint, P: dict,
                    M: dict | None = None) -> float:
    """F(x, P) summed over noise groups; ``M``: the second moments at x,
    when the caller holds them."""
    M = second_moments(problem, x) if M is None else M
    total = 0.0
    for g in problem.groups:
        total += inner_objective(M[g.group_id], P[g.group_id])
    return total


def information_update(problem: JointProblem, x: ManifoldPoint,
                       M: dict | None = None) -> tuple[dict, dict]:
    """Analytic P update for every group at the current state.

    Fixed groups keep their information matrix; every other group takes the
    closed form of its constraint variant (:func:`solve_inner`).  The
    unconstrained and diagonal solvers reject a singular second moment (the
    sample covariance, or a MAP group's prior-blended moment); the
    :class:`UnboundedProblem` is re-raised here naming the offending group.
    ``M``: the second moments at x, when the caller holds them.

    Returns:
        (information per group id, InnerSolution per estimated group id)
    """
    M = second_moments(problem, x) if M is None else M
    P: dict = {}
    solutions: dict = {}
    for g in problem.groups:
        if g.variant == "fixed":
            P[g.group_id] = g.information
            continue
        lam_min, lam_max = g.bounds if g.bounds is not None else (None, None)
        try:
            sol = solve_inner(M[g.group_id], g.constraint, lam_min, lam_max)
        except UnboundedProblem as err:
            what = "eigenvalue" if g.constraint == UNCONSTRAINED else "diagonal entry"
            moment, update = (("prior-blended second moment", "MAP")
                              if g.estimator == "map" else
                              ("sample covariance", "prior-free"))
            raise UnboundedProblem(
                f"group {g.group_id!r}: {moment} is singular "
                f"(min {what} {err.min_eigenvalue:.3e}); the {update} "
                "covariance update is unbounded below",
                group_id=g.group_id, min_eigenvalue=err.min_eigenvalue) from None
        P[g.group_id] = sol.information
        solutions[g.group_id] = sol
    return P, solutions


def calibrate(problem: JointProblem, x_true_cal: ManifoldPoint) -> dict:
    """One-shot optimal information per group at a known ground-truth state."""
    P, _ = information_update(problem, x_true_cal)
    return P


class _Convergence:
    """Declares convergence after two consecutive small relative F changes."""

    def __init__(self, f_tol: float):
        self.f_tol = f_tol
        self.prev = None
        self.streak = 0

    def update(self, value: float) -> bool:
        if self.prev is not None:
            if abs(value - self.prev) <= self.f_tol * (1.0 + abs(value)):
                self.streak += 1
            else:
                self.streak = 0
        self.prev = value
        return self.streak >= 2


def _run_bcd(problem: JointProblem, x_init: ManifoldPoint, config: JointConfig,
             exact: bool) -> JointResult:
    clock = time.perf_counter
    start = clock()
    flags = set()

    def p_step(x, residuals=None):
        """M at x from ``residuals`` or one residual pass, then the P update."""
        M = second_moments(problem, x, residuals)
        P, solutions = information_update(problem, x, M)
        if any(s.any_bound_active for s in solutions.values()):
            flags.add(FLAG_BOUND_HIT)
        return M, P

    x = problem.check_start(x_init)
    M, P = p_step(x)
    f = joint_objective(problem, x, P, M)
    last = clock()
    trace = [TracePoint(0, "init", f, np.nan, (last - start) * 1e3)]
    conv = _Convergence(config.f_tol)
    conv.update(f)
    converged = False
    iterations = 0
    damping = 0.0  # the LM x-step's first trial
    for iterations in range(1, config.max_outer_iterations + 1):
        weights = _scaled_weights(problem, P)
        residuals = None
        if exact:
            res = nls.solve_fixed_P(problem, x, weights, config.nls)
            x = res.x
            grad_proxy = res.gradient_norm
            if res.lm_failure:
                flags.add(FLAG_LM_FAILURE)
        elif config.nls.step_mode == nls.RIEMANNIAN_GD:
            x, grad_proxy = nls.step_once(problem, x, weights)
        else:
            x, grad_proxy, accepted, residuals = nls._lm_step(problem, x, weights, damping)
            damping = 0.0 if accepted == 0.0 else nls.DAMPING_INIT

        x_done = clock()
        M, P_new = p_step(x, residuals)
        f = joint_objective(problem, x, P_new, M)
        p_done = clock()
        f_x = joint_objective(problem, x, P, M)  # the x-step's F, at the old P
        now = clock()
        P = P_new
        trace.append(TracePoint(iterations, "x-step", f_x, grad_proxy,
                                (x_done - last + now - p_done) * 1e3))
        trace.append(TracePoint(iterations, "p-step", f, grad_proxy,
                                (p_done - x_done) * 1e3))
        last = now
        if conv.update(f):
            converged = True
            break
    return JointResult(x, P, f, iterations, converged, tuple(trace),
                       frozenset(flags))


def run_block_exact_bcd(problem: JointProblem, x_init: ManifoldPoint,
                        config: JointConfig | None = None) -> JointResult:
    """Alternate a full weighted-NLS solve on x with the analytic P update.

    F is non-increasing across both half-steps; terminates on a small
    relative F change (twice in a row) or the outer iteration cap.
    """
    config = config or JointConfig(algorithm=BLOCK_EXACT_BCD)
    return _run_bcd(problem, x_init, config, exact=True)


def run_hybrid_bcd(problem: JointProblem, x_init: ManifoldPoint,
                   config: JointConfig | None = None) -> JointResult:
    """Alternate one descent step on x with the analytic P update.

    The x half-step is ``config.nls.step_mode``: one Levenberg-Marquardt
    iteration (the default) or a backtracking Riemannian gradient step.  An
    LM x-step tries the undamped step first only if the previous one accepted
    it (the first always does), else starts at :data:`nls.DAMPING_INIT`.
    """
    config = config or JointConfig(algorithm=HYBRID_BCD)
    return _run_bcd(problem, x_init, config, exact=False)


def _reduced_value_and_grad(problem: JointProblem, x: ManifoldPoint):
    """Reduced objective F(x, P*(x)), its chart gradient, and P*(x).

    By the envelope property of the inner optimum, the gradient is the
    weighted-NLS gradient with weights ``2 s_g P*_g(x)`` (fixed groups
    contribute with their fixed P).  One linearization at x gives both M
    and that gradient.
    """
    lin = {gid: [b.linearize(x) for b in batches]
           for gid, batches in problem.batches.items()}
    M = second_moments(problem, x, {gid: np.concatenate([r for r, _ in pairs])
                                    for gid, pairs in lin.items()})
    P, solutions = information_update(problem, x, M)
    value = 0.0
    for g in problem.groups:
        sol = solutions.get(g.group_id)
        value += (sol.objective if sol is not None
                  else inner_objective(M[g.group_id], P[g.group_id]))
    bound_hit = any(s.any_bound_active for s in solutions.values())
    weights = {gid: 2.0 * w for gid, w in _scaled_weights(problem, P).items()}
    system = nls.build_system(problem, x, weights, with_hessian=False, linearization=lin)
    return value, system.gradient, P, bound_hit, system.index


def run_elimination(problem: JointProblem, x_init: ManifoldPoint,
                    config: JointConfig | None = None) -> JointResult:
    """Minimize the reduced objective over x by chart L-BFGS.

    The chart is re-centered through the retraction after every accepted
    step; curvature pairs are kept across re-centerings (exact for purely
    Euclidean states).  Groups without eigenvalue bounds are
    singularity-monitored at every evaluation and raise
    :class:`UnboundedProblem` when their second moment degenerates.
    """
    clock = time.perf_counter
    start = clock()
    config = config or JointConfig(algorithm=ELIMINATION)
    x = problem.check_start(x_init)
    f, g, P, bound_hit, index = _reduced_value_and_grad(problem, x)
    flags = {FLAG_BOUND_HIT} if bound_hit else set()
    gnorm = nls.vector_norm(g)
    last = clock()
    trace = [TracePoint(0, "init", f, gnorm, (last - start) * 1e3)]
    memory: deque = deque(maxlen=LBFGS_MEMORY)
    conv = _Convergence(config.f_tol)
    conv.update(f)
    converged = False
    iterations = 0
    for iterations in range(1, config.max_outer_iterations + 1):
        if gnorm <= nls.GRAD_TOL:
            converged = True
            iterations -= 1
            break
        d = _two_loop_direction(memory, g)
        if float(d @ g) >= 0.0:  # not a descent direction: reset to steepest
            memory.clear()
            d = -g
        alpha = 1.0 if memory else min(1.0, 1.0 / max(gnorm, 1.0))
        accepted = False
        dg = float(d @ g)
        for _ in range(60):
            try:
                x_trial = boxplus(x, index.scatter(alpha * d))
                f_trial, g_trial, P_trial, bound_hit, index_trial = \
                    _reduced_value_and_grad(problem, x_trial)
            except CutLocusError:
                alpha *= 0.5
                continue
            if np.isfinite(f_trial) and f_trial <= f + 1e-4 * alpha * dg:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            flags.add(FLAG_LINE_SEARCH_FAILURE)
            break
        s = alpha * d
        y = g_trial - g
        sy = float(s @ y)
        if sy > 1e-10 * nls.vector_norm(s) * nls.vector_norm(y):
            memory.append((s, y, 1.0 / sy))
        x, f, g, P, index = x_trial, f_trial, g_trial, P_trial, index_trial
        if bound_hit:
            flags.add(FLAG_BOUND_HIT)
        gnorm = nls.vector_norm(g)
        now = clock()
        trace.append(TracePoint(iterations, "x-step", f, gnorm, (now - last) * 1e3))
        last = now
        if conv.update(f):
            converged = True
            break
    return JointResult(x, P, f, iterations, converged, tuple(trace),
                       frozenset(flags))


def _two_loop_direction(memory, g: np.ndarray) -> np.ndarray:
    """Standard L-BFGS two-loop recursion for -H g."""
    if not memory:
        return -g
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    s, y, _ = memory[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q
