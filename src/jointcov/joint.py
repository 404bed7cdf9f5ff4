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
the iteration.  A :class:`_Run` keeps a driver's trace, flags and stop rule.

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
from .problem import JointProblem, NoiseGroup, check_cap, residual_covariance, sample_covariance

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
        check_cap("max_outer_iterations", self.max_outer_iterations)
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
    """x, P and F where a driver stopped.  ``converged``: the stop rule of
    :class:`_Run` ended the run, not the cap or a stall.  ``flags``: a P
    update met an eigenvalue bound (:data:`FLAG_BOUND_HIT`), or an x-step's
    search ran out (``FLAG_LM_FAILURE``, ``FLAG_LINE_SEARCH_FAILURE``)."""

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
        M[g.group_id] = (assemble_M(S, problem.group_sizes[g.group_id], g.prior)
                         if g.estimator == "map" else S)
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


class _Run:
    """One driver run's clock, trace, flags and stop rule.

    The run converges once two consecutive iterations each change F by at
    most ``f_tol * (1 + |F|)``, or the traced gradient norm is at most
    ``grad_tol`` (elimination's exit; BCD traces only a proxy).  It ends
    unconverged at the cap, or where its driver breaks off at a stall: an
    x-step that accepts no point, counted as an iteration but not traced.
    """

    def __init__(self, config: JointConfig, grad_tol: float = -np.inf):
        self.cap, self.f_tol, self.grad_tol = config.max_outer_iterations, config.f_tol, grad_tol
        self.last = time.perf_counter()
        self.trace: list[TracePoint] = []
        self.flags: set = set()
        self.iterations = self.streak = 0
        self.previous = np.nan  # the first F compares with nothing
        self.converged = False

    def lap(self) -> float:
        """Milliseconds since the previous lap, or since the run began."""
        now = time.perf_counter()
        elapsed, self.last = (now - self.last) * 1e3, now
        return elapsed

    def record(self, phase: str, objective: float, gradient_norm: float, wall_ms: float,
               bound_hit: bool = False):
        self.trace.append(TracePoint(self.iterations, phase, objective, gradient_norm, wall_ms))
        if bound_hit:
            self.flags.add(FLAG_BOUND_HIT)

    def advance(self) -> bool:
        """Apply the stop rule to the last trace entry; if the run goes on,
        start its next iteration."""
        last = self.trace[-1]
        small = abs(last.objective - self.previous) <= self.f_tol * (1.0 + abs(last.objective))
        self.streak = self.streak + 1 if small else 0
        self.previous = last.objective
        self.converged = self.streak >= 2 or last.gradient_norm <= self.grad_tol
        if self.converged or self.iterations == self.cap:
            return False
        self.iterations += 1
        return True

    def result(self, x: ManifoldPoint, P: dict) -> JointResult:
        return JointResult(x, P, self.trace[-1].objective, self.iterations, self.converged,
                           tuple(self.trace), frozenset(self.flags))


def _run_bcd(problem: JointProblem, x_init: ManifoldPoint, config: JointConfig,
             exact: bool) -> JointResult:
    run = _Run(config)

    def p_step(x, residuals=None):
        """M at x (from ``residuals`` or one residual pass), P and a bound hit."""
        M = second_moments(problem, x, residuals)
        P, solutions = information_update(problem, x, M)
        return M, P, any(s.any_bound_active for s in solutions.values())

    x = problem.check_start(x_init)
    M, P, bound_hit = p_step(x)
    run.record("init", joint_objective(problem, x, P, M), np.nan, run.lap(), bound_hit)
    damping = 0.0  # the LM x-step's first trial
    while run.advance():
        weights = _scaled_weights(problem, P)
        residuals = None
        if exact:
            res = nls.solve_fixed_P(problem, x, weights, config.nls)
            x, grad_proxy = res.x, res.gradient_norm
            failure = FLAG_LM_FAILURE if res.lm_failure else None
            stalled = res.lm_failure and res.iterations == 1  # no step accepted
        elif config.nls.step_mode == nls.RIEMANNIAN_GD:
            x, grad_proxy, stalled = nls.step_once(problem, x, weights)
            failure = FLAG_LINE_SEARCH_FAILURE if stalled else None
        else:
            x, grad_proxy, accepted, residuals = nls._lm_step(problem, x, weights, damping)
            stalled = accepted is None
            failure = FLAG_LM_FAILURE if stalled else None
            damping = 0.0 if accepted == 0.0 else nls.DAMPING_INIT
        if failure:
            run.flags.add(failure)
        if stalled:
            break
        x_ms = run.lap()
        M, P_new, bound_hit = p_step(x, residuals)
        f = joint_objective(problem, x, P_new, M)
        p_ms = run.lap()
        f_x = joint_objective(problem, x, P, M)  # the x-step's F, at the old P
        run.record("x-step", f_x, grad_proxy, x_ms + run.lap())
        run.record("p-step", f, grad_proxy, p_ms, bound_hit)
        P = P_new
    return run.result(x, P)


def run_block_exact_bcd(problem: JointProblem, x_init: ManifoldPoint,
                        config: JointConfig | None = None) -> JointResult:
    """Alternate a full weighted-NLS solve on x with the analytic P update.

    F is non-increasing across both half-steps.  An inner solve that
    accepts no step stalls the run, which ends unconverged; one that runs
    out later sets :data:`FLAG_LM_FAILURE`, and the run goes on.
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
    A stalled x-step keeps x, sets :data:`FLAG_LM_FAILURE` or
    :data:`FLAG_LINE_SEARCH_FAILURE` and ends the run unconverged.
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
    config = config or JointConfig(algorithm=ELIMINATION)
    run = _Run(config, grad_tol=nls.GRAD_TOL)
    x = problem.check_start(x_init)
    f, g, P, bound_hit, index = _reduced_value_and_grad(problem, x)
    gnorm = nls.vector_norm(g)
    run.record("init", f, gnorm, run.lap(), bound_hit)
    memory: deque = deque(maxlen=LBFGS_MEMORY)
    while run.advance():
        d = _two_loop_direction(memory, g)
        if float(d @ g) >= 0.0:  # not a descent direction: reset to steepest
            memory.clear()
            d = -g
        alpha = 1.0 if memory else min(1.0, 1.0 / max(gnorm, 1.0))
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
                break
            alpha *= 0.5
        else:  # no trial accepted: a stall
            run.flags.add(FLAG_LINE_SEARCH_FAILURE)
            break
        s = alpha * d
        y = g_trial - g
        sy = float(s @ y)
        if sy > 1e-10 * nls.vector_norm(s) * nls.vector_norm(y):
            memory.append((s, y, 1.0 / sy))
        x, f, g, P, index = x_trial, f_trial, g_trial, P_trial, index_trial
        gnorm = nls.vector_norm(g)
        run.record("x-step", f, gnorm, run.lap(), bound_hit)
    return run.result(x, P)


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
