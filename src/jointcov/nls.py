"""Weighted nonlinear least squares over the product manifold at fixed weights.

Builds Gauss-Newton normal equations from the problem's compiled factor
batches (block-sparse by state block, with gauge-fixed blocks removed),
solves them with Levenberg-Marquardt damping, and applies retraction
updates.  Besides the full solve, one x-step for the hybrid BCD driver is
either a damped Gauss-Newton iteration from a given damping
(:func:`_lm_step`, the full solve's damping loop) or a backtracking
Riemannian gradient-descent step (:func:`step_once`).

Assembly is one loop over batches.  Each batch gives its costs and gradient
terms ``J^T W r`` per factor (:meth:`Batch.gradient_terms`): a linear
batch by stacked matmuls per factor, a relative-pose batch from its
Jacobians' eight closed-form entries by whole-vector arithmetic.  Hessian
terms ``J^T W J`` are stacked matmuls on the dense Jacobians
(:meth:`Batch.jacobian`), which a relative-pose batch expands only for a
Hessian build.  All terms are added in factor order: the costs by a
sequential ``np.cumsum``, and a sparse Hessian by one ``np.bincount`` over
all terms, with entries laid out factor-major.  The gradient and a dense
Hessian take each batch in turn: a linear batch, whose
factors share their positions (:attr:`LinearBatch.shared_positions`), is
summed over its factors starting from the accumulator's values there and
written back once; every other batch is scattered by one sequential
``np.add.at``.  That order makes a k-row set's linearization equal, bit
for bit, to that of its rows as k one-row sets.

The sparse Hessian's structure is analysed once per problem
(:attr:`JointProblem.hessian_pattern`, compiled on the first sparse
Hessian build): one fill-reducing symmetric ordering of the blocks, which
depends on the pattern alone, and one CSC pattern of the Hessian in that
order, with each batch's index into its values.  Assembly sums the terms
straight into that CSC.  Each damping trial adds the damping on the
diagonal of a copy of the values and runs a numeric LU without pivoting,
which suits ``H + damping I``, symmetric positive (semi-)definite.

scipy is loaded by the first factorization, not by this module:
``scipy.linalg`` for the dense Cholesky (LAPACK ``dpotrf``/``dpotrs``),
``scipy.sparse.linalg`` for the sparse LU.  A gradient-only run, such as
elimination, never loads it here.

The weighted cost is ``1/2 sum_i r_i(x)^T W_{g(i)} r_i(x)`` with one weight
matrix per noise group; any group-level scale factors are the caller's
responsibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .manifold import ActiveIndex, CutLocusError, ManifoldPoint, boxplus
from .problem import HessianPattern, JointProblem, check_cap, group_residuals

SINGLE_ITERATION = "single-iteration"
RIEMANNIAN_GD = "riemannian-gd"

# Armijo parameters for the gradient-descent step mode.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5

DENSE_THRESHOLD = 200  # dense Cholesky below this active tangent dimension

# Levenberg-Marquardt damping: a full solve's first trial, the multiplicative
# up/down factor, and the cap past which a step stalls.
DAMPING_INIT = 1e-4
DAMPING_FACTOR = 10.0
DAMPING_MAX = 1e12
# A full solve converges on a relative cost change or a gradient norm below these.
COST_TOL = 1e-9
GRAD_TOL = 1e-8

# SuperLU panel width and relaxed-supernode size for the damping trials.  A
# pose graph's supernodes are a few 3-column blocks wide; narrow panels and no
# relaxed supernodes factorized 3500-pose graphs (nearby and densified loop
# closures) and a 1000-pose graph 15-30% faster than SuperLU's defaults
# (12 and 6).  The relax size must not exceed the panel size: SuperLU counts
# supernode sizes in a histogram of panel size + 1 entries.
_LU_PANEL_SIZE = 4
_LU_RELAX = 1


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm: ``np.linalg.norm``'s formula, without its overhead."""
    return math.sqrt(v @ v)


@dataclass
class NlsConfig:
    """Solver settings: the full solve's iteration cap and the hybrid BCD
    x-step's mode."""

    max_iterations: int = 100
    step_mode: str = SINGLE_ITERATION

    def __post_init__(self):
        check_cap("max_iterations", self.max_iterations)
        if self.step_mode not in (SINGLE_ITERATION, RIEMANNIAN_GD):
            raise ValueError(f"unknown step mode {self.step_mode!r}")


@dataclass
class LinearizedSystem:
    """Normal equations J^T W J delta = -J^T W r at the linearization point.

    The gradient is in active-tangent order.  A sparse ``hessian`` is CSC on
    ``pattern``, in its fill-reducing order q = ``pattern.order``: it holds
    ``H[q][:, q]``.
    """

    hessian: object                  # (n, n) ndarray or scipy.sparse matrix
    gradient: np.ndarray
    cost: float
    index: ActiveIndex
    pattern: HessianPattern | None = None

    @property
    def gradient_norm(self) -> float:
        return vector_norm(self.gradient)

    def solve_damped(self, damping: float):
        """Solve (H + damping I) delta = -gradient; None if factorization fails.

        A sparse H, stored as ``H[q][:, q]``, is factorized with the damping
        added on a copy of its diagonal, by LU without pivoting: the matrix
        is symmetric positive semi-definite, and definite for damping > 0.
        """
        n = self.index.dim
        if n == 0:  # every block is gauge-fixed: nothing moves
            return np.zeros(0)
        p = self.pattern
        if p is not None:
            import scipy.sparse.linalg  # loaded by the first sparse solve

            H = self.hessian
            data = H.data.copy()
            data[p.diagonal] += damping
            try:
                lu = scipy.sparse.linalg.splu(
                    scipy.sparse.csc_matrix((data, H.indices, H.indptr), shape=H.shape),
                    permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    relax=_LU_RELAX, panel_size=_LU_PANEL_SIZE,
                    options={"SymmetricMode": True})
                step = lu.solve(-self.gradient[p.order])
            except RuntimeError:
                return None
            if not np.all(np.isfinite(step)):
                return None
            delta = np.empty(n)
            delta[p.order] = step
            return delta
        # LAPACK as scipy.linalg.cho_factor / cho_solve call it, and their
        # finiteness checks, without the rest of their per-call overhead
        import scipy.linalg  # loaded by the first dense solve

        H = self.hessian + damping * np.eye(n)
        _check_finite(H)
        factor, info = scipy.linalg.lapack.dpotrf(H, lower=False, clean=False)
        if info != 0:
            return None
        rhs = -self.gradient
        _check_finite(rhs)
        return scipy.linalg.lapack.dpotrs(factor, rhs, lower=False)[0]


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def weighted_cost(problem: JointProblem, x: ManifoldPoint,
                  weights: Mapping, residuals: dict | None = None) -> float:
    """``1/2 sum_i r_i^T W_{g(i)} r_i`` over all factors; ``residuals``, if
    given, receives each group's stacked residuals (group id -> (k, m))."""
    total = 0.0
    for g in problem.groups:
        R = group_residuals(problem, x, g.group_id)
        if residuals is not None:
            residuals[g.group_id] = R
        W = np.asarray(weights[g.group_id], dtype=float)
        total += 0.5 * float(np.einsum("ki,ij,kj->", R, W, R))
    return total


def build_system(problem: JointProblem, x: ManifoldPoint, weights: Mapping,
                 with_hessian: bool = True, linearization: Mapping | None = None
                 ) -> LinearizedSystem:
    """Linearize all factors at x and assemble gradient (and Hessian).

    Terms are added batch by batch and, inside a batch, factor by factor
    (see the module docstring); gauge-fixed terms land past the active
    tangent and are dropped.  ``linearization`` (group id -> each batch's
    ``linearize(x)``) passes in residuals and Jacobians evaluated already,
    in each batch's own form.
    """
    index = problem.active_index
    n = index.dim
    dense = with_hessian and n < DENSE_THRESHOLD
    grad = np.zeros(index.full_dim)
    H = np.zeros(n * n + 1) if dense else None
    costs = [np.zeros(1)]
    terms = []
    for g in problem.groups:
        Wg = np.asarray(weights[g.group_id], dtype=float)
        batches = problem.batches[g.group_id]
        pairs = (linearization[g.group_id] if linearization is not None
                 else (batch.linearize(x) for batch in batches))
        for batch, (r, jac) in zip(batches, pairs):
            cost, grad_terms = batch.gradient_terms(r, jac, Wg)
            costs.append(cost)
            shared = batch.shared_positions
            _add_terms(grad, batch.positions if shared is None else shared,
                       grad_terms, shared is not None)
            if not with_hessian:
                continue
            J = batch.jacobian(jac)
            blocks = np.swapaxes(J, 1, 2) @ Wg @ J
            if dense:
                _add_terms(H, batch.dense_hessian_index,
                           blocks.reshape(len(blocks), -1), shared is not None)
            else:
                terms.append(blocks.ravel())

    cost = float(np.cumsum(np.concatenate(costs))[-1])
    hessian = pattern = None
    if dense:
        hessian = H[:-1].reshape(n, n)
    elif with_hessian:
        pattern = problem.hessian_pattern
        hessian = pattern.matrix(terms)
    return LinearizedSystem(hessian, grad[:n], cost, index, pattern)


def _add_terms(acc: np.ndarray, index: np.ndarray, terms: np.ndarray,
               shared: bool) -> None:
    """``acc[index] += terms`` factor by factor, for ``terms`` ``(k, E)``.

    ``index`` is ``(k, E)``, scattered by one sequential ``np.add.at``, or,
    if ``shared``, one row ``(E,)`` for every factor: then the terms are
    summed along the factors starting from ``acc``'s values there, which
    numpy adds in sequence (E > 1), and written back once.
    """
    if shared:
        acc[index] = np.concatenate((acc[index][None], terms)).sum(axis=0)
    else:
        np.add.at(acc, index.ravel(), terms.ravel())


@dataclass
class NlsResult:
    x: ManifoldPoint
    cost: float
    gradient_norm: float
    iterations: int
    converged: bool
    lm_failure: bool = False


def _try_cost(problem, x, weights, residuals=None):
    """Weighted cost, +inf when a trial step lands on the SE(2) cut locus."""
    try:
        return weighted_cost(problem, x, weights, residuals)
    except CutLocusError:
        return np.inf


def _damped_step(problem: JointProblem, system: LinearizedSystem,
                 x: ManifoldPoint, weights: Mapping, damping: float):
    """Levenberg-Marquardt trials at ``damping``, then :data:`DAMPING_INIT`
    if that was 0, else ``damping * DAMPING_FACTOR``, up to
    :data:`DAMPING_MAX`.

    The caller picks the first: :func:`solve_fixed_P` a damping that shrinks
    on acceptance, hybrid BCD 0 only while its previous x-step accepted 0,
    else :data:`DAMPING_INIT`.

    Returns (trial, its cost, damping, its residuals per group id) for the
    first trial whose cost does not exceed ``system.cost``, or None on stall.
    """
    while damping <= DAMPING_MAX:
        delta = system.solve_damped(damping)
        if delta is not None:
            x_trial = boxplus(x, system.index.scatter(delta))
            residuals = {}
            cost_trial = _try_cost(problem, x_trial, weights, residuals)
            if cost_trial <= system.cost:
                return x_trial, cost_trial, damping, residuals
        damping = DAMPING_INIT if damping == 0.0 else damping * DAMPING_FACTOR
    return None


def solve_fixed_P(problem: JointProblem, x_init: ManifoldPoint,
                  weights: Mapping, config: NlsConfig | None = None) -> NlsResult:
    """Levenberg-Marquardt minimization of the weighted cost at fixed weights.

    Steps are accepted only when the cost does not increase, so the cost
    never rises from one iteration to the next; damping grows
    multiplicatively on rejection and shrinks on acceptance.  If damping
    exceeds :data:`DAMPING_MAX` the best iterate so far is returned with
    ``lm_failure`` set.
    """
    config = config or NlsConfig()
    x = problem.check_start(x_init)
    damping = DAMPING_INIT
    converged = lm_failure = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        system = build_system(problem, x, weights)
        cost, grad_norm = system.cost, system.gradient_norm
        if grad_norm <= GRAD_TOL:
            converged = True
            break
        step = _damped_step(problem, system, x, weights, damping)
        if step is None:
            lm_failure = True
            break
        x, cost_trial, damping, _ = step
        damping = max(damping / DAMPING_FACTOR, 1e-15)
        if abs(cost - cost_trial) <= COST_TOL * (1.0 + abs(cost_trial)):
            converged = True
            break
    final = build_system(problem, x, weights, with_hessian=False)
    return NlsResult(x, final.cost, final.gradient_norm, iterations,
                     converged, lm_failure)


def step_once(problem: JointProblem, x: ManifoldPoint,
              weights: Mapping) -> tuple[ManifoldPoint, float, bool]:
    """One Riemannian gradient-descent step on x at fixed weights: a step
    along the negative gradient in the local chart, with Armijo
    backtracking from step 1.

    Returns the new point (x itself on stall), the gradient norm at x, and
    whether the Armijo search ran out.
    """
    system = build_system(problem, x, weights, with_hessian=False)
    g = system.gradient
    g_sq = float(g @ g)
    if g_sq == 0.0:
        return x, 0.0, False
    t = 1.0
    while t > 1e-20:
        x_new = boxplus(x, system.index.scatter(-t * g))
        if _try_cost(problem, x_new, weights) <= system.cost - _ARMIJO_C * t * g_sq:
            return x_new, system.gradient_norm, False
        t *= _ARMIJO_SHRINK
    return x, system.gradient_norm, True


def _lm_step(problem: JointProblem, x: ManifoldPoint, weights: Mapping, damping: float):
    """One Levenberg-Marquardt iteration with trials from ``damping``: the
    new point (x on stall), the gradient norm at x, and the accepted damping
    and trial's residuals per group id (None on stall)."""
    system = build_system(problem, x, weights)
    step = _damped_step(problem, system, x, weights, damping)
    x_new, _, damping, residuals = step or (x, None, None, None)
    return x_new, system.gradient_norm, damping, residuals
