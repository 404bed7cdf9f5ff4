"""Weighted nonlinear least squares over the product manifold at fixed weights.

Builds Gauss-Newton normal equations from factor Jacobians (block-sparse by
state block, with gauge-fixed blocks removed), solves them with
Levenberg-Marquardt damping, and applies retraction updates.  Besides the
full solve, a single-iteration step and a backtracking Riemannian
gradient-descent step are exposed for the block-coordinate-descent drivers.

The weighted cost is ``1/2 sum_i r_i(x)^T W_{g(i)} r_i(x)`` with one weight
matrix per noise group; any group-level scale factors are the caller's
responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .manifold import CutLocusError, ManifoldPoint, boxplus
from .problem import (
    ActiveIndex,
    JointProblem,
    _batch_relative_se2,
    group_residuals,
    residual,
    residual_jacobian,
)

FULL_SOLVE = "full-solve"
SINGLE_ITERATION = "single-iteration"
RIEMANNIAN_GD = "riemannian-gd"

# Armijo parameters for the gradient-descent step mode.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5


@dataclass
class NlsConfig:
    """Solver settings; all tolerances must be positive."""

    max_iterations: int = 100
    damping_init: float = 1e-4
    damping_factor: float = 10.0      # multiplicative up/down factor
    damping_max: float = 1e12
    cost_tol: float = 1e-9            # relative cost change
    grad_tol: float = 1e-8
    step_mode: str = FULL_SOLVE
    gd_step: float | None = None      # fixed eta for riemannian-gd; None = backtracking
    dense_threshold: int = 200        # dense Cholesky below this tangent dimension

    def __post_init__(self):
        if self.cost_tol <= 0 or self.grad_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.step_mode not in (FULL_SOLVE, SINGLE_ITERATION, RIEMANNIAN_GD):
            raise ValueError(f"unknown step mode {self.step_mode!r}")


@dataclass
class LinearizedSystem:
    """Normal equations J^T W J delta = -J^T W r at the linearization point."""

    hessian: object                  # (n, n) ndarray or scipy.sparse matrix
    gradient: np.ndarray
    cost: float
    index: ActiveIndex

    @property
    def gradient_norm(self) -> float:
        return float(np.linalg.norm(self.gradient))

    def solve_damped(self, damping: float):
        """Solve (H + damping I) delta = -gradient; None if factorization fails."""
        n = self.index.dim
        if scipy.sparse.issparse(self.hessian):
            H = (self.hessian + damping * scipy.sparse.identity(n, format="csc")).tocsc()
            try:
                lu = scipy.sparse.linalg.splu(H)
                delta = lu.solve(-self.gradient)
            except RuntimeError:
                return None
            if not np.all(np.isfinite(delta)):
                return None
            return delta
        H = self.hessian + damping * np.eye(n)
        try:
            factor = scipy.linalg.cho_factor(H)
        except scipy.linalg.LinAlgError:
            return None
        return scipy.linalg.cho_solve(factor, -self.gradient)

    def hessian_is_positive_definite(self) -> bool:
        """Definiteness probe of the undamped Hessian (gauge diagnostics)."""
        if scipy.sparse.issparse(self.hessian):
            try:
                lu = scipy.sparse.linalg.splu(self.hessian.tocsc())
            except RuntimeError:
                return False
            d = np.abs(lu.U.diagonal())
            return bool(d.min() > 1e-10 * max(d.max(), 1.0))
        try:
            scipy.linalg.cho_factor(self.hessian)
            return True
        except scipy.linalg.LinAlgError:
            return False


def weighted_cost(problem: JointProblem, x: ManifoldPoint,
                  weights: Mapping) -> float:
    """``1/2 sum_i r_i^T W_{g(i)} r_i`` over all factors."""
    total = 0.0
    for g in problem.groups:
        R = group_residuals(problem, x, g.group_id)
        W = np.asarray(weights[g.group_id], dtype=float)
        total += 0.5 * float(np.einsum("ki,ij,kj->", R, W, R))
    return total


def build_system(problem: JointProblem, x: ManifoldPoint, weights: Mapping,
                 with_hessian: bool = True,
                 dense_threshold: int = 200) -> LinearizedSystem:
    """Linearize all factors at x and assemble gradient (and Hessian).

    All-SE(2) groups go through their compiled batch; other groups are
    linearized factor by factor.
    """
    index = problem.active_index
    n = index.dim
    use_dense = n < dense_threshold
    grad = np.zeros(n)
    cost = 0.0
    H = np.zeros((n, n)) if (with_hessian and use_dense) else None
    coo_rows, coo_cols, coo_vals = [], [], []

    def add_block(off_u, off_v, block):
        if H is not None:
            du, dv = block.shape
            H[off_u : off_u + du, off_v : off_v + dv] += block
        else:
            du, dv = block.shape
            r = (off_u + np.arange(du))[:, None] + np.zeros(dv, dtype=int)[None, :]
            c = (off_v + np.arange(dv))[None, :] + np.zeros(du, dtype=int)[:, None]
            coo_rows.append(r.ravel())
            coo_cols.append(c.ravel())
            coo_vals.append(np.asarray(block).ravel())

    for g in problem.groups:
        Wg = np.asarray(weights[g.group_id], dtype=float)
        batch = problem.se2_batches.get(g.group_id)
        if batch is not None:
            r, Ja, Jb = _batch_relative_se2(x, batch, with_jacobians=True)
            W = np.broadcast_to(Wg, (len(r), 3, 3))
            Wr = np.einsum("nij,nj->ni", W, r)
            cost += 0.5 * float(np.einsum("ni,ni->", r, Wr))
            offa = index.pose_offsets[batch.ia]
            offb = index.pose_offsets[batch.ib]
            ga = np.einsum("nji,nj->ni", Ja, Wr)
            gb = np.einsum("nji,nj->ni", Jb, Wr)
            va, vb = offa >= 0, offb >= 0
            if np.any(va):
                np.add.at(grad, offa[va, None] + np.arange(3)[None, :], ga[va])
            if np.any(vb):
                np.add.at(grad, offb[vb, None] + np.arange(3)[None, :], gb[vb])
            if with_hessian:
                WJa = np.einsum("nij,njk->nik", W, Ja)
                WJb = np.einsum("nij,njk->nik", W, Jb)
                Haa = np.einsum("nji,njk->nik", Ja, WJa)
                Hab = np.einsum("nji,njk->nik", Ja, WJb)
                Hbb = np.einsum("nji,njk->nik", Jb, WJb)
                _scatter_se2_blocks(H, coo_rows, coo_cols, coo_vals,
                                    offa, offb, va, vb, Haa, Hab, Hbb)
            continue
        for f in problem.factors_by_group[g.group_id]:
            r = residual(f, x)
            Wr = Wg @ r
            cost += 0.5 * float(r @ Wr)
            J = residual_jacobian(f, x)
            col = 0
            cols = []
            for bid in f.block_ids:
                dim = x.spec.block(bid).dim
                cols.append((index.offsets[bid], J[:, col : col + dim]))
                col += dim
            for ou, Ju in cols:
                if ou < 0:
                    continue
                grad[ou : ou + Ju.shape[1]] += Ju.T @ Wr
                if with_hessian:
                    for ov, Jv in cols:
                        if ov >= 0:
                            add_block(ou, ov, Ju.T @ Wg @ Jv)

    hessian = H
    if with_hessian and not use_dense:
        rows = np.concatenate(coo_rows) if coo_rows else np.zeros(0, dtype=int)
        cols_ = np.concatenate(coo_cols) if coo_cols else np.zeros(0, dtype=int)
        vals = np.concatenate(coo_vals) if coo_vals else np.zeros(0)
        hessian = scipy.sparse.coo_matrix((vals, (rows, cols_)), shape=(n, n)).tocsc()
    return LinearizedSystem(hessian, grad, cost, index)


def _scatter_se2_blocks(H, coo_rows, coo_cols, coo_vals,
                        offa, offb, va, vb, Haa, Hab, Hbb):
    eye3 = np.arange(3)

    def scatter(off_r, off_c, blocks, valid):
        if not np.any(valid):
            return
        r = off_r[valid, None, None] + eye3[None, :, None]
        c = off_c[valid, None, None] + eye3[None, None, :]
        if H is not None:
            np.add.at(H, (r, c), blocks[valid])
        else:
            coo_rows.append(np.broadcast_to(r, (valid.sum(), 3, 3)).ravel())
            coo_cols.append(np.broadcast_to(c, (valid.sum(), 3, 3)).ravel())
            coo_vals.append(blocks[valid].ravel())

    scatter(offa, offa, Haa, va)
    scatter(offb, offb, Hbb, vb)
    both = va & vb
    scatter(offa, offb, Hab, both)
    scatter(offb, offa, np.transpose(Hab, (0, 2, 1)), both)


@dataclass
class NlsResult:
    x: ManifoldPoint
    cost: float
    gradient_norm: float
    iterations: int
    converged: bool
    lm_failure: bool = False
    trace: tuple = ()


def _try_cost(problem, x, weights):
    """Weighted cost, +inf when a trial step lands on the SE(2) cut locus."""
    try:
        return weighted_cost(problem, x, weights)
    except CutLocusError:
        return np.inf


def solve_fixed_P(problem: JointProblem, x_init: ManifoldPoint,
                  weights: Mapping, config: NlsConfig | None = None) -> NlsResult:
    """Levenberg-Marquardt minimization of the weighted cost at fixed weights.

    Steps are accepted only when the cost does not increase, so the cost
    trace is non-increasing; damping grows multiplicatively on rejection and
    shrinks on acceptance.  If damping exceeds ``damping_max`` the best
    iterate so far is returned with ``lm_failure`` set.
    """
    config = config or NlsConfig()
    x = x_init
    damping = config.damping_init
    trace = []
    converged = False
    lm_failure = False
    grad_norm = np.nan
    cost = np.nan
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        system = build_system(problem, x, weights,
                              dense_threshold=config.dense_threshold)
        cost, grad_norm = system.cost, system.gradient_norm
        trace.append((iterations, cost, grad_norm, damping))
        if grad_norm <= config.grad_tol:
            converged = True
            break
        accepted = False
        while damping <= config.damping_max:
            delta = system.solve_damped(damping)
            if delta is not None:
                x_trial = boxplus(x, system.index.scatter(delta))
                cost_trial = _try_cost(problem, x_trial, weights)
                if cost_trial <= cost:
                    x = x_trial
                    damping = max(damping / config.damping_factor, 1e-15)
                    accepted = True
                    break
            damping *= config.damping_factor
        if not accepted:
            lm_failure = True
            break
        if abs(cost - cost_trial) <= config.cost_tol * (1.0 + abs(cost_trial)):
            cost = cost_trial
            converged = True
            break
        cost = cost_trial
    final = build_system(problem, x, weights, with_hessian=False,
                         dense_threshold=config.dense_threshold)
    return NlsResult(x, final.cost, final.gradient_norm, iterations,
                     converged, lm_failure, tuple(trace))


def step_once(problem: JointProblem, x: ManifoldPoint, weights: Mapping,
              config: NlsConfig | None = None) -> ManifoldPoint:
    """One descent step on x at fixed weights; returns x unchanged on stall.

    ``single-iteration`` mode attempts an undamped Gauss-Newton step first
    (exact for linear residuals) and escalates damping until the cost stops
    increasing.  ``riemannian-gd`` mode takes a gradient step in the local
    chart with Armijo backtracking from step 1 (or a user-fixed step, still
    subject to the descent check).
    """
    return _step_once_impl(problem, x, weights, config)[0]


def _step_once_impl(problem, x, weights, config):
    """step_once plus the gradient norm at the linearization point."""
    config = config or NlsConfig()
    if config.step_mode == RIEMANNIAN_GD:
        system = build_system(problem, x, weights, with_hessian=False,
                              dense_threshold=config.dense_threshold)
        g = system.gradient
        g_sq = float(g @ g)
        if g_sq == 0.0:
            return x, 0.0
        if config.gd_step is not None:
            x_new = boxplus(x, system.index.scatter(-config.gd_step * g))
            if _try_cost(problem, x_new, weights) <= system.cost:
                return x_new, system.gradient_norm
            return x, system.gradient_norm
        t = 1.0
        while t > 1e-20:
            x_new = boxplus(x, system.index.scatter(-t * g))
            if _try_cost(problem, x_new, weights) <= system.cost - _ARMIJO_C * t * g_sq:
                return x_new, system.gradient_norm
            t *= _ARMIJO_SHRINK
        return x, system.gradient_norm

    system = build_system(problem, x, weights,
                          dense_threshold=config.dense_threshold)
    damping = 0.0
    while True:
        delta = system.solve_damped(damping)
        if delta is not None:
            x_trial = boxplus(x, system.index.scatter(delta))
            if _try_cost(problem, x_trial, weights) <= system.cost:
                return x_trial, system.gradient_norm
        damping = config.damping_init if damping == 0.0 else damping * config.damping_factor
        if damping > config.damping_max:
            return x, system.gradient_norm
