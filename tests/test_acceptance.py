"""Acceptance suite: every shipped claim, one test per criterion.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  The expensive
experiment suites run once in module-scoped fixtures and are shared by the
criteria that inspect them.
"""

import time

import numpy as np
import pytest

from jointcov.covariance import (
    DIAG_EIG,
    DIAGONAL,
    EIG,
    UNCONSTRAINED,
    assemble_M,
    inner_objective,
    mode_match_prior,
    numeric_inner_oracle,
    solve_inner_diag_eig,
    solve_inner_diagonal,
    solve_inner_eig,
    solve_inner_unconstrained,
)
from jointcov.harness import (
    ExperimentConfig,
    run_linear_mc,
    run_pgo_ablation,
    wasserstein2,
)
from jointcov.io_pgo import (
    SyntheticNoiseSpec,
    generate_manhattan_like,
    parse_g2o,
    pose_graph_problem,
    spanning_tree_init,
    write_g2o,
)
from jointcov.joint import JointConfig, run_hybrid_bcd
from jointcov.manifold import (
    ManifoldPoint,
    ManifoldSpec,
    boxplus,
    exp_se2,
    log_se2,
    se2_block,
)
from jointcov.nls import RIEMANNIAN_GD, NlsConfig
from jointcov.problem import NoiseGroup, relative_se2_set, residual


def _report(criterion, passed, detail=""):
    print(f"[acceptance] criterion {criterion}: "
          f"{'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _random_spd(rng, m, lo=0.5, hi=2.5):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return (q * rng.uniform(lo, hi, size=m)) @ q.T


# ---------------------------------------------------------------------------
# Shared experiment runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear_suite():
    cfg = ExperimentConfig(experiment="linear-mc", trials=20, seed=42,
                           noise_grid=(0.01, 1.0, 100.0))
    start = time.perf_counter()
    records = run_linear_mc(cfg)
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def pgo_suite():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="pgo-ablation", trials=10, seed=7,
                           noise_grid=(5.0, 40.0), num_poses=500)
    homo = run_pgo_ablation(cfg)
    cfg_het = ExperimentConfig(experiment="pgo-ablation", trials=10, seed=7,
                               noise_grid=(5.0, 40.0), num_poses=500,
                               heteroscedastic=True)
    hetero = run_pgo_ablation(cfg_het)
    return homo, hetero, time.perf_counter() - start


def _by_algorithm(records, level=None):
    table = {}
    for r in records:
        if level is not None and r.noise_level != level:
            continue
        table.setdefault(r.algorithm, []).append(r)
    return table


BCD_VARIANTS = ("bcd", "bcd-diag", "bcd-wishart", "bcd-diag-wishart")


# ---------------------------------------------------------------------------
# Criterion 1: analytic inner solutions match the numeric oracle
# ---------------------------------------------------------------------------

def test_criterion_1_inner_oracle_equivalence():
    rng = np.random.default_rng(1)
    lam = (0.8, 1.8)  # keeps clamping active for a good share of draws
    start = time.perf_counter()
    worst = 0.0
    dims = (2, 3, 5, 6)
    for i in range(100):
        m = dims[i % 4]
        M = _random_spd(rng, m)
        cases = (
            (solve_inner_unconstrained(M), numeric_inner_oracle(M, UNCONSTRAINED)),
            (solve_inner_diagonal(M), numeric_inner_oracle(M, DIAGONAL)),
            (solve_inner_eig(M, *lam), numeric_inner_oracle(M, EIG, *lam)),
            (solve_inner_diag_eig(M, *lam), numeric_inner_oracle(M, DIAG_EIG, *lam)),
        )
        for sol, oracle in cases:
            err = (np.linalg.norm(oracle - sol.information)
                   / np.linalg.norm(sol.information))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-8 and elapsed < 30.0,
            f"(max relative error {worst:.2e}, {elapsed:.1f}s for 100 x 4)")


# ---------------------------------------------------------------------------
# Criterion 2: KKT stationarity and trace identities
# ---------------------------------------------------------------------------

def test_criterion_2_kkt_and_trace_identities():
    rng = np.random.default_rng(2)
    lam = (0.7, 1.6)
    kkt_worst = trace_worst = eig_violation = 0.0
    for i in range(60):
        m = (2, 3, 5, 6)[i % 4]
        M = _random_spd(rng, m, 0.3, 4.0)
        sol_u = solve_inner_unconstrained(M)
        kkt_worst = max(kkt_worst,
                        np.linalg.norm(sol_u.information @ M - np.eye(m)))
        for sol in (sol_u, solve_inner_diagonal(M)):
            trace_worst = max(trace_worst, abs(np.sum(M * sol.information) - m))
        for sol in (solve_inner_eig(M, *lam), solve_inner_diag_eig(M, *lam)):
            sigma_eigs = 1.0 / np.linalg.eigvalsh(sol.information)
            eig_violation = max(eig_violation,
                                max(lam[0] - sigma_eigs.min(), 0.0),
                                max(sigma_eigs.max() - lam[1], 0.0))
    ok = kkt_worst <= 1e-10 and trace_worst <= 1e-10 and eig_violation <= 1e-12
    _report(2, ok, f"(KKT {kkt_worst:.2e}, trace {trace_worst:.2e}, "
                   f"bound violation {eig_violation:.2e})")


# ---------------------------------------------------------------------------
# Criterion 3: unboundedness identity along a null direction
# ---------------------------------------------------------------------------

def test_criterion_3_nullspace_descent_identity():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 5))  # k = 3 < m = 5: singular sample covariance
    S = A.T @ A / 3.0
    _, _, vt = np.linalg.svd(A, full_matrices=True)
    u = vt[-1]
    P0 = _random_spd(rng, 5, 0.5, 2.0)
    f0 = inner_objective(S, P0)
    quad = float(u @ np.linalg.solve(P0, u))
    worst = 0.0
    for c in (1.0, 10.0, 100.0):
        drop = inner_objective(S, P0 + c * np.outer(u, u)) - f0
        worst = max(worst, abs(drop + np.log(1.0 + c * quad)))
    _report(3, worst <= 1e-9, f"(max identity error {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 4: prior/sample blend of the unconstrained MAP optimum
# ---------------------------------------------------------------------------

def test_criterion_4_map_blend():
    rng = np.random.default_rng(4)
    worst = 0.0
    for w in (0.1, 1.0, 10.0):
        for _ in range(10):
            m = rng.integers(2, 6)
            sigma0 = _random_spd(rng, m, 0.5, 2.0)
            S = _random_spd(rng, m, 0.2, 3.0)
            k = int(rng.integers(5, 200))
            prior = mode_match_prior(sigma0, w, k)
            M = assemble_M(S, k, prior)
            sigma_star = solve_inner_unconstrained(M).covariance
            blend = (w / (w + 1.0)) * sigma0 + (1.0 / (w + 1.0)) * S
            worst = max(worst, np.abs(sigma_star - blend).max())
    _report(4, worst <= 1e-12, f"(max blend deviation {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 5: linear-model reproduction at desk scale
# ---------------------------------------------------------------------------

def test_criterion_5_linear_reproduction(linear_suite):
    records, elapsed = linear_suite
    failures = [r for r in records if r.status != "ok"]
    by_trial = {}
    for r in records:
        by_trial.setdefault((r.noise_level, r.trial), {})[r.algorithm] = r
    max_gap = max(abs(t["elimination"].final_F - t["bcd"].final_F)
                  for t in by_trial.values())
    low = _by_algorithm(records, level=0.01)
    mean = lambda alg: np.mean([r.rmse for r in low[alg]])  # noqa: E731
    ratio = mean("bcd") / mean("fixed-true")
    ratio_elim = mean("elimination") / mean("fixed-true")
    identity_worse = mean("fixed-identity") > mean("bcd")

    # baseline sanity: finite RMSEs, mean non-decreasing along the grid
    base_means = [np.mean([r.rmse for r in _by_algorithm(records, level=s)["fixed-true"]])
                  for s in (0.01, 1.0, 100.0)]
    trend = (np.all(np.isfinite(base_means))
             and base_means[0] < base_means[1] < base_means[2])

    ok = (not failures and max_gap <= 1e-6 and ratio <= 1.1
          and ratio_elim <= 1.1 and identity_worse and trend
          and elapsed < 300.0)
    _report(5, ok, f"(|dF| {max_gap:.2e}, RMSE ratio bcd {ratio:.3f} / "
                   f"elim {ratio_elim:.3f}, identity worse: {identity_worse}, "
                   f"monotone noise trend: {trend}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# Criterion 6: pose-graph reproduction at desk scale
# ---------------------------------------------------------------------------

def test_criterion_6_pgo_reproduction(pgo_suite):
    homo, hetero, elapsed = pgo_suite
    failures = [r for r in homo + hetero if r.status != "ok"]
    details = []

    # (a) every BCD variant's mean position RMSE <= 1.5x the true-covariance
    # baseline, per noise level, in both scenarios
    rmse_ok = True
    for records in (homo, hetero):
        for level in (5.0, 40.0):
            table = _by_algorithm(records, level=level)
            base = np.mean([r.rmse for r in table["fixed-true"]])
            for v in BCD_VARIANTS:
                ratio = np.mean([r.rmse for r in table[v]]) / base
                rmse_ok = rmse_ok and ratio <= 1.5
                details.append(f"{v}@{level}: {ratio:.2f}")

    # (b) homoscedastic: per-trial W2 below the identity baseline in >= 90%
    win = total = 0
    for level in (5.0, 40.0):
        table = _by_algorithm(homo, level=level)
        for v in BCD_VARIANTS:
            for rv, ri in zip(table[v], table["fixed-identity"]):
                win += rv.w2_odometry < ri.w2_odometry
                total += 1
    w2_rate = win / total

    # (c) heteroscedastic: both groups' mean W2 below the identity baseline
    het_ok = True
    for level in (5.0, 40.0):
        table = _by_algorithm(hetero, level=level)
        base_odo = np.mean([r.w2_odometry for r in table["fixed-identity"]])
        base_loop = np.mean([r.w2_loop for r in table["fixed-identity"]])
        for v in BCD_VARIANTS:
            het_ok = het_ok and np.mean([r.w2_odometry for r in table[v]]) < base_odo
            het_ok = het_ok and np.mean([r.w2_loop for r in table[v]]) < base_loop

    ok = (not failures and rmse_ok and w2_rate >= 0.9 and het_ok
          and elapsed < 600.0)
    _report(6, ok, f"(RMSE ratios ok: {rmse_ok}, W2 win rate {w2_rate:.2f}, "
                   f"hetero ok: {het_ok}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# Criterion 7: covariance-update cost at benchmark size
# ---------------------------------------------------------------------------

def test_criterion_7_covariance_update_cost():
    n = 3500
    noise = SyntheticNoiseSpec({"all": 5.0 * np.diag([20.0, 40.0, 30.0])}, seed=1)
    graph, _ = generate_manhattan_like(n, "nearby", noise, trajectory_seed=1,
                                       loop_fraction=2099 / 3500)
    k = len(graph.edges)
    assert k == 5598, f"expected the benchmark edge count, got {k}"
    problem = pose_graph_problem(
        graph, (NoiseGroup("all", 3, "ml-eig", bounds=(1e-4, 1e4)),))
    x = spanning_tree_init(graph)
    res = run_hybrid_bcd(problem, x, JointConfig(max_outer_iterations=5))
    worst = max(t.wall_ms for t in res.trace if t.phase == "p-step")
    _report(7, worst <= 50.0,
            f"(k = {k}, max covariance-update time {worst:.2f} ms)")


# ---------------------------------------------------------------------------
# Criterion 8: descent monotonicity on every suite instance
# ---------------------------------------------------------------------------

def _non_increasing(trace, slack=1e-10):
    return all(b <= a + slack for a, b in zip(trace, trace[1:]))


def test_criterion_8_descent_monotonicity(linear_suite, pgo_suite):
    records_linear, _ = linear_suite
    homo, hetero, _ = pgo_suite
    bad = 0
    checked = 0
    for r in records_linear:
        if r.algorithm == "bcd" and r.trace:
            checked += 1
            bad += not _non_increasing([t.objective for t in r.trace])
    for r in homo + hetero:
        if r.algorithm in BCD_VARIANTS and r.trace:
            checked += 1
            bad += not _non_increasing([t.objective for t in r.trace])

    # hybrid BCD in its backtracking gradient-descent mode
    rng_levels = [(5.0, 0), (40.0, 1)]
    for alpha, trial in rng_levels:
        noise = SyntheticNoiseSpec({"all": alpha * np.diag([20.0, 40.0, 30.0])},
                                   seed=trial + 3)
        graph, _ = generate_manhattan_like(300, "nearby", noise, trajectory_seed=7)
        problem = pose_graph_problem(
            graph, (NoiseGroup("all", 3, "ml-eig", bounds=(1e-4, 1e4)),))
        x = spanning_tree_init(graph)
        res = run_hybrid_bcd(problem, x, JointConfig(
            max_outer_iterations=13, nls=NlsConfig(step_mode=RIEMANNIAN_GD)))
        checked += 1
        bad += not _non_increasing([t.objective for t in res.trace])
    _report(8, bad == 0 and checked > 0,
            f"({checked} traces checked, {bad} not monotone)")


# ---------------------------------------------------------------------------
# Criterion 9: manifold and metric properties
# ---------------------------------------------------------------------------

def test_criterion_9_manifold_and_metric_properties():
    rng = np.random.default_rng(9)

    # SE(2) exp/log round trip
    roundtrip = 0.0
    for _ in range(200):
        v = rng.uniform(-3.0, 3.0, size=3)
        roundtrip = max(roundtrip, np.abs(log_se2(exp_se2(v)) - v).max())

    # analytic Jacobians vs central finite differences
    spec = ManifoldSpec((se2_block(0), se2_block(1)))
    jac_err = 0.0
    for _ in range(50):
        x = ManifoldPoint(spec, (rng.uniform(-2, 2, size=3),
                                 rng.uniform(-2, 2, size=3)))
        fs = relative_se2_set([0], [1], [rng.uniform(-1, 1, size=3)], "g")
        batch = fs.compile(spec, spec.ungauged_index)
        J = batch.jacobian(batch.linearize(x)[1])[0]
        h = 1e-6
        for col in range(6):
            e = np.zeros(6)
            e[col] = h
            d = (residual(fs, boxplus(x, e)) - residual(fs, boxplus(x, -e)))[0] / (2 * h)
            jac_err = max(jac_err, np.abs(J[:, col] - d).max())

    # W2 metric axioms
    w2_err = 0.0
    for _ in range(20):
        a, b = _random_spd(rng, 3, 0.2, 3.0), _random_spd(rng, 3, 0.2, 3.0)
        w2_err = max(w2_err, abs(wasserstein2(a, b) - wasserstein2(b, a)))
        w2_err = max(w2_err, wasserstein2(a, a))
        if wasserstein2(a, b) < 0:
            w2_err = np.inf

    # g2o round trip, bit exact
    noise = SyntheticNoiseSpec({"all": np.diag([20.0, 40.0, 30.0])}, seed=2)
    graph, _ = generate_manhattan_like(60, "densified", noise, trajectory_seed=2)
    text = write_g2o(graph)
    g2o_ok = write_g2o(parse_g2o(text)) == text

    ok = roundtrip <= 1e-10 and jac_err <= 1e-5 and w2_err <= 1e-10 and g2o_ok
    _report(9, ok, f"(round trip {roundtrip:.1e}, jac {jac_err:.1e}, "
                   f"W2 axioms {w2_err:.1e}, g2o exact: {g2o_ok})")
