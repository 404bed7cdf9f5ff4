"""Pose-graph optimization with unknown measurement noise.

Generates a synthetic Manhattan-style SE(2) pose graph, corrupts the
relative-pose measurements with a noise model the solver never sees, and
jointly recovers trajectory and noise covariances with one-step BCD, with
and without a weak Wishart prior.  Also round-trips the dataset through
the g2o text format.
"""

import numpy as np

from jointcov.covariance import mode_match_prior
from jointcov.harness import rmse, wasserstein2
from jointcov.io_pgo import (
    LOOP,
    ODOMETRY,
    SyntheticNoiseSpec,
    generate_manhattan_like,
    parse_g2o,
    pose_graph_problem,
    spanning_tree_init,
    write_g2o,
)
from jointcov.joint import JointConfig, run_hybrid_bcd
from jointcov.nls import NlsConfig, SINGLE_ITERATION, solve_fixed_P
from jointcov.problem import NoiseGroup

# Heteroscedastic truth: precise odometry, noisier loop closures.
info_true = {
    ODOMETRY: np.diag([1000.0, 1000.0, 800.0]),
    LOOP: 10.0 * np.diag([20.0, 40.0, 30.0]),
}
noise = SyntheticNoiseSpec(info_true, seed=11)
graph, truth = generate_manhattan_like(400, "nearby", noise, trajectory_seed=2)
print(f"graph: {graph.num_poses} poses, {len(graph.edges)} edges "
      f"({len(graph.edges_of_kind(LOOP))} loop closures)")

# The dataset survives a g2o round trip bit-exactly.
assert write_g2o(parse_g2o(write_g2o(graph))) == write_g2o(graph)

x0 = spanning_tree_init(graph)
print(f"spanning-tree init RMSE: {rmse(x0, truth, 'positions'):.3f}\n")

# One noise group per edge class.  Eigenvalue bounds keep the covariance
# from collapsing when the sample covariance degenerates; the second run
# additionally blends in a deliberately wrong isotropic prior guess with a
# small weight.
counts = {k: len(graph.edges_of_kind(k)) for k in (ODOMETRY, LOOP)}
variants = {
    "bcd (bounded)": lambda k: NoiseGroup(
        k, 3, "ml-eig", bounds=(1e-4, 1e4)),
    "bcd (bounded + prior)": lambda k: NoiseGroup(
        k, 3, "map-eig", bounds=(1e-4, 1e4),
        prior=mode_match_prior(0.002 * np.eye(3), 0.1, counts[k])),
}

cfg = JointConfig(max_outer_iterations=13,
                  nls=NlsConfig(step_mode=SINGLE_ITERATION))
for name, make_group in variants.items():
    problem = pose_graph_problem(graph, tuple(make_group(k) for k in counts))
    res = run_hybrid_bcd(problem, x0, cfg)
    p_step_ms = max(t.wall_ms for t in res.trace if t.phase == "p-step")
    print(f"{name}: RMSE {rmse(res.x, truth, 'positions'):.3f} "
          f"(covariance update: max {p_step_ms:.1f} ms/iter)")
    for gid in (ODOMETRY, LOOP):
        sigma_est = np.linalg.inv(res.information[gid])
        sigma_true = np.linalg.inv(info_true[gid])
        print(f"  {gid:8s} W2(estimated, true) = "
              f"{wasserstein2(sigma_est, sigma_true):.4f}  "
              f"(identity baseline: {wasserstein2(np.eye(3), sigma_true):.4f})")

# Reference runs with fixed weights: the true information matrices versus
# the identity fallback.
problem = pose_graph_problem(
    graph, tuple(NoiseGroup(k, 3, "fixed", information=info_true[k])
                 for k in counts))
print()
for name, info in (("true", info_true),
                   ("identity", {k: np.eye(3) for k in info_true})):
    weights = {gid: info[gid] for gid in (ODOMETRY, LOOP)}
    base = solve_fixed_P(problem, x0, weights, NlsConfig(max_iterations=8))
    print(f"fixed-{name:8s} RMSE: {rmse(base.x, truth, 'positions'):.3f}")
