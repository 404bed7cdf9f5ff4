"""The benchmark tracer's targets exist and see the batched evaluation.

``bench/tracer.py`` patches library functions by module attribute.  A target
that is renamed, or a batch that calls a kernel through a reference bound
at compile time instead of the module global, would leave its traced counts
silently at 0.
"""

import importlib.util
from collections import deque
from pathlib import Path

import numpy as np

from jointcov import io_pgo, joint, manifold
from jointcov.manifold import ManifoldPoint, ManifoldSpec, boxplus, euclidean_block
from jointcov.nls import SINGLE_ITERATION, NlsConfig
from jointcov.problem import JointProblem, NoiseGroup, group_residuals, linear_set

_TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_calls(tracer_module, solve, problem):
    problem.batches  # compile before the patches go in
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        solve()
    finally:
        tracer.uninstall()
    return {name: stat[0] for name, stat in tracer.stats.items()}


def test_every_layer_target_resolves():
    tracer_module = load_tracer()
    for _, targets, _ in tracer_module.LAYERS:
        for target in targets:
            _, _, original = tracer_module._resolve(target)
            assert callable(original), target


def test_pose_graph_hybrid_reaches_the_se2_kernel():
    noise = io_pgo.SyntheticNoiseSpec({"all": np.diag([100.0, 100.0, 200.0])}, seed=3)
    graph, _ = io_pgo.generate_manhattan_like(30, "nearby", noise, trajectory_seed=1)
    problem = io_pgo.pose_graph_problem(
        graph, [NoiseGroup("all", 3, "ml-eig", bounds=(1e-4, 1e4))])
    x0 = io_pgo.spanning_tree_init(graph)
    config = joint.JointConfig(algorithm=joint.HYBRID_BCD, max_outer_iterations=2,
                               nls=NlsConfig(step_mode=SINGLE_ITERATION))
    calls = traced_calls(load_tracer(),
                         lambda: joint.run_hybrid_bcd(problem, x0, config), problem)
    assert calls["problem.batch_se2"] > 0
    assert calls["nls.build_system"] > 0
    assert calls["problem.residual"] == 0


def test_linear_group_never_calls_the_per_factor_residual():
    rng = np.random.default_rng(4)
    n, m, k = 4, 3, 20
    spec = ManifoldSpec((euclidean_block("x", n),))
    factors = (linear_set("x", rng.normal(size=(k, m, n)), rng.normal(size=(k, m)), "g"),)
    problem = JointProblem(spec, factors, (NoiseGroup("g", m, "ml"),))
    x0 = ManifoldPoint(spec, (np.zeros(n),))
    calls = traced_calls(load_tracer(),
                         lambda: joint.run_block_exact_bcd(problem, x0), problem)
    assert calls["nls.build_system"] > 0
    assert calls["problem.group_residuals"] > 0
    assert calls["problem.residual"] == 0


def two_group_pose_graph():
    noise = io_pgo.SyntheticNoiseSpec({io_pgo.ODOMETRY: np.diag([1000.0, 1000.0, 800.0]),
                                       io_pgo.LOOP: np.diag([100.0, 100.0, 200.0])},
                                      seed=5)
    graph, _ = io_pgo.generate_manhattan_like(30, "nearby", noise, trajectory_seed=1)
    groups = [NoiseGroup(kind, 3, "ml-eig", bounds=(1e-4, 1e4))
              for kind in (io_pgo.ODOMETRY, io_pgo.LOOP)]
    return io_pgo.pose_graph_problem(graph, groups), io_pgo.spanning_tree_init(graph)


def test_elimination_evaluates_each_point_once():
    problem, x0 = two_group_pose_graph()
    se2_batches = sum(len(b) for b in problem.batches.values())
    assert se2_batches == 2
    config = joint.JointConfig(algorithm=joint.ELIMINATION, max_outer_iterations=3)
    calls = traced_calls(load_tracer(),
                         lambda: joint.run_elimination(problem, x0, config), problem)
    assert calls["joint.reduced_eval"] > 0
    assert calls["problem.batch_se2"] == se2_batches * calls["joint.reduced_eval"]
    assert calls["problem.group_residuals"] == 0


def test_hybrid_evaluates_each_point_once():
    # beyond the LM trial costs, one residual pass per group at the initial
    # point: each x-step's P update reuses its accepted trial's residuals
    problem, x0 = two_group_pose_graph()
    config = joint.JointConfig(algorithm=joint.HYBRID_BCD, max_outer_iterations=3)
    results = []
    calls = traced_calls(load_tracer(),
                         lambda: results.append(joint.run_hybrid_bcd(problem, x0, config)),
                         problem)
    (result,) = results
    assert calls["nls.weighted_cost"] > 0
    assert calls["problem.group_residuals"] == len(problem.groups) * (
        calls["nls.weighted_cost"] + 1)


def test_pose_trig_is_computed_once_per_point(monkeypatch):
    # one reduced evaluation and a residual pass at the same point take the
    # cosine and sine of the pose angles once, however many batches read them
    problem, x0 = two_group_pose_graph()
    assert sum(len(b) for b in problem.batches.values()) == 2
    x = boxplus(x0, np.random.default_rng(6).normal(scale=0.01,
                                                    size=problem.manifold.tangent_dim))
    angles = x.poses[:, 2]
    calls = []
    for name in ("cos", "sin"):
        def counting(arg, *args, _name=name, _original=getattr(np, name), **kwargs):
            values = np.asarray(arg)
            if values.size and np.isin(values, angles).all():
                calls.append(_name)
            return _original(arg, *args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    joint._reduced_value_and_grad(problem, x)
    for g in problem.groups:
        group_residuals(problem, x, g.group_id)
    assert sorted(calls) == ["cos", "sin"]


def test_spanning_tree_composes_once_per_level(monkeypatch):
    # the breadth-first search composes a whole level of poses per call,
    # not one pose per call
    graph, _ = io_pgo.generate_manhattan_like(300, "nearby", None, trajectory_seed=1)
    neighbours = {v: [] for v in range(graph.num_poses)}
    for e in graph.edges:
        neighbours[e.i].append(e.j)
        neighbours[e.j].append(e.i)
    level, queue = {0: 0}, deque([0])
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    depth = max(level.values())
    calls = []

    def counting(*args, _original=manifold._compose):
        calls.append(1)
        return _original(*args)
    monkeypatch.setattr(manifold, "_compose", counting)
    io_pgo.spanning_tree_init(graph)
    assert 0 < len(calls) <= depth + 1 < graph.num_poses // 2
