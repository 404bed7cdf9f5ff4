"""Layer tracing from outside the library.

The tracer replaces each named library function, at every ``jointcov``
module that binds it, with a wrapper that times the call.  Nested calls
form a span stack, so each layer's self time is its duration minus the
time its child spans cover.  Only per-layer aggregates (calls, total and
self seconds) are kept, never one record per call: linear-mc calls
``residual`` about 510k times per study.

Nothing is patched while the tracer is not installed, so untraced runs
execute the library unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _iterations(result):
    return result.iterations


# (layer name, "module:attribute" targets, tally) where a tally
# (counter, fn(result) -> number) adds to a counter on every return.
LAYERS = (
    ("manifold.boxplus", ("jointcov.manifold:boxplus",), None),
    ("problem.batch_se2", ("jointcov.problem:_batch_relative_se2",), None),
    ("problem.group_residuals", ("jointcov.problem:group_residuals",), None),
    ("problem.sample_covariance", ("jointcov.problem:sample_covariance",), None),
    ("problem.residual", ("jointcov.problem:residual",), None),
    ("nls.build_system", ("jointcov.nls:build_system",),
     ("nls.hessian_builds", lambda system: system.hessian is not None)),
    ("nls.solve_damped", ("jointcov.nls:LinearizedSystem.solve_damped",), None),
    ("nls.weighted_cost", ("jointcov.nls:weighted_cost",), None),
    ("nls.solve_fixed_P", ("jointcov.nls:solve_fixed_P",), None),
    ("covariance.jacobi_eigh", ("jointcov.covariance:jacobi_eigh",), None),
    ("covariance.diagnose_singularity",
     ("jointcov.covariance:diagnose_singularity",), None),
    ("covariance.solve_inner", ("jointcov.covariance:solve_inner",), None),
    ("covariance.inner_objective", ("jointcov.covariance:inner_objective",), None),
    ("joint.information_update", ("jointcov.joint:information_update",), None),
    ("joint.joint_objective", ("jointcov.joint:joint_objective",), None),
    ("joint.reduced_eval", ("jointcov.joint:_reduced_value_and_grad",), None),
    ("joint.elimination", ("jointcov.joint:run_elimination",),
     ("joint.lbfgs_iterations", _iterations)),
    ("joint.bcd", ("jointcov.joint:run_hybrid_bcd",
                   "jointcov.joint:run_block_exact_bcd"),
     ("joint.bcd_iterations", _iterations)),
    ("io_pgo.generate_manhattan_like", ("jointcov.io_pgo:generate_manhattan_like",), None),
    ("io_pgo.pose_graph_problem", ("jointcov.io_pgo:pose_graph_problem",), None),
    ("io_pgo.spanning_tree_init", ("jointcov.io_pgo:spanning_tree_init",), None),
    ("harness.run_linear_mc", ("jointcov.harness:run_linear_mc",), None),
    ("harness.wasserstein2", ("jointcov.harness:wasserstein2",), None),
)


def _resolve(target: str):
    """(owner, attribute, original) for a "module:Class.attr" target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _bindings(owner, attr, original):
    """Every place the original is reachable by name inside the package."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if name != "jointcov" and not name.startswith("jointcov."):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
    return found


class Tracer:
    """Self-time tracer over LAYERS; install() patches, uninstall() restores."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        if self._patches:
            raise RuntimeError("reset while installed")
        # per layer: [calls, total seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in LAYERS}
        self.counters = {tally[0]: 0 for _, _, tally in LAYERS if tally}
        self._stack = []  # per open span: [seconds covered by child spans]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, targets, tally in LAYERS:
            for target in targets:
                owner, attr, original = _resolve(target)
                wrapped = self._wrap(name, original, tally)
                for where, key in _bindings(owner, attr, original):
                    self._patches.append((where, key, original))
                    setattr(where, key, wrapped)

    def uninstall(self):
        for where, key, original in reversed(self._patches):
            setattr(where, key, original)
        self._patches = []

    def _wrap(self, name, fn, tally):
        stat = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if tally is not None:
                self.counters[tally[0]] += tally[1](result)
            return result

        return wrapper
