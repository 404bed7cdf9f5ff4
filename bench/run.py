"""jointcov benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload pgo-hybrid --seed 1 --seconds 40 --trace 0

A run first sets up its instances (pgo: noise seeds ``--seed`` to
``--seed + 3``; linear-mc: the study of ``--seed``).  A round then solves
each instance once, each solve starting when the previous one returns, and
whole rounds repeat while the next one fits in ``--seconds``.  With
``--trace 0`` the last output line reports the end-to-end metrics
(``setup_s``, ``solve_s``, ``peak_rss_mb``); with ``--trace 1`` each
instance is set up and solved traced, the first of each round also
untraced, and the last line reports the per-layer metrics.  Outputs are
checked on every solve; failed operations are counted in ``failed``
against ``attempted``.  Omit ``--seed`` for the acceptance-criterion
instances; see README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pgo-hybrid", "pgo-elimination", "linear-mc")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 4   # set-ups timed per run (each in a fresh interpreter)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the acceptance-criterion instance)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measurement budget; at least one round runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced instances for selftest.py")
    p.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy loads.

    The library's BLAS work is small (3x3 blocks, L-BFGS vector updates),
    and with two threads on a shared 2-core host the second thread spins
    beside the first: back-to-back solves of one instance spread by 0.20
    (IQR / median) against 0.12 with one thread.  One caller, one thread.
    Returns the usable cores.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS."""
    import ctypes
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found or {var: os.environ[var] for var in BLAS_ENV}


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "jointcov").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": nproc, "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


class Run:
    """The instances of one workload run, and its checked operations."""

    def __init__(self, workload, seed, size, references):
        self.workload, self.size = workload, size
        self.seeds = [seed + i for i in range(workload.instances)]
        self.references = references.get(workload.name, {})
        self.attempted = 0
        self.reference_checked = 0   # operations compared with a reference
        self.failures = []

    def setup(self, instance_seed):
        start = time.perf_counter()
        inst = self.workload.setup(instance_seed, self.size)
        return inst, time.perf_counter() - start

    def solve(self, inst, instance_seed):
        """Solve and check; returns the wall time of the solve alone."""
        start = time.perf_counter()
        try:
            out = self.workload.solve(inst)
        except Exception:
            elapsed = time.perf_counter() - start
            ops = self.workload.ops(self.size)
            self.attempted += ops
            self.failures += [traceback.format_exc(limit=3)] * ops
            return elapsed
        elapsed = time.perf_counter() - start
        reference = self.references.get(str(instance_seed))
        attempted, failures = self.workload.check(inst, out, reference)
        self.attempted += attempted
        if reference is not None:
            self.reference_checked += attempted
        self.failures += [f"instance seed {instance_seed}: {m}" for m in failures]
        return elapsed


def layer_metrics(tracer) -> dict:
    m = {}
    for name, _, _ in LAYERS:
        calls, _, self_s = tracer.stats[name]
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    c = tracer.counters
    outer = c["joint.lbfgs_iterations"] + c["joint.bcd_iterations"]

    def ratio(num, base):
        return num / base if base else 0.0

    m["nls.hessian_builds"] = c["nls.hessian_builds"]
    m["joint.outer_iterations"] = outer
    m["joint.lbfgs_iterations"] = c["joint.lbfgs_iterations"]
    m["nls.factorizations_per_step"] = ratio(m["nls.solve_damped.calls"],
                                             c["nls.hessian_builds"])
    m["problem.residual_evals_per_iter"] = ratio(m["problem.group_residuals.calls"], outer)
    m["joint.evals_per_iter"] = ratio(m["joint.reduced_eval.calls"],
                                      c["joint.lbfgs_iterations"])
    return m


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("calls", "builds", "iterations", "ops_attempted",
                      "ops_reference_checked")):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def import_seconds(workload_name) -> float:
    """Start-up import time of this script, timed in a fresh interpreter."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--workload", workload_name, "--import-probe"],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(run):
    """Build every instance of the run; setup_s is the median set-up.

    SETUP_SAMPLES set-ups are timed (instances in turn), each as the import
    time of a fresh interpreter plus this process's input building.
    """
    instances, samples = {}, []
    for i in range(max(SETUP_SAMPLES, len(run.seeds))):
        instance_seed = run.seeds[i % len(run.seeds)]
        import_s = import_seconds(run.workload.name)
        inst, setup_s = run.setup(instance_seed)
        instances.setdefault(instance_seed, inst)
        samples.append(import_s + setup_s)
    return instances, statistics.median(samples)


def measure(run, seconds):
    """Untraced: whole rounds until the budget would be exceeded.

    A round solves every instance of the run once, so each round weighs the
    same fixed instance set.  Returns setup_s and every solve time.
    """
    deadline = time.perf_counter() + seconds
    instances, setup_s = set_up(run)
    times = []
    while True:
        start = time.perf_counter()
        times += [run.solve(instances[s], s) for s in run.seeds]
        round_s = time.perf_counter() - start
        if time.perf_counter() + round_s > deadline:
            return setup_s, times


def measure_traced(run, seconds):
    """Traced: whole rounds of traced set-up and traced solve per instance.

    The first instance of each round is also solved untraced just before,
    which gives the tracing overhead on the same input.
    """
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    samples, overhead = [], []
    while True:
        round_start = time.perf_counter()
        for i, instance_seed in enumerate(run.seeds):
            tracer.reset()
            tracer.install()
            try:
                inst, _ = run.setup(instance_seed)
            finally:
                tracer.uninstall()
            untraced_s = run.solve(inst, instance_seed) if i == 0 else None
            tracer.install()
            try:
                traced_s = run.solve(inst, instance_seed)
            finally:
                tracer.uninstall()
            if untraced_s is not None:
                overhead.append((untraced_s, traced_s))
            samples.append(layer_metrics(tracer))
        round_s = time.perf_counter() - round_start
        if time.perf_counter() + round_s > deadline:
            return samples, overhead


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jointcov" / "__init__.py").is_file():
        print(f"error: no jointcov sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, scipy and jointcov
    import_s = time.perf_counter() - T_START
    if args.import_probe:
        print(import_s)
        return 0

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    size = workloads.FULL if args.size == "full" else workloads.SMALL
    references = {}
    if size == workloads.FULL:
        references = json.loads((BENCH / "references.json").read_text())
    run = Run(workload, seed, size, references)
    if args.trace:
        samples, overhead = measure_traced(run, args.seconds)
    else:
        setup_s, times = measure(run, args.seconds)

    failed = len(run.failures)
    for message in run.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print("# env " + json.dumps(environment(nproc)))
    if args.trace:
        metrics = {name: statistics.median(s[name] for s in samples)
                   for name in samples[0]}
        untraced_s = statistics.median(u for u, _ in overhead)
        traced_s = statistics.median(t for _, t in overhead)
        metrics["trace.untraced_solve_s"] = untraced_s
        metrics["trace.solve_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["bench.ops_attempted"] = run.attempted
        metrics["bench.ops_reference_checked"] = run.reference_checked
        metrics["bench.failed_share"] = failed / run.attempted
    else:
        metrics = {
            "setup_s": setup_s,
            "solve_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"# {workload.name} seed {seed}: setup_s {metrics['setup_s']:.3f} s, "
              f"solve_s {metrics['solve_s']:.3f} s (median of "
              f"{[round(t, 3) for t in times]}), "
              f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
              f"failed_share {failed}/{run.attempted} = {failed / run.attempted:.4g}, "
              f"{run.reference_checked} of {run.attempted} operations checked "
              "against a recorded reference")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
