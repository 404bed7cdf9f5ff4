"""Self-test of the benchmark at reduced size (300 poses, 2 linear trials).

    python3 bench/selftest.py

Checks that every workload, traced and untraced, prints a last line with
every metric BENCHMARK.json names and its unit; that a corrupted reference
output is caught; that the linear elimination/BCD gap check has the
documented tolerances; that the recorded references cover the documented
seeds; and that the benchmark refuses to run without the library sources.
"""

import json
import math
import shutil
import subprocess
import sys

from run import BENCH, ROOT, SRC, WORKLOAD_NAMES, cap_blas_threads


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOAD_NAMES:
            proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--size", "small"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics with units")


def check_corrupted_references():
    import workloads
    for wl in workloads.WORKLOADS.values():
        inst = wl.setup(wl.default_seed, workloads.SMALL)
        out = wl.solve(inst)
        reference = wl.summary(out)
        assert wl.check(inst, out, reference)[1] == [], wl.name
        key = next(iter(reference))
        corrupted = dict(reference)
        if isinstance(corrupted[key], list):          # linear-mc: [F, iterations]
            corrupted[key] = [corrupted[key][0] * (1 + 1e-8), corrupted[key][1]]
        else:                                         # pgo: F shifted by 10x rtol
            corrupted["F"] = reference["F"] * (1 + 1e-8)
        assert len(wl.check(inst, out, corrupted)[1]) == 1, wl.name
        if "iterations" in reference:
            assert wl.check(inst, out, dict(reference, iterations=reference[
                "iterations"] + 1))[1], wl.name
        print(f"ok: {wl.name}: corrupted reference caught")


def check_linear_gap():
    """|F_elim - F_bcd| <= 1e-6, and BCD up to 1e-5 above where it was capped."""
    import workloads
    from jointcov import harness
    config = workloads.WORKLOADS["linear-mc"].setup(0, workloads.SMALL)

    def failures(bcd_gap, bcd_iters):
        records = [harness.TrialRecord("linear-mc", trial, 0, algorithm, level,
                                       None, None, None, 1.0, 5, None)
                   for level in config.noise_grid for trial in range(config.trials)
                   for algorithm in harness.LINEAR_ALGORITHMS]
        bcd = next(r for r in records if r.algorithm == "bcd")
        bcd.final_F, bcd.iters = 1.0 + bcd_gap, bcd_iters
        return len(workloads.WORKLOADS["linear-mc"].check(config, records, None)[1])

    cap = config.bcd_iterations
    assert failures(5e-7, 5) == 0 and failures(-5e-7, 5) == 0
    assert failures(2e-6, 5) == 2 and failures(-2e-6, 5) == 2
    assert failures(2e-6, cap) == 0 and failures(-2e-6, cap) == 2
    assert failures(2e-5, cap) == 2
    print("ok: linear elimination/BCD gap tolerances")


def check_reference_coverage():
    import workloads
    references = json.loads((BENCH / "references.json").read_text())
    for wl in workloads.WORKLOADS.values():
        for first in (wl.default_seed, workloads.HOLDOUT_SEED):
            for seed in range(first, first + wl.instances):
                assert str(seed) in references[wl.name], (wl.name, seed)
    print("ok: references cover the default and holdout seeds")


def check_refuses_without_sources():
    bare = BENCH / ".selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "bench")
        proc = run_bench(["--workload", "pgo-hybrid", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses to run without the library sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    check_reference_coverage()
    check_corrupted_references()
    check_linear_gap()
    check_refuses_without_sources()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
