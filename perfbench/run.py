"""Closed-loop benchmark of nearcomm's public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One caller in one process waits for each result before sending the next
input, as a library user or the CLI does. Workloads (see BENCHMARK.json for
why each was chosen):

  pair-n32   near_commuting_unitaries on n=32 pairs, eps cycling 1e-1..1e-4
  log-n128   in-process `nearcomm log` on n=128 gapped unitaries in MTXC files
  mixed-n16  near_commuting_unitaries(min_gap=0.3) on n=16 pairs at eps 1e-1,
             1e-3 and 0, and on the clock/shift pair, which must be rejected

mixed-n16 is not listed in BENCHMARK.json: on a shared 2-vCPU machine whose
speed switches between two states about 1.5x apart for seconds to minutes at
a time, the quartile spread of its median latency over sets of 5 to 10 runs
of 30 s was 0.26-0.39 of the median (0.18 with 60 s runs), beyond any bound
the benchmark may set. It stays runnable, and in the smoke tests, for its
reject path and its exactly commuting inputs.

Set-up is the import plus the median of five timed rounds of input
generation from --seed, MTXC writing and one warm-up call.
The timed loop cycles through the input pool until the calls have taken
--seconds, and always completes one full pass. Every outcome is checked
after its timer stops; a check that fails counts the call as failed.

--trace 0 prints the end-to-end metrics. --trace 1 traces every call for at
least two passes, running each input untraced too in the first pass to give
the tracing overhead. It prints the per-layer metrics derived from the spans
(means per traced call), checks that the exact work counts repeat for every
input, and writes the spans to .perfbench-out/. A per-layer metric of a
layer the workload never reaches reads 0. dist_ratio_p50 has no meaning on
log-n128, which returns no pair, and reads 1 there.
--smoke runs the same paths on tiny inputs for the benchmark's own tests.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. BLAS runs with the thread count the
environment gives it; that count is recorded with the other environment
details on the line before.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
MIN_BEYOND_TAIL = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pair-n32", "log-n128", "mixed-n16"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return p.parse_args(argv)


def openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                found[Path(path).name] = int(getattr(lib, sym)())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def tail_latency(latencies: list[float]) -> tuple[int, float]:
    """(percentile, value) at the highest whole percentile with >= 10 samples beyond it.

    The percentile follows the sample count smoothly, so runs with slightly
    different counts report nearby points of the same distribution. Below 20
    samples it falls back to the median.
    """
    pct = max(50, math.floor(100.0 * (1.0 - MIN_BEYOND_TAIL / len(latencies))))
    if len(latencies) < 2:
        return pct, latencies[0]
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


class Runner:
    """Times calls of one workload over its input pool and checks each outcome."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.attempted = 0
        self.failures: list[str] = []
        self.first_traceback = ""  # of the first call that raised and failed its check
        self.first_pass: dict[int, object] = {}

    def call(self, index: int, tracer=None, call_id: int = -1):
        """One timed call of pool entry `index`; returns (seconds, checked outcome)."""
        case = self.cases[index]
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = self.workload.call(case)
            else:
                outcome = tracer.call(call_id, self.workload.root, self.workload.call, case)
        except Exception as exc:  # a call that raised is an outcome to check, not a crash
            outcome = exc
        seconds = time.perf_counter() - start
        self.attempted += 1
        checked = self.workload.check(case, outcome)
        if checked.problems:
            self.failures.append(f"{self.workload.name}[{index}]: {'; '.join(checked.problems)}")
            if isinstance(outcome, Exception) and not self.first_traceback:
                self.first_traceback = "".join(traceback.format_exception(outcome))
        self.first_pass.setdefault(index, checked)
        return seconds, checked


def setup(workload, seed: int, smoke: bool, workdir: Path):
    """Inputs, their MTXC files and one warm-up call: (cases, seconds, gen seconds per input)."""
    start = time.perf_counter()
    cases, gen_s = workload.generate(seed, smoke, workdir)
    workload.call(cases[0])
    return cases, time.perf_counter() - start, gen_s


def run_untraced(runner: Runner, seconds: float, setup_s: float):
    pool = len(runner.cases)
    latencies: list[float] = []
    busy = 0.0
    while len(latencies) < pool or busy < seconds:
        dt, _ = runner.call(len(latencies) % pool)
        latencies.append(dt)
        busy += dt
    pct, tail = tail_latency(latencies)
    ratios = [c.dist_ratio for c in runner.first_pass.values() if c.dist_ratio is not None]
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "calls_per_s": len(latencies) / busy,
        "success_frac": 1.0 - len(runner.failures) / runner.attempted,
        "setup_s": setup_s,
        "dist_ratio_p50": statistics.median(ratios) if ratios else 1.0,
    }
    info = {"samples": len(latencies), "latency_tail_pct": pct, "timed_s": busy,
            "dist_ratio_inputs": len(ratios)}
    return metrics, info, []


def run_traced(runner: Runner, seconds: float, gen_s: float, out_path: Path, env: dict):
    """Traced calls for at least two passes; the first pass also runs each input untraced."""
    import tracing

    tracer = tracing.Tracer()
    pool = len(runner.cases)
    plain = plain_traced = busy = 0.0
    expected: dict[int, dict] = {}
    mismatches: list[str] = []
    err_over_tail: list[float] = []
    calls = 0
    while calls < 2 * pool or busy < seconds:
        index = calls % pool
        if calls < pool:
            dt, _ = runner.call(index)
            plain += dt
            busy += dt
        first = len(tracer.spans)
        dt, checked = runner.call(index, tracer, call_id=calls)
        busy += dt
        if calls < pool:
            plain_traced += dt
        counts = tracing.call_counts(tracer.spans[first:])
        if expected.setdefault(index, counts) != counts:
            mismatches.append(f"input {index}: counts {counts} differ from {expected[index]}")
        if checked.err_over_tail is not None:
            err_over_tail.append(checked.err_over_tail)
        calls += 1
    metrics = tracing.layer_metrics(tracer.spans, calls)
    metrics["gapped_log.err_over_tail"] = statistics.fmean(err_over_tail) if err_over_tail else 0.0
    metrics["ensembles.gen_s"] = gen_s
    metrics["trace.overhead_frac"] = plain_traced / plain - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "spans": tracer.spans}, fh)
    info = {"traced_calls": calls, "timed_s": busy,
            "computed": {"gapped_log.series_gflops": "8 n^3 K / series self time",
                         "jointdiag.rotations": "sweeps * n(n-1)/2"},
            "exact_counts": {i: expected[i] for i in sorted(expected)}, "spans": str(out_path)}
    return metrics, info, mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nearcomm" / "__init__.py").is_file():
        print(f"perfbench: no nearcomm source tree at {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import nearcomm.cli  # pulls in numpy, scipy and every nearcomm module

    import_s = time.perf_counter() - start
    if Path(nearcomm.__file__).resolve().parent != SRC / "nearcomm":
        print(f"perfbench: imported nearcomm from {nearcomm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    declared = declared_metrics(args.trace)
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        setups = [setup(workload, args.seed, args.smoke, Path(tmp)) for _ in range(SETUP_REPEATS)]
        runner = Runner(workload, setups[-1][0])
        if args.trace:
            out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            gen_s = statistics.median(s[2] for s in setups)
            metrics, info, mismatches = run_traced(runner, args.seconds, gen_s, out_path, env)
        else:
            setup_s = import_s + statistics.median(s[1] for s in setups)
            metrics, info, mismatches = run_untraced(runner, args.seconds, setup_s)
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    info = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "pool": len(runner.cases), "import_s": import_s,
            "setup_runs_s": [s[1] for s in setups], "env": env, **info}
    print("perfbench " + json.dumps(info))
    for line in runner.failures[:20] + mismatches:
        print(f"perfbench: {line}", file=sys.stderr)
    print(runner.first_traceback, end="", file=sys.stderr)
    correct = not runner.failures and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
