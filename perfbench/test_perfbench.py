"""Tests of the benchmark itself: smoke runs of every workload and its checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("pair-n32", "log-n128", "mixed-n16")  # every workload run.py accepts


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def workloads():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


def test_declared_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "pair-n32", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_a_wrong_pair_and_a_missing_rejection(workloads, tmp_path):
    from nearcomm.errors import GapTooSmallError
    from nearcomm.linalg import UnitaryMatrix

    wl = workloads.WORKLOADS["mixed-n16"]
    pair, reject = wl.generate(1, True, tmp_path)[0][::3][:2]
    result = wl.call(pair)
    assert wl.check(pair, result).problems == []
    with pytest.raises(GapTooSmallError) as rejected:
        wl.call(reject)
    assert wl.check(reject, rejected.value).problems == []
    # the identity commutes with everything but is far from U
    eye = UnitaryMatrix(np.eye(pair.u.n, dtype=complex), 0.0)
    assert wl.check(pair, dataclasses.replace(result, x=eye)).problems
    assert wl.check(pair, ValueError("boom")).problems
    assert wl.check(reject, result).problems


def test_checks_reject_a_wrong_log(workloads, tmp_path):
    import nearcomm.mtxc

    wl = workloads.WORKLOADS["log-n128"]
    case = wl.generate(1, True, tmp_path)[0][0]
    outcome = wl.call(case)
    assert wl.check(case, outcome).problems == []
    h = nearcomm.mtxc.read(case.out)
    nearcomm.mtxc.write(case.out, h + 1e-3 * np.eye(case.u.n))
    assert wl.check(case, outcome).problems
    case.out.unlink()
    assert wl.check(case, outcome).problems


def test_tracer_restores_every_wrapped_name(workloads):
    import tracing

    targets = tracing._targets()
    before = [getattr(owner, attr) for owner, attr, _, _ in targets]
    with tracing.Tracer().installed():
        assert all(getattr(o, a) is not f for (o, a, _, _), f in zip(targets, before))
    assert [getattr(owner, attr) for owner, attr, _, _ in targets] == before
