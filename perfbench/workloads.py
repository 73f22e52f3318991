"""The benchmark workloads: input generation, the timed call and its output checks.

Set-up builds a fixed pool of inputs from the workload seed; the timed loop
cycles through the pool. A pool holds several inputs of each kind, so that
the figures depend little on which inputs a seed draws, and is small enough
for a run to cover it more than twice. Each call's outcome is checked after its timer
stops, with numpy and the eigendecomposition log as references.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nearcomm.cli
import nearcomm.mtxc
from nearcomm.ensembles import gen_almost_commuting_pair, gen_gapped_unitary, gen_voiculescu_pair
from nearcomm.errors import GapTooSmallError
from nearcomm.gapped_log import direct_log
from nearcomm.linalg import UnitaryMatrix
from nearcomm.pipeline import PipelineOptions, near_commuting_unitaries

PAIR_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
MIXED_EPS = (1e-1, 1e-3, 0.0)  # every fourth mixed input is the clock/shift pair
MIXED_OPTIONS = PipelineOptions(min_gap=0.3)
CLOCK_SHIFT_N = 16  # gap half-width pi/16 < 0.3, so min_gap rejects it
LOG_TARGET = 1e-6


@dataclass
class Case:
    kind: str  # "pair" (must succeed), "reject" (must raise GapTooSmallError) or "log"
    u: UnitaryMatrix  # as the ensemble generator returned it
    v: UnitaryMatrix | None = None
    eps: float = 0.0  # perturbation size the pair was generated with
    comm: float = 0.0  # ||[U, V]|| of a pair
    path: Path | None = None  # MTXC input of a log call
    out: Path | None = None  # MTXC output of a log call


@dataclass
class Checked:
    problems: list[str]
    dist_ratio: float | None = None  # (dist_u + dist_v) / (||[U, V]|| / 2)
    err_over_tail: float | None = None  # ||H - direct log|| / certified tail


@dataclass(frozen=True)
class Workload:
    name: str
    root: str  # span name of the entry point the call enters
    make: Callable[[int, bool, Path], list[Case]]
    call: Callable[[Case], object]

    def generate(self, seed: int, smoke: bool, workdir: Path) -> tuple[list[Case], float]:
        """The input pool with its MTXC files written, and generation seconds per input."""
        start = time.perf_counter()
        cases = self.make(seed, smoke, workdir)
        gen_s = (time.perf_counter() - start) / len(cases)
        for case in cases:
            if case.path is not None:
                nearcomm.mtxc.write(case.path, case.u)
        return cases, gen_s

    @staticmethod
    def check(case: Case, outcome) -> Checked:
        """Verify one call's outcome; an exception is the outcome of a call that raised."""
        if case.kind == "reject":
            if type(outcome) is GapTooSmallError:
                return Checked([])
            got = type(outcome).__name__ if isinstance(outcome, Exception) else "a result"
            return Checked([f"expected GapTooSmallError, got {got}"])
        if isinstance(outcome, Exception):
            return Checked([f"raised {type(outcome).__name__}: {outcome}"])
        if case.kind == "log":
            return _check_log(case, outcome)
        return _check_pair(case, outcome)


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, ord=2))


def _pair_case(n: int, eps: float, seed: int, i: int) -> Case:
    u, v, _ = gen_almost_commuting_pair(n, 1.0, eps, seed, i)
    return Case("pair", u, v, eps=eps, comm=_norm(u.mat @ v.mat - v.mat @ u.mat))


def _gen_pair(seed: int, smoke: bool, workdir: Path) -> list[Case]:
    n, size = (6, 4) if smoke else (32, 32)
    return [_pair_case(n, PAIR_EPS[i % 4], seed, i) for i in range(size)]


def _gen_mixed(seed: int, smoke: bool, workdir: Path) -> list[Case]:
    n, size = (6, 4) if smoke else (16, 64)
    cases = []
    for i in range(size):
        if i % 4 < 3:
            cases.append(_pair_case(n, MIXED_EPS[i % 4], seed, i))
        else:
            u, v = gen_voiculescu_pair(CLOCK_SHIFT_N)
            cases.append(Case("reject", u, v))
    return cases


def _gen_log(seed: int, smoke: bool, workdir: Path) -> list[Case]:
    n, size = (12, 2) if smoke else (128, 8)
    return [
        Case("log", gen_gapped_unitary(n, 0.25, seed, i),
             path=workdir / f"u{i}.mtxc", out=workdir / f"h{i}.mtxc")
        for i in range(size)
    ]


def _call_pair(case: Case):
    return near_commuting_unitaries(case.u, case.v)


def _call_mixed(case: Case):
    return near_commuting_unitaries(case.u, case.v, MIXED_OPTIONS)


def _call_log(case: Case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = nearcomm.cli.main(
            ["log", str(case.path), "--target", str(LOG_TARGET), "--out", str(case.out)]
        )
    return code, buf.getvalue()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pair-n32", "pipeline.near_commuting_unitaries", _gen_pair, _call_pair),
        Workload("log-n128", "cli.main", _gen_log, _call_log),
        Workload("mixed-n16", "pipeline.near_commuting_unitaries", _gen_mixed, _call_mixed),
    )
}


def _check_pair(case: Case, r) -> Checked:
    n = case.u.n
    x, y = r.x.mat, r.y.mat
    eye = np.eye(n)
    problems = []
    comm_after = _norm(x @ y - y @ x)
    if not comm_after <= 1e-10 * n:
        problems.append(f"||[X, Y]|| = {comm_after:.3e} above 1e-10*n")
    for name, m in (("X", x), ("Y", y)):
        defect = _norm(m.conj().T @ m - eye)
        if not defect <= 1e-8 * n:
            problems.append(f"unitarity defect of {name} = {defect:.3e} above 1e-8*n")
    # The pipeline's own distance checks allow the same 1e-10*n rounding slack.
    dist_u, dist_v = _norm(x - case.u.mat), _norm(y - case.v.mat)
    if not dist_u <= r.herm_dist_a + r.tail1 + 1e-10 * n:
        problems.append(f"dist_u = {dist_u:.3e} above herm_dist_a + tail1")
    if not dist_v <= r.herm_dist_b + r.tail2 + 1e-10 * n:
        problems.append(f"dist_v = {dist_v:.3e} above herm_dist_b + tail2")
    # [U,V] = [U-X, V] + [X, V-Y] + [X, Y] bounds ||[U,V]|| for any pair X, Y.
    if case.comm > 2.0 * (dist_u + dist_v) + comm_after + 1e-12 * n:
        problems.append("measured distances contradict ||[U,V]|| <= 2(dist_u + dist_v)")
    ratio = (dist_u + dist_v) / (case.comm / 2.0) if case.eps > 0 else None
    return Checked(problems, dist_ratio=ratio)


def _check_log(case: Case, outcome) -> Checked:
    code, text = outcome
    if code != 0:
        return Checked([f"nearcomm log exited {code}: {text.strip()[-200:]}"])
    try:
        kv = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        tail, zeta = float(kv["tail"]), float(kv["zeta"])
        h = nearcomm.mtxc.read(case.out)
    except (KeyError, ValueError, OSError) as exc:
        return Checked([f"unreadable nearcomm log output: {exc!r}"])
    err = _norm(h - direct_log(np.exp(-1j * zeta) * case.u.mat).mat)
    problems = []
    if not tail <= LOG_TARGET:
        problems.append(f"certified tail {tail:.3e} above target {LOG_TARGET:.0e}")
    if not err <= tail:
        problems.append(f"||H - direct_log|| = {err:.3e} above certified tail {tail:.3e}")
    return Checked(problems, err_over_tail=err / tail)

