"""Spans around nearcomm's layer boundaries, recorded from outside the package.

A Tracer replaces selected functions, under the names the calling modules
look them up by, with wrappers that record one span per call: name, start,
end, parent span and the benchmark call it belongs to. The originals are put
back when the `installed()` block exits, so untraced calls run the package
unmodified. Spans stay in memory; per-layer figures are derived from them
afterwards, a span's self time being its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

import scipy.linalg

SCHUR = "scipy.linalg.schur"
EIGENSYSTEM = "spectral.unitary_eigensystem"
CENTER_GAP = "spectral.center_gap"
TRUNCATION = "gapped_log.certified_truncation"
SERIES = "gapped_log.gapped_log"
COEFFS = "gapped_log.laurent_coefficients"
JD = "jointdiag.nearest_commuting_pair"
HERM_EXP = "linalg.herm_exp"
NORMS = ("linalg.operator_norm", "linalg.unitarity_defect", "linalg.hermiticity_defect")
PIPELINE = "pipeline.near_commuting_unitaries"
CLI = "cli.main"


def _series_info(result):
    return {"n": result[0].n, "K": result[1].trunc_order}


def _jd_info(result):
    return {"n": result.basis.shape[0], "sweeps": result.sweeps, "converged": result.converged}


def _targets():
    """(owner, attribute, span name, describe) for every wrapped lookup.

    describe, where given, adds work counts read from the call's result.
    """
    # The package re-exports the function gapped_log under its module's name,
    # so the modules are looked up by their full names.
    pl, gl, sp, cli, jd, la, ens, mtxc = (
        importlib.import_module(f"nearcomm.{m}")
        for m in ("pipeline", "gapped_log", "spectral", "cli", "jointdiag", "linalg",
                  "ensembles", "mtxc")
    )
    out = [
        (pl, "center_gap", CENTER_GAP, None),
        (pl, "certified_truncation", TRUNCATION, None),
        (pl, "gapped_log", SERIES, _series_info),
        (pl, "nearest_commuting_pair", JD, _jd_info),
        (pl, "herm_exp", HERM_EXP, None),
        (pl, "commutator", "linalg.commutator", None),
        (cli, "center_gap", CENTER_GAP, None),
        (cli, "certified_truncation", TRUNCATION, None),
        (cli, "gapped_log", SERIES, _series_info),
        (gl, "unitary_eigensystem", EIGENSYSTEM, None),
        (gl, "laurent_coefficients", COEFFS, None),
        (sp, "unitary_eigensystem", EIGENSYSTEM, None),
        (mtxc, "read", "mtxc.read", None),
        (mtxc, "write", "mtxc.write", None),
        (scipy.linalg, "schur", SCHUR, None),
    ]
    # The SVD-based norms are wrapped at every module that binds them.
    for span in NORMS:
        attr = span.split(".")[1]
        original = getattr(la, attr)
        out += [(m, attr, span, None) for m in (pl, gl, sp, jd, la, ens)
                if getattr(m, attr, None) is original]
    return out


class Tracer:
    """In-memory span recorder for benchmark calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._call = -1

    def _run(self, name, fn, args, kwargs, describe):
        span = {"name": name, "parent": self._stack[-1] if self._stack else -1, "call": self._call}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["raised"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if describe is not None:
            span.update(describe(result))
        return result

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._run(name, fn, args, kwargs, describe)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, describe in _targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, describe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, call_id: int, root: str, fn, *args):
        """fn(*args) with every target wrapped, recorded as root span `root`."""
        self._call = call_id
        try:
            with self.installed():
                return self._run(root, fn, args, {}, None)
        finally:
            self._call = -1


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def call_counts(spans: list[dict]) -> dict[str, int]:
    """Work counts of the spans of one call; they repeat exactly for the same input."""
    names = Counter(s["name"] for s in spans)
    series = [s for s in spans if s["name"] == SERIES and "K" in s]
    jd = [s for s in spans if s["name"] == JD and "sweeps" in s]
    return {
        "schur_calls": names[SCHUR],
        "norm_calls": sum(names[n] for n in NORMS),
        "series_matmuls": sum(s["K"] for s in series),
        "coeff_rounds": names[COEFFS],
        "sweeps": sum(s["sweeps"] for s in jd),
        # a cyclic Jacobi sweep visits each of the n(n-1)/2 index pairs once
        "rotations": sum(s["sweeps"] * s["n"] * (s["n"] - 1) // 2 for s in jd),
    }


def layer_metrics(spans: list[dict], calls: int) -> dict[str, float]:
    """Per-call means of the per-layer figures over `calls` traced calls."""
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        dur[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += t
    names = Counter(s["name"] for s in spans)
    counts = call_counts(spans)
    series = [s for s in spans if s["name"] == SERIES and "K" in s]
    jd = [s for s in spans if s["name"] == JD and "sweeps" in s]
    rejects = [s for s in spans if s["name"] == PIPELINE and s.get("raised") == "GapTooSmallError"]
    flops = sum(8.0 * s["n"] ** 3 * s["K"] for s in series)

    def per_call(x):
        return x / calls

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "jointdiag.jd_s": per_call(dur[JD]),
        "jointdiag.sweeps": per_call(counts["sweeps"]),
        "jointdiag.rotations": per_call(counts["rotations"]),
        "jointdiag.us_per_rotation": ratio(1e6 * own[JD], counts["rotations"]),
        "jointdiag.unconverged_frac": ratio(sum(not s["converged"] for s in jd), len(jd)),
        "gapped_log.series_self_s": per_call(own[SERIES]),
        "gapped_log.series_matmuls": per_call(counts["series_matmuls"]),
        "gapped_log.series_gflops": ratio(flops / 1e9, own[SERIES]),
        "gapped_log.coeff_rounds": ratio(names[COEFFS], names[SERIES]),
        "gapped_log.certified_truncation_s": per_call(dur[TRUNCATION]),
        "spectral.center_gap_s": per_call(dur[CENTER_GAP]),
        "spectral.schur_calls": per_call(names[SCHUR]),
        "spectral.schur_s": per_call(dur[SCHUR]),
        "spectral.eigensystem_self_s": per_call(own[EIGENSYSTEM]),
        "linalg.herm_exp_s": per_call(dur[HERM_EXP]),
        "linalg.herm_exp_calls": per_call(names[HERM_EXP]),
        "linalg.norm_calls": per_call(counts["norm_calls"]),
        "linalg.norm_s": per_call(sum(dur[n] for n in NORMS)),
        "mtxc.read_s": per_call(dur["mtxc.read"]),
        "mtxc.write_s": per_call(dur["mtxc.write"]),
        "cli.self_s": per_call(own[CLI]),
        "pipeline.self_s": per_call(own[PIPELINE]),
        "pipeline.reject_s": ratio(sum(s["end"] - s["start"] for s in rejects), len(rejects)),
    }
