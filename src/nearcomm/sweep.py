"""Sweep experiments over the perturbation strength, persisted as CSV.

Each (epsilon, trial) cell generates an independent almost-commuting pair
from its own random stream and pushes it through the pipeline. Records are
sorted by construction, floats are written with 17 significant digits, and
reruns with the same seed reproduce the file byte for byte apart from the
commented timestamp header.
"""

from __future__ import annotations

import datetime
import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from .ensembles import check_ensemble_params, check_seed, gen_almost_commuting_pair
from .errors import InvalidInputError, NumericalError, PreconditionError
from .pipeline import DEFAULT_OPTIONS, PipelineResult, near_commuting_unitaries


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's parameters: trials pairs of dimension n and gap delta per epsilon, from seed.

    It names no file: run_sweep returns the records, and write_records
    persists them under the path its caller gives.
    """

    n: int
    delta: float
    epsilons: tuple[float, ...]
    trials: int
    seed: int

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if not eps:
            raise InvalidInputError("epsilons must be non-empty")
        if any(not 0 <= e < math.inf for e in eps):
            raise InvalidInputError("epsilons must be finite and nonnegative")
        if list(eps) != sorted(eps, reverse=True):
            raise InvalidInputError("epsilons must be sorted descending")
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise InvalidInputError(f"trials must be an integer >= 1, got {self.trials}")
        check_ensemble_params(self.n, self.delta)
        check_seed(self.seed)


@dataclass(frozen=True, kw_only=True)
class TrialRecord:
    """One sweep cell; a failed trial keeps the defaults: NaN, order 0, unconverged.

    A measured field has the name of its PipelineResult.flat() key. failure
    is "" for a checked result, else the class name of its error.
    """

    n: int
    seed: int
    delta1: float = math.nan
    delta2: float = math.nan
    eps_target: float
    eps_actual: float
    measured_log_comm: float = math.nan
    predicted_bound: float = math.nan
    herm_dist_a: float = math.nan
    herm_dist_b: float = math.nan
    dist_u: float = math.nan
    dist_v: float = math.nan
    comm_after: float = math.nan
    trunc_order1: int = 0
    trunc_order2: int = 0
    converged: bool = False
    failure: str = ""


CSV_FIELDS = [f.name for f in fields(TrialRecord)]


def _fmt(value) -> str:
    # a bool is an int, so converged prints as 1 or 0
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_records(path: str | os.PathLike, records: list[TrialRecord], config: ExperimentConfig) -> None:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines = [
        f"# nearcomm sweep n={config.n} delta={config.delta} trials={config.trials} "
        f"seed={config.seed} timestamp={stamp}",
        ",".join(CSV_FIELDS),
    ]
    lines += [",".join(_fmt(getattr(rec, name)) for name in CSV_FIELDS) for rec in records]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SweepSummary:
    """Per-epsilon medians of dist_u + dist_v and the log-log distance slope."""

    eps_targets: tuple[float, ...]
    median_eps_actual: tuple[float, ...]
    median_distance: tuple[float, ...]
    slope: float


def _trial_record(
    config: ExperimentConfig, eps: float, eps_actual: float, res: PipelineResult | Exception
) -> TrialRecord:
    """The row of one (epsilon, trial) cell; a failed trial (res its error) measures nothing."""
    if isinstance(res, Exception):
        measured = {"failure": type(res).__name__}
    else:
        measured = {k: v for k, v in res.flat().items() if k in CSV_FIELDS and k != "n"}
    return TrialRecord(
        n=config.n, seed=config.seed, eps_target=eps, eps_actual=eps_actual, **measured
    )


def run_sweep(config: ExperimentConfig) -> list[TrialRecord]:
    """All (epsilon, trial) cells through the pipeline, in deterministic order.

    The pipeline runs with its default options. Failed trials are recorded
    with NaN measurements and the error's class name rather than aborting
    the sweep. Nothing is written; write_records persists the records as CSV.
    """
    records: list[TrialRecord] = []
    for i, eps in enumerate(config.epsilons):
        for t in range(config.trials):
            eps_actual = math.nan
            try:
                u, v, eps_actual = gen_almost_commuting_pair(
                    config.n, config.delta, eps, config.seed, i, t
                )
                res = near_commuting_unitaries(u, v, DEFAULT_OPTIONS)
            except (PreconditionError, InvalidInputError, NumericalError,
                    np.linalg.LinAlgError) as exc:
                res = exc
            records.append(_trial_record(config, eps, eps_actual, res))
    return records


def summarize(records: list[TrialRecord]) -> SweepSummary:
    """Medians per epsilon target plus a least-squares log-log slope.

    The slope regresses log(median distance) on log(median eps_actual) over
    the strictly positive epsilon groups; NaN when fewer than two usable
    groups exist.
    """
    groups: dict[float, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault(rec.eps_target, []).append(rec)
    eps_sorted = sorted(groups, reverse=True)
    med_eps, med_dist = [], []
    for eps in eps_sorted:
        ok = [r for r in groups[eps] if math.isfinite(r.dist_u) and math.isfinite(r.dist_v)]
        if ok:
            med_eps.append(float(np.median([r.eps_actual for r in ok])))
            med_dist.append(float(np.median([r.dist_u + r.dist_v for r in ok])))
        else:
            med_eps.append(float("nan"))
            med_dist.append(float("nan"))
    xs = [
        (math.log(e), math.log(d))
        for e, d in zip(med_eps, med_dist)
        if e > 0 and d > 0 and math.isfinite(e) and math.isfinite(d)
    ]
    if len(xs) >= 2:
        lx = np.array([p[0] for p in xs])
        ly = np.array([p[1] for p in xs])
        slope = float(np.polyfit(lx, ly, 1)[0])
    else:
        slope = float("nan")
    return SweepSummary(
        eps_targets=tuple(eps_sorted),
        median_eps_actual=tuple(med_eps),
        median_distance=tuple(med_dist),
        slope=slope,
    )
