"""Nearest commuting Hermitian pair via joint approximate diagonalization.

The iteration starts from the eigenbasis of A + phi*B with a fixed
irrational weight phi = sqrt(2) - 1 (Bunse-Gerstner, Byers & Mehrmann
1993), then takes unitary steps that drive both matrices toward a common
diagonal basis by lowering their summed squared off-diagonal moduli, off.
Each step, called a sweep, updates every (p, q) plane at once: it solves
the first-order model of off for all planes simultaneously, as FFDiag does
(Ziehe, Laskov, Nolte & Mueller, JMLR 5:777, 2004), and keeps the step on
the unitary group through a Cayley transform, with a halving line search
so that off never rises (Absil, Mahony & Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008, ch. 4). A sweep costs one linear
solve and a few n x n products, whatever n is. The diagonal parts in the
final basis commute exactly, whatever the convergence status, so the
output pair always satisfies the commuting contract; it is handed on as
that basis and the two real diagonals, never as dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import HermitianMatrix, _frozen, operator_norm

# weight phi of B in the warm-start matrix A + phi*B: fixed, so runs are
# deterministic; irrational, so for rational spectra a + phi*b = a' + phi*b'
# only when a = a' and b = b'
_WARM_START_WEIGHT = 2.0**0.5 - 1.0

# line-search bound: a step halved this often that still raises off is
# below rounding, so the iteration stops there instead of halving on
_MAX_HALVINGS = 8

# relative-improvement stop: the iteration is converged when the next step's
# predicted decrease of off is at most this fraction of off, plus a floor
_REL_IMPROVEMENT_TOL = 1e-12

# sweep budget: an iteration that meets none of its stops within this many
# sweeps is returned flagged unconverged
MAX_SWEEPS = 100


@dataclass(frozen=True)
class CommutingHermitianPair:
    """Exactly commuting pair, in factored form, with its distances.

    basis is the common eigenbasis Q and diag_a, diag_b the real diagonals
    of Q^H A Q and Q^H B Q; the pair is A' = Q diag(diag_a) Q^H and
    B' = Q diag(diag_b) Q^H, whose commutator vanishes to rounding, and
    dist_a = |A' - A|, dist_b = |B' - B|. A function of either output is
    that function on its diagonal, in the basis Q.
    off_history records the off-diagonal mass in the warm-start basis,
    then after each sweep; sweeps counts the sweeps taken.
    """

    basis: np.ndarray
    diag_a: np.ndarray
    diag_b: np.ndarray
    dist_a: float
    dist_b: float
    converged: bool
    sweeps: int
    off_history: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", _frozen(self.basis))
        for name in ("diag_a", "diag_b"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.float64))


def _off(w: np.ndarray) -> float:
    """off of the stacked pair w = (A, B): the summed squared moduli of its off-diagonal entries."""
    sq = np.abs(w) ** 2
    for m in sq:
        np.fill_diagonal(m, 0.0)
    return float(sq.sum())


def _newton_generator(wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs first-order generator X and the n x n weights D of its model.

    In the basis where A and B read wa and wb, the step I + X moves the
    (p, q) entries of A and B to first order by Da*x_pq and Db*x_pq, with
    Da = a_pp - a_qq and Db = b_pp - b_qq. Plane by plane,
    x_pq = -(Da*a_pq + Db*b_pq)/D with D = Da^2 + Db^2 minimizes that
    linear model: the numerator is the gradient of off scaled by the
    positive weight 1/D, so X is a descent direction, and the model
    predicts the decrease sum D |X|^2 = 2 sum_{p<q} D |x_pq|^2. A tied
    plane (D = 0) gets x_pq = 0; a near tie, where the linear model fails,
    is capped at |x_pq| <= 1 by a positive scaling that keeps both
    properties. X = x - x^H takes x from the planes p < q only, as a pair
    after a Cayley step is Hermitian only to rounding.
    """
    a, b = wa.diagonal().real, wb.diagonal().real
    da, db = a[:, None] - a, b[:, None] - b
    d = da**2 + db**2
    x = -(da * wa + db * wb) / np.where(d > 0, d, 1.0)
    x = np.triu(x / np.maximum(np.abs(x), 1.0), 1)
    return x - x.conj().T, d


def nearest_commuting_pair(a, b) -> CommutingHermitianPair:
    """Exactly commuting Hermitian pair (A', B') near Hermitian (A, B).

    A and B are taken by HermitianMatrix.of. Sweeps, started from the
    eigenbasis of A + phi*B, rotate toward a joint near-diagonalizer Q. A
    sweep takes the generator X of _newton_generator and the Cayley factor
    G = (I - X/2)^{-1}(I + X/2), which is unitary with rotation angles
    below pi, and maps the basis Q to QG; X is halved until off does not
    rise, at most _MAX_HALVINGS times. A' and B' are the diagonal parts in
    the final basis, returned in factored form as Q and the two real
    diagonals; each distance is measured on Q diag(d) Q^H. For commuting
    inputs with simple spectrum this reproduces the pair to rounding. The
    iteration is converged when no halving lowers off, or when the next
    step's predicted decrease P = 2 sum_{p<q} D |x_pq|^2 is at most
    _REL_IMPROVEMENT_TOL * off + floor, floor = 1e-30 max(|A|_F^2 + |B|_F^2, 1).
    That one test also stops an off at or below floor: x_pq = -(Da*a_pq +
    Db*b_pq)/D is only ever scaled down, so by Cauchy-Schwarz D |x_pq|^2 <=
    |a_pq|^2 + |b_pq|^2, and P <= 2 sum_{p<q} (|a_pq|^2 + |b_pq|^2), which
    is off for an exactly Hermitian pair. If MAX_SWEEPS sweeps run out
    first, the result is flagged unconverged but still commutes exactly.
    """
    ma, mb = (HermitianMatrix.of(m).mat for m in (a, b))
    if ma.shape != mb.shape:
        raise InvalidInputError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    n = ma.shape[0]

    _, basis = np.linalg.eigh(ma + _WARM_START_WEIGHT * mb)
    w = basis.conj().T @ np.stack((ma, mb)) @ basis
    eye = np.eye(n)
    scale = float(np.sum(np.abs(ma) ** 2) + np.sum(np.abs(mb) ** 2))
    floor = 1e-30 * max(scale, 1.0)

    history = [_off(w)]
    converged = False
    while len(history) <= MAX_SWEEPS:
        prev = history[-1]
        x, d = _newton_generator(*w)
        predicted = float(np.sum(d * np.abs(x) ** 2))
        if predicted <= _REL_IMPROVEMENT_TOL * prev + floor:
            converged = True
            break
        for _ in range(_MAX_HALVINGS):
            g = np.linalg.solve(eye - x / 2.0, eye + x / 2.0)
            trial = g.conj().T @ w @ g
            cur = _off(trial)
            if cur <= prev:
                break
            x = x / 2.0
        else:
            # no halving lowers off: the remaining decrease is below rounding
            converged = True
            break
        w = trial
        basis = basis @ g
        history.append(cur)

    diag_a, diag_b = w.diagonal(axis1=1, axis2=2).real
    return CommutingHermitianPair(
        basis=basis,
        diag_a=diag_a,
        diag_b=diag_b,
        dist_a=operator_norm((basis * diag_a) @ basis.conj().T - ma),
        dist_b=operator_norm((basis * diag_b) @ basis.conj().T - mb),
        converged=converged,
        sweeps=len(history) - 1,
        off_history=tuple(history),
    )
