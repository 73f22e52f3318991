"""Nearest commuting Hermitian pair via Jacobi joint approximate diagonalization.

The sweep starts from the eigenbasis of A + phi*B with a fixed irrational
weight phi = sqrt(2) - 1 (Bunse-Gerstner, Byers & Mehrmann 1993), then
applies sweeps of 2x2 unitary rotations that drive both matrices toward a
common diagonal basis. Each rotation maximizes, in closed form, the summed
squared diagonals restricted to its (p, q) plane. A sweep is n - 1
round-robin rounds of n/2 disjoint planes (Brent & Luk 1985; n rounds of
(n - 1)/2 for odd n); the angles of a round are found by one batched 3x3
eigensolve and applied as one set of row and column updates. The diagonal
parts in the final basis commute exactly, whatever the convergence status,
so the output pair always satisfies the commuting contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianMatrix,
    ToleranceConfig,
    _frozen,
    as_square_array,
    hermitian_part,
    operator_norm,
)


@dataclass(frozen=True)
class JadeOptions:
    """Sweep control: the sweep limit and the relative-improvement stop.

    A sweep visits every (p, q) plane once, in round-robin rounds of
    disjoint planes.
    """

    max_sweeps: int = 100
    rel_improvement_tol: float = 1e-12

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise InvalidInputError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not self.rel_improvement_tol >= 0:
            raise InvalidInputError("rel_improvement_tol must be nonnegative")


DEFAULT_JADE = JadeOptions()

# weight phi of B in the warm-start matrix A + phi*B: fixed, so runs are
# deterministic; irrational, so for rational spectra a + phi*b = a' + phi*b'
# only when a = a' and b = b'
_WARM_START_WEIGHT = 2.0**0.5 - 1.0


@dataclass(frozen=True)
class CommutingHermitianPair:
    """Exactly commuting pair with its common eigenbasis and distances.

    a_prime = Q diag(Q^H A Q) Q^H and likewise b_prime, so the commutator
    of the outputs vanishes to rounding. off_history records the
    off-diagonal mass in the warm-start basis, then after each sweep.
    """

    a_prime: HermitianMatrix
    b_prime: HermitianMatrix
    basis: np.ndarray
    dist_a: float
    dist_b: float
    converged: bool
    sweeps: int
    off_history: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", _frozen(self.basis))


def off_measure(a, b) -> float:
    """Sum of squared moduli of the off-diagonal entries of both matrices."""
    ma = as_square_array(a, "first matrix")
    mb = as_square_array(b, "second matrix")
    if ma.shape != mb.shape:
        raise InvalidInputError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    mask = ~np.eye(ma.shape[0], dtype=bool)
    return float(np.sum(np.abs(ma[mask]) ** 2) + np.sum(np.abs(mb[mask]) ** 2))


@lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin schedule: rounds of disjoint (p, q) planes, p < q.

    Circle method (Brent & Luk 1985): one index stays fixed while the
    others rotate one seat per round, so n - 1 rounds (n for odd n, which
    gets a dummy index whose pairs are skipped) meet every unordered pair
    exactly once. The index arrays are read-only since the cache shares
    them between calls.
    """
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(seats[: m // 2], reversed(seats[m // 2 :]))
            if max(a, b) < n
        ]
        if pairs:
            p, q = (np.array(idx, dtype=np.intp) for idx in zip(*pairs))
            p.setflags(write=False)
            q.setflags(write=False)
            rounds.append((p, q))
        seats = [seats[0], seats[-1], *seats[1:-1]]
    return tuple(rounds)


def _rotate_round(w: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """Apply the closed-form rotation of every (p[k], q[k]) plane to w in place.

    w stacks A, B and the basis. Each rotation maximizes the summed squared
    diagonals of A and B restricted to its plane (Cardoso & Souloumiac
    1996). A rotation in a disjoint plane leaves the four entries this
    angle reads unchanged, so one batched solve and one set of row and
    column updates equals applying the round one rotation at a time.
    """
    ab = w[:2]
    app, aqq, apq, aqp = ab[:, p, p], ab[:, q, q], ab[:, p, q], ab[:, q, p]
    h = np.stack((app - aqq, apq + aqp, 1j * (aqp - apq)), axis=-1).transpose(1, 2, 0)
    _, vecs = np.linalg.eigh(np.real(h @ h.conj().transpose(0, 2, 1)))
    x, y, z = vecs[:, :, -1].T
    flip = (x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))
    sign = np.where(flip, -1.0, 1.0)
    x, y, z = sign * x, sign * y, sign * z
    c = np.sqrt(0.5 + x / 2.0)
    s = 0.5 * (y - 1j * z) / c

    # rows by G^H and columns by G, with G = [[c, -conj(s)], [s, c]]
    rp, rq = ab[:, p, :], ab[:, q, :]
    ab[:, p, :] = c[:, None] * rp + s.conj()[:, None] * rq
    ab[:, q, :] = c[:, None] * rq - s[:, None] * rp
    cp, cq = w[:, :, p], w[:, :, q]
    w[:, :, p] = c * cp + s * cq
    w[:, :, q] = c * cq - s.conj() * cp


def nearest_commuting_pair(
    a,
    b,
    opts: JadeOptions = DEFAULT_JADE,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CommutingHermitianPair:
    """Exactly commuting Hermitian pair (A', B') near Hermitian (A, B).

    A HermitianMatrix argument is trusted; a plain array is checked by
    HermitianMatrix.from_array. Jacobi sweeps, started from the eigenbasis
    of A + phi*B, rotate toward a joint near-diagonalizer Q; A' and B' are
    the diagonal parts in that basis conjugated back, made exactly
    Hermitian by hermitian_part. For commuting inputs with simple spectrum
    this reproduces the pair to rounding. If max_sweeps is exhausted while
    the objective still improves, the result is flagged unconverged but
    still commutes exactly.
    """
    ma, mb = (
        m.mat if isinstance(m, HermitianMatrix) else HermitianMatrix.from_array(m, tolerances).mat
        for m in (a, b)
    )
    if ma.shape != mb.shape:
        raise InvalidInputError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    n = ma.shape[0]

    _, start = np.linalg.eigh(ma + _WARM_START_WEIGHT * mb)
    w = np.stack((start.conj().T @ ma @ start, start.conj().T @ mb @ start, start))
    wa, wb, basis = w
    scale = float(np.sum(np.abs(ma) ** 2) + np.sum(np.abs(mb) ** 2))
    floor = 1e-30 * max(scale, 1.0)

    history = [off_measure(wa, wb)]
    converged = history[0] <= floor
    sweeps = 0
    while not converged and sweeps < opts.max_sweeps:
        for p, q in _round_robin(n):
            _rotate_round(w, p, q)
        sweeps += 1
        cur = off_measure(wa, wb)
        history.append(cur)
        prev = history[-2]
        if cur <= floor or (prev - cur) <= opts.rel_improvement_tol * max(prev, floor):
            converged = True

    diag_a = np.diag(wa).real
    diag_b = np.diag(wb).real
    a_prime = hermitian_part((basis * diag_a) @ basis.conj().T)
    b_prime = hermitian_part((basis * diag_b) @ basis.conj().T)
    return CommutingHermitianPair(
        a_prime=a_prime,
        b_prime=b_prime,
        basis=basis,
        dist_a=operator_norm(a_prime.mat - ma),
        dist_b=operator_norm(b_prime.mat - mb),
        converged=converged,
        sweeps=sweeps,
        off_history=tuple(history),
    )
