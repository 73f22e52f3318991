"""Deterministic test-ensemble generators.

All generators draw from a counter-based Philox stream keyed by the seed
and explicit stream indices, so the same arguments always produce
bit-identical matrices no matter how calls are scheduled.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import (
    UNITARITY_TOL,
    UnitaryMatrix,
    certified_unitary,
    commutator,
    operator_norm,
    unitary_from_angles,
)
from .spectral import TWO_PI, unitary_eigensystem

MAX_REGEN_RETRIES = 8


def check_seed(*keys) -> None:
    """Reject a seed or stream index that is not an integer >= 0."""
    for key in keys:
        if not isinstance(key, numbers.Integral) or key < 0:
            raise InvalidInputError(f"seed and stream indices must be integers >= 0, got {key}")


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream indices), each an integer >= 0."""
    check_seed(seed, *stream)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seed=ss))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase fixing.

    Rescaling Q's columns by the phases of R's diagonal makes the
    distribution exactly Haar and the output independent of LAPACK's sign
    conventions.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def check_ensemble_params(n: int, delta: float) -> None:
    """Reject a dimension that is not an integer >= 1, then a gap half-width outside (0, pi)."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidInputError(f"dimension must be an integer >= 1, got {n}")
    if not 0 < delta < np.pi:
        raise InvalidInputError(f"delta must lie in (0, pi), got {delta}")


def gen_gapped_unitary(n: int, delta: float, seed: int, *stream: int) -> UnitaryMatrix:
    """Unitary with Haar-random eigenbasis and spectrum avoiding [-delta, delta].

    Eigenangles are sampled uniformly from (delta, 2pi - delta), so the
    empty arc around angle 0 has half-width at least delta.
    """
    check_ensemble_params(n, delta)
    rng = stream_rng(seed, *stream)
    angles = rng.uniform(delta, TWO_PI - delta, size=n)
    basis = haar_unitary(n, rng)
    mat = unitary_from_angles(basis, angles)
    return certified_unitary(mat, "gapped unitary")


def _gap_settled(n: int, delta: float, eps_target: float) -> bool:
    """Whether the bound in gen_almost_commuting_pair proves both measured gaps >= delta/2."""
    rho = 24.0 * (n + 1) ** 2 * (np.finfo(float).eps / 2.0)
    slack = (np.pi / 2.0) * (UNITARITY_TOL * n + 3.0 * rho) * (1.0 + 2.0 * rho)
    return eps_target * (1.0 + rho) + slack + rho <= delta / 2.0


def gen_almost_commuting_pair(
    n: int, delta: float, eps_target: float, seed: int, *stream: int
) -> tuple[UnitaryMatrix, UnitaryMatrix, float]:
    """Commuting gapped pair with one side perturbed by exp(i*eps*G).

    U0 = Q diag(e^{i*alpha}) Q^H and V = V0 = Q diag(e^{i*beta}) Q^H share
    a Haar basis Q, with every alpha_j, beta_j in [delta, 2pi - delta];
    U = W U0 for W = exp(i*eps*G), |G| = 1. G is (Z + Z^H)/2 for a complex
    Gaussian Z, scaled by its largest eigenvalue modulus: one eigh gives
    its eigenbasis P and eigenvalues w, and W = P diag(e^{i*eps*w/max|w|}) P^H
    is built from them. W is within eps_target of the identity, so the
    measured commutator norm is at most 2*eps_target.
    A pair is returned only if both gaps at angle 0 are at least delta/2;
    otherwise the draw is retried with a fresh sub-stream, and after
    MAX_REGEN_RETRIES draws NumericalError is raised.

    The gaps are settled by a bound when it can, and measured otherwise.
    Exactly: U0 is normal and U = U0 + (W - I) U0, so by Bauer-Fike (Numer.
    Math. 2:137, 1960) every eigenvalue of U lies within
    |W - I| = 2 sin(eps |G|/2) of some e^{i*alpha_j}; both lie on the unit
    circle, so that chord subtends an arc of at most eps |G|, and
    gap(U) >= delta - eps |G|. V is not perturbed: gap(V) >= delta. The
    measured check reads the angles of the computed unitary_eigensystem of
    the rounded matrices, so the margin covers, with u the unit roundoff
    and rho = 24 (n + 1)^2 u:
    - the rounding of the built U0 and W: four n x n products (U0, V0, W
      and W U0), each erring by at most sqrt(2) gamma_2n n <= 3 n^2 u in
      norm for factors of unit norm (Higham, Accuracy and Stability of
      Numerical Algorithms, 3.5), and two factorizations, QR for Q and
      eigh for P, taken as backward stable to within n u; so the computed
      U and V are within rho, at least twice the sum of these terms, of
      the exactly unitary W* U0* and V0* built from the same angles on the
      nearest unitary bases;
    - the angles of W: a correctly rounded quotient is monotone and
      max|w|/max|w| = 1 exactly, so every w_j/max|w| lies in [-1, 1], and
      eps times it rounds once, so each angle is at most eps (1 + u) <=
      eps (1 + rho) in modulus: W* = exp(i eps G*) for a G* with
      |G*| <= 1 + u;
    - the slack of the measured check: its eigensystem Z, angles theta
      passes |Z diag(e^{i*theta}) Z^H - U| <= tau = UNITARITY_TOL * n,
      with Z orthonormal to within rho, so each e^{i*theta_j}
      has residual at most (tau + 3 rho)(1 + 2 rho) against the exactly
      unitary matrix, and by Bauer-Fike lies within that chord of its
      spectrum; a chord c subtends an arc of at most (pi/2) c. The
      rounding of the angles themselves adds at most rho.
    Hence every measured angle of U or V is at least
    delta - eps (1 + rho) - (pi/2)(tau + 3 rho)(1 + 2 rho) - rho from 0,
    and when that is >= delta/2 (_gap_settled) both checks would pass, so
    they are skipped and the first draw is returned, bit for bit what the
    measured checks return. Otherwise, as for eps near or above delta/2,
    both gaps are measured on every draw. tau dominates the margin: at
    n = 32 the margin is 5.0e-7, and the rho terms are below 1e-4 of it.
    """
    check_ensemble_params(n, delta)
    if not 0 <= eps_target < np.inf:
        raise InvalidInputError(f"eps_target must be finite and nonnegative, got {eps_target}")
    settled = _gap_settled(n, delta, eps_target)
    for attempt in range(MAX_REGEN_RETRIES):
        rng = stream_rng(seed, *stream, attempt)
        angles_u = rng.uniform(delta, TWO_PI - delta, size=n)
        angles_v = rng.uniform(delta, TWO_PI - delta, size=n)
        basis = haar_unitary(n, rng)
        u0 = unitary_from_angles(basis, angles_u)
        v0 = unitary_from_angles(basis, angles_v)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, p = np.linalg.eigh((z + z.conj().T) / 2.0)
        u_mat = unitary_from_angles(p, eps_target * (w / np.max(np.abs(w)))) @ u0
        u = certified_unitary(u_mat, "perturbed U")
        v = certified_unitary(v0, "V")
        if settled or all(unitary_eigensystem(m).margin >= delta / 2.0 for m in (u, v)):
            eps_actual = operator_norm(commutator(u_mat, v0))
            return u, v, eps_actual
    raise NumericalError(
        f"perturbation kept closing the gap below {delta / 2.0:.4f} "
        f"after {MAX_REGEN_RETRIES} retries (eps_target = {eps_target})"
    )


def gen_voiculescu_pair(n: int) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """Clock and cyclic-shift matrices: commutator norm 2*sin(pi/n).

    Both spectra are the n-th roots of unity, so every spectral gap
    half-width is pi/n; the pair asymptotically commutes as n grows yet
    stays far from any commuting pair.
    """
    if not isinstance(n, numbers.Integral) or n < 2:
        raise InvalidInputError(f"need an integer n >= 2, got {n}")
    omega = np.exp(2j * np.pi / n)
    clock = np.diag(omega ** np.arange(n))
    shift = np.zeros((n, n), dtype=np.complex128)
    shift[np.arange(1, n), np.arange(n - 1)] = 1.0
    shift[0, n - 1] = 1.0
    return certified_unitary(clock, "clock matrix"), certified_unitary(shift, "shift matrix")
