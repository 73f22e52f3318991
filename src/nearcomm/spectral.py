"""Eigensystems of unitary matrices and spectral gaps on the unit circle.

A unitary U is normal, so any Hermitian function of it shares its
eigenvectors. For a probe angle psi that is not an eigenangle, the Cayley
transform

    W = -exp(-i*psi) U,    H = i (I + W)^{-1} (I - W)

is Hermitian with eigenvalues -cot((phi_j - psi)/2), so one Hermitian
eigendecomposition of H yields an orthonormal eigenbasis of U. |H| is
cot(d/2) for the distance d from psi to the nearest eigenangle, which
sets how well that basis is resolved. The largest gap has half-width
h >= pi/n, so a probe at its center gives |H| <= cot(h/2) <=
cot(pi/(2n)) ~ 2n/pi. A probe is kept only when |H| <= cot(pi/(4n)),
certified by its rounded-up Frobenius norm or read off the eigenvalues
of the H it decomposed, so |H| < 4n/pi on every eigenbasis returned. A
certified bound on the basis's reconstruction residual certifies it.
Gap discovery works on the sorted eigenangles; centering rotates them
by a scalar phase so the widest empty arc straddles angle 0, and hands
on the rotated eigensystem rather than the rotated matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import (
    MODULUS_TOL,
    UNITARITY_TOL,
    UnitaryMatrix,
    _frobenius_bound,
    _frozen,
    gated_norm,
    unitary_from_angles,
)

TWO_PI = 2.0 * np.pi

# the first Cayley probe when the trace is too small to point away from the
# spectrum, and the step to the next one when a probe sits on an eigenvalue
# (the golden angle, so repeated steps never revisit a probe)
_FIRST_PROBE = 1.0
_PROBE_STEP = np.pi * (3.0 - np.sqrt(5.0))
# Cayley transforms tried before unitary_eigensystem gives up
_MAX_PROBES = 6


def wrap_to_pi(phi):
    """Map angles to the principal interval (-pi, pi]."""
    w = np.mod(np.asarray(phi, dtype=float) + np.pi, TWO_PI) - np.pi
    return np.where(w == -np.pi, np.pi, w) if np.ndim(w) else (np.pi if w == -np.pi else float(w))


@dataclass(frozen=True)
class Eigensystem:
    """Eigenangles in [0, 2pi), ascending, with an orthonormal eigenbasis.

    basis column j is the eigenvector belonging to angles[j]; the matrix is
    reconstructed as sum_j exp(i*angles[j]) v_j v_j^H. residual is a
    certified upper bound on the operator norm of that reconstruction minus
    the matrix it was computed from, at most sqrt(n) times that norm (0 for
    an eigensystem given exactly).
    """

    angles: np.ndarray
    basis: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "angles", _frozen(self.angles, np.float64))
        object.__setattr__(self, "basis", _frozen(self.basis))

    @property
    def margin(self) -> float:
        """min |wrap_to_pi(angles)|, the spectrum's distance from the log's branch point at 0."""
        return float(np.min(np.abs(wrap_to_pi(self.angles))))


@dataclass(frozen=True)
class GapInfo:
    """The widest eigenvalue-free open arc of the unit circle.

    center is the arc midpoint in [0, 2pi); half_width is half the arc
    length, capped at pi; lo and hi are the bounding eigenangles (lo == hi
    for a single distinct eigenvalue, where the arc is the whole circle
    minus a point).
    """

    center: float
    half_width: float
    lo: float
    hi: float


def _cayley(a: np.ndarray, psi: float) -> np.ndarray | None:
    """(H + H^H)/2 for H = i (I + W)^{-1} (I - W), W = -exp(-i*psi) A.

    None when the probe sits on an eigenvalue: I + W is singular or the
    solve overflows.
    """
    w = -np.exp(-1j * psi) * a
    eye = np.eye(a.shape[0])
    try:
        h = 1j * np.linalg.solve(eye + w, eye - w)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(h)):
        return None
    return (h + h.conj().T) / 2.0


def unitary_eigensystem(u) -> Eigensystem:
    """Eigenangles and orthonormal eigenbasis of a unitary matrix.

    The Cayley transform H(psi) of the module docstring is first taken at
    psi = arg(-tr U), opposite the mean eigenvalue, or at _FIRST_PROBE when
    |tr U| <= n^2 eps is rounding. If the rounded-up |H|_F certifies
    |H| <= cot(pi/(4n)), eigh of this H gives the basis Z and its
    eigenvalues lambda; otherwise eigvalsh gives lambda alone. A probe is
    kept when eigh gave lambda and max |lambda| <= cot(pi/(4n)); otherwise
    the next probe is the center of the largest gap of the angles
    psi + 2 atan2(1, -lambda), and is decomposed with eigh at once. The
    angles are the Rayleigh quotients diag(Z^H U Z). A probe on an
    eigenvalue (singular solve), or a first probe so near one that
    |H|_F > pi/(16 n^2 eps), where eigvalsh's rounding n eps |H| could
    move an angle by pi/(8n), is stepped along, and the stepped probe is
    prechecked like the first; after _MAX_PROBES transforms NumericalError
    is raised.

    A UnitaryMatrix is trusted; a plain array is checked by
    UnitaryMatrix.from_array. The Rayleigh quotients must lie within
    MODULUS_TOL of the unit circle, and the reconstruction residual
    |Z diag(e^{i*angles}) Z^H - U| must stay within
    UNITARITY_TOL * n; the eigensystem carries gated_norm of that
    difference, the certified bound the gate reads, as its residual.
    When either check fails, or the probes run out, UnitaryMatrix.from_array
    checks the input before the failure is raised, since a trusted
    UnitaryMatrix may carry a defect it does not have: a non-unitary input
    is rejected as invalid rather than reported as a numerical failure.
    """
    if not isinstance(u, UnitaryMatrix):
        u = UnitaryMatrix.from_array(u)
    a, n = u.mat, u.n
    tol, eps = UNITARITY_TOL * n, np.finfo(float).eps
    trace = complex(np.trace(a))
    psi, rough = (float(np.angle(-trace)) if abs(trace) > n * n * eps else _FIRST_PROBE), True
    certify, blur = 1.0 / np.tan(np.pi / (4 * n)), np.pi / (16 * n * n * eps)
    for _ in range(_MAX_PROBES):
        h = _cayley(a, psi)
        f = _frobenius_bound(h) if rough and h is not None else 0.0
        if h is None or f > blur:
            psi, rough = psi + _PROBE_STEP, True
            continue
        try:
            lam, z = (np.linalg.eigvalsh(h), None) if f > certify else np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed for {n}x{n} input: {exc}") from exc
        rough = False
        if z is None or np.max(np.abs(lam)) > certify:
            psi = largest_gap(np.mod(psi + 2.0 * np.arctan2(1.0, -lam), TWO_PI)).center
            continue
        rq = np.einsum("ij,ij->j", z.conj(), a @ z)
        worst = float(np.max(np.abs(np.abs(rq) - 1.0)))
        if worst > MODULUS_TOL:
            UnitaryMatrix.from_array(a)
            raise InvalidInputError(
                f"eigenvalue modulus deviates from 1 by {worst:.3e}; input is not numerically unitary"
            )
        angles = np.mod(np.angle(rq), TWO_PI)
        order = np.argsort(angles, kind="stable")
        angles, z = angles[order], z[:, order]
        resid = gated_norm(unitary_from_angles(z, angles) - a, tol)
        if not resid <= tol:
            UnitaryMatrix.from_array(a)
            raise NumericalError(f"eigensystem reconstruction residual {resid:.3e} too large")
        return Eigensystem(angles, z, resid)
    UnitaryMatrix.from_array(a)
    raise NumericalError(f"no well-conditioned Cayley probe after {_MAX_PROBES} tries")


def largest_gap(angles) -> GapInfo:
    """Widest empty open arc between consecutive eigenangles in [0, 2pi).

    The angles must be finite and may come in any order; they are sorted
    first. Arc j runs from the j-th sorted angle to the next, the last one
    wrapping through 2pi. Ties between equally long arcs are broken by the
    smallest center in [0, 2pi), then by the first arc, so the result is
    deterministic. A single eigenvalue leaves one arc of length exactly
    2pi; the half-width is capped at pi.
    """
    angles = np.sort(np.asarray(angles, dtype=float))
    n = len(angles)
    if n < 1 or not (math.isfinite(angles[0]) and math.isfinite(angles[-1])):
        raise InvalidInputError("eigensystem needs at least one angle, all finite")
    ends = np.concatenate((angles[1:], angles[:1] + TWO_PI))
    lengths = ends - angles if n > 1 else np.array([TWO_PI])
    centers = np.mod(angles + lengths / 2.0, TWO_PI)
    ties = np.flatnonzero(lengths == lengths.max())
    j = int(ties[np.argmin(centers[ties])])
    return GapInfo(
        center=float(centers[j]),
        half_width=float(min(lengths[j] / 2.0, np.pi)),
        lo=float(angles[j]),
        hi=float(angles[(j + 1) % n]),
    )


def center_gap(u) -> tuple[Eigensystem, GapInfo]:
    """Rotate a unitary's eigensystem so its largest gap sits at angle 0.

    Returns (eigensystem of exp(-i*zeta) * U, gap), where gap is the
    largest gap found on U and zeta = gap.center. The eigensystem is U's
    with every angle moved by -zeta mod 2pi, re-sorted ascending in
    [0, 2pi) with the basis columns to match, so the gap straddles 0; its
    residual, measured on U, is unchanged by the scalar phase.
    """
    es = unitary_eigensystem(u)
    gap = largest_gap(es.angles)
    shifted = np.mod(es.angles - gap.center, TWO_PI)
    order = np.argsort(shifted, kind="stable")
    return Eigensystem(shifted[order], es.basis[:, order], es.residual), gap
