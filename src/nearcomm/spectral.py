"""Eigensystems of unitary matrices and spectral gaps on the unit circle.

A unitary matrix is normal, so its Schur form is diagonal and the Schur
basis is an orthonormal eigenbasis; this is numerically more robust than a
generic eigensolver when eigenvalues cluster. Gap discovery works on the
sorted eigenangles; centering multiplies by a scalar phase so the widest
empty arc straddles angle 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericalError
from .linalg import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    UnitaryMatrix,
    _frozen,
    as_square_array,
    unitarity_defect,
    unitary_from_angles,
)

TWO_PI = 2.0 * np.pi

# eigenvalues of a numerically unitary matrix must sit this close to the
# unit circle before radial projection is considered safe
MODULUS_TOL = 1e-6


def wrap_to_pi(phi):
    """Map angles to the principal interval (-pi, pi]."""
    w = np.mod(np.asarray(phi, dtype=float) + np.pi, TWO_PI) - np.pi
    return np.where(w == -np.pi, np.pi, w) if np.ndim(w) else (np.pi if w == -np.pi else float(w))


@dataclass(frozen=True)
class Eigensystem:
    """Eigenangles in [0, 2pi), ascending, with an orthonormal eigenbasis.

    basis column j is the eigenvector belonging to angles[j]; the matrix is
    reconstructed as sum_j exp(i*angles[j]) v_j v_j^H. residual is the
    measured operator norm of that reconstruction minus the matrix it was
    computed from (0 for an eigensystem given exactly).
    """

    angles: np.ndarray
    basis: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "angles", _frozen(self.angles, np.float64))
        object.__setattr__(self, "basis", _frozen(self.basis))

    def reconstruct(self) -> np.ndarray:
        return unitary_from_angles(self.basis, self.angles)


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


def unitary_eigensystem(
    u, tolerances: ToleranceConfig = DEFAULT_TOLERANCES
) -> Eigensystem:
    """Eigenangles and orthonormal eigenbasis of a unitary matrix.

    A UnitaryMatrix is trusted; a plain array is checked by
    UnitaryMatrix.from_array. The reconstruction residual must stay within
    tolerances.unitarity(n); when it does not, the input's unitarity defect
    is measured, so a non-unitary input is rejected as invalid rather than
    reported as a numerical failure.
    """
    if not isinstance(u, UnitaryMatrix):
        u = UnitaryMatrix.from_array(u, tolerances)
    a, n = u.mat, u.n
    try:
        t, z = scipy.linalg.schur(a, output="complex")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Schur decomposition failed: {exc}") from exc
    lam = np.diag(t)
    moduli = np.abs(lam)
    worst = float(np.max(np.abs(moduli - 1.0)))
    if worst > MODULUS_TOL:
        raise InvalidInputError(
            f"eigenvalue modulus deviates from 1 by {worst:.3e}; input is not numerically unitary"
        )
    angles = np.mod(np.angle(lam / moduli), TWO_PI)
    order = np.argsort(angles, kind="stable")
    es = Eigensystem(angles[order], z[:, order])
    resid = float(np.linalg.norm(es.reconstruct() - a, ord=2))
    tol = tolerances.unitarity(n)
    if resid > tol:
        # a trusted UnitaryMatrix may carry a defect it does not have
        defect = unitarity_defect(a)
        if defect > tol:
            raise InvalidInputError(f"unitarity defect {defect:.3e} exceeds tolerance {tol:.3e}")
        raise NumericalError(f"eigensystem reconstruction residual {resid:.3e} too large")
    return Eigensystem(es.angles, es.basis, resid)


def largest_gap(es: Eigensystem) -> GapInfo:
    """Widest empty open arc between consecutive eigenangles.

    Arc j runs from angles[j] to the next angle, the last one wrapping
    through 2pi. Ties between equally long arcs are broken by the smallest
    center in [0, 2pi), then by the first arc, so the result is
    deterministic. A single eigenvalue leaves one arc of length exactly
    2pi; the half-width is capped at pi.
    """
    angles = np.sort(np.asarray(es.angles, dtype=float))
    n = len(angles)
    if n < 1:
        raise InvalidInputError("eigensystem has no angles")
    lengths = np.diff(angles, append=angles[0] + TWO_PI) if n > 1 else np.array([TWO_PI])
    centers = np.mod(angles + lengths / 2.0, TWO_PI)
    j = int(np.lexsort((centers, -lengths))[0])
    return GapInfo(
        center=float(centers[j]),
        half_width=float(min(lengths[j] / 2.0, np.pi)),
        lo=float(angles[j]),
        hi=float(angles[(j + 1) % n]),
    )


@dataclass(frozen=True)
class CenteredUnitary(UnitaryMatrix):
    """A unitary rotated by center_gap, carrying the eigensystem it found.

    The angles are shifted by -zeta (ascending in [0, 2pi), the gap around
    0); the residual, measured on U, is unchanged by the scalar phase.
    """

    eigensystem: Eigensystem


def center_gap(
    u, tolerances: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[CenteredUnitary, float, GapInfo]:
    """Rotate a unitary by a scalar phase so its largest gap sits at angle 0.

    Returns (exp(-i*zeta) * U, zeta, centered gap). The centered gap is the
    gap found on U moved by -zeta: center 0, the same half-width, and lo/hi
    shifted mod 2pi. The rotated matrix carries U's eigensystem with the
    angles moved the same way.
    """
    a = as_square_array(u, "unitary matrix")
    es = unitary_eigensystem(u, tolerances)
    gap = largest_gap(es)
    zeta = gap.center
    centered = GapInfo(
        center=0.0,
        half_width=gap.half_width,
        lo=float(np.mod(gap.lo - zeta, TWO_PI)),
        hi=float(np.mod(gap.hi - zeta, TWO_PI)),
    )
    shifted = np.mod(es.angles - zeta, TWO_PI)
    order = np.argsort(shifted, kind="stable")
    rotated = Eigensystem(shifted[order], es.basis[:, order], es.residual)
    mat = np.exp(-1j * zeta) * a
    return CenteredUnitary(mat, unitarity_defect(mat), rotated), float(zeta), centered
