"""Dense complex matrix substrate: norms, commutators, Hermitian exponentials.

All matrices are square complex128 arrays. The norm used throughout is the
operator norm induced by the Euclidean vector norm, i.e. the largest
singular value, computed as the root of the Gram matrix's top eigenvalue
(_spectral_norm). Structural properties (unitarity, hermiticity) are tracked
as defects against fixed thresholds that scale linearly with the
dimension (the *_TOL constants below); the checks live here, in
from_array. A defect is checked where a matrix enters from outside (a
plain array passed to from_array or to a function that takes one) and
measured where rounding can break the property (the output of an
exponential); it is recorded as 0 for an exact symmetrization
(hermitian_part). An entry check records
gated_norm of the defect matrix, a certified upper bound within sqrt(n)
of its operator norm that meets the tolerance exactly when that norm
does; a reported defect (unitarity_defect, hermiticity_defect,
certified_unitary) is the exact operator norm. One rule decides trust:
Cls.of(m) returns a Cls argument certified within from_array's tolerance
as it is, and checks anything else by Cls.from_array; a
HermitianMatrix or UnitaryMatrix is built only with a defect an O(n^2)
norm of it does not contradict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError


# tolerance coefficients, each multiplied by the dimension n where it is
# applied: |M^H M - I|, |M - M^H| and the output commutator |[X, Y]|
UNITARITY_TOL = 1e-8
HERMITICITY_TOL = 1e-8
COMMUTE_TOL = 1e-10
# not scaled by n: eigenvalues of a numerically unitary matrix must sit
# this close to the unit circle before radial projection is considered safe
MODULUS_TOL = 1e-6


def as_square_array(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square, finite complex128 array, raising on bad input."""
    a = np.asarray(getattr(m, "mat", m), dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise InvalidInputError(f"{name} must have positive dimension")
    if not np.isfinite(a).all():  # complex: both parts finite
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def _frozen(a, dtype=np.complex128) -> np.ndarray:
    """A read-only copy of a as dtype."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _CertifiedMatrix:
    """A read-only square matrix with the recorded defect of its structure."""

    mat: np.ndarray
    defect: float

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(as_square_array(self.mat)))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    @classmethod
    def of(cls, m, name: str = "matrix"):
        """m as it is when it is a cls certified within tolerance; else cls.from_array(m, name)."""
        trusted = isinstance(m, cls) and m.defect <= cls._tol * m.n
        return m if trusted else cls.from_array(m, name)


class HermitianMatrix(_CertifiedMatrix):
    """A matrix certified Hermitian up to the recorded defect |M - M^H|.

    Construction rejects a defect the matrix contradicts: |M - M^H|_F <=
    sqrt(n) |M - M^H|, so a Frobenius norm above sqrt(n) * defect (plus a
    relative rounding margin) proves it too small. O(n^2); exact at 0.
    """
    _tol = HERMITICITY_TOL

    def __post_init__(self):
        super().__post_init__()
        skew = _frobenius(_skew(self.mat))
        if not skew <= math.sqrt(self.n) * self.defect * (1.0 + 1e-9):
            raise InvalidInputError(
                f"recorded hermiticity defect {self.defect:.3e} is below the measured "
                f"|M - M^H|_F / sqrt(n) = {skew / math.sqrt(self.n):.3e}"
            )

    @classmethod
    def from_array(cls, m, name: str = "matrix") -> "HermitianMatrix":
        a = as_square_array(m, name)
        tol = cls._tol * a.shape[0]
        d = gated_norm(_skew(a), tol)
        if not d <= tol:
            raise InvalidInputError(f"hermiticity defect {d:.3e} exceeds tolerance {tol:.3e}")
        return cls(a, d)


class UnitaryMatrix(_CertifiedMatrix):
    """A matrix certified unitary up to the recorded defect |M^H M - I|.

    Construction rejects a defect the column norms contradict: |m_j|^2 - 1
    is a diagonal entry of M^H M - I, so at most its norm. The computed
    |m_j|^2 - 1 is off by at most (n + 2) u (|m_j|^2 + 1) (Higham, Accuracy
    and Stability, 2002, 3.1); the margin (n + 2) eps (|m_j|^2 + 1), eps =
    2u, covers it and the same rounding in a measured defect. O(n^2).
    """
    _tol = UNITARITY_TOL

    def __post_init__(self):
        super().__post_init__()
        sq = np.sum(self.mat.real**2 + self.mat.imag**2, axis=0)
        margin = (self.n + 2) * np.finfo(float).eps * (sq + 1.0)
        worst = float(np.max(np.abs(sq - 1.0) - margin))
        if not worst <= self.defect:
            raise InvalidInputError(f"recorded unitarity defect {self.defect:.3e} is below "
                                    f"max |m_j|^2 - 1 less rounding, {worst:.3e}")

    @classmethod
    def from_array(cls, m, name: str = "matrix") -> "UnitaryMatrix":
        a = as_square_array(m, name)
        tol = cls._tol * a.shape[0]
        d = gated_norm(_gram_defect(a), tol)
        if not d <= tol:  # a NaN defect, from a product that overflowed, fails too
            raise InvalidInputError(f"unitarity defect {d:.3e} exceeds tolerance {tol:.3e}")
        return cls(a, d)


def hermitian_part(m) -> HermitianMatrix:
    """(M + M^H)/2, recorded with defect 0.0.

    No norm is needed to certify the result: entry (j, i) is computed from
    the same two numbers as entry (i, j), and in IEEE arithmetic
    x - y == -(y - x), so the result equals its conjugate transpose
    exactly. An M that is already exactly Hermitian comes back bit for bit
    unchanged, up to the sign of a zero entry.
    """
    a = as_square_array(m)
    return HermitianMatrix((a + a.conj().T) / 2.0, 0.0)


def operator_norm(m) -> float:
    """Largest singular value (spectral norm) of a square complex matrix."""
    return _spectral_norm(as_square_array(m))


def _spectral_norm(a: np.ndarray) -> float:
    """|A|_2 = sqrt(lambda_max(B^H B)) * s, for B = A/s and s = max |a_ij|.

    The largest singular value is the root of the Gram matrix's top
    eigenvalue (Golub & Van Loan, Matrix Computations, 2.3 and 8.6), and
    one Hermitian eigvalsh finds it at well under the cost of an SVD.
    Dividing by s first puts the Gram entries at order 1, so entries out to
    1e+-300 neither overflow nor underflow in it. A non-finite A ends as
    LAPACK's SVD ends it: an entry of NaN modulus raises LinAlgError, and
    an infinite one gives NaN.
    """
    s = float(np.max(np.abs(a)))
    if math.isnan(s):
        raise np.linalg.LinAlgError("operator norm of a matrix with a NaN entry")
    if s == 0.0:
        return 0.0
    if s == math.inf:
        return math.nan
    b = a / s
    return s * math.sqrt(max(float(np.linalg.eigvalsh(b.conj().T @ b)[-1]), 0.0))


def gated_norm(e: np.ndarray, tol: float) -> float:
    """An upper bound on |E| that is <= tol exactly when |E| is.

    |E| <= |E|_F <= sqrt(n) |E| (Golub & Van Loan, Matrix Computations,
    2.3), so an O(n^2) Frobenius norm within tol decides the check and is
    returned; only when it exceeds tol is the operator norm computed
    (_spectral_norm) and returned. The Frobenius norm is raised by a bound
    on its rounding error (the moduli, the scaling, the sum of n^2 squares
    and the root), so it stays above the exact |E|_F. A NaN Frobenius norm,
    from a defect product that overflowed, is returned as it is: it fails
    every `not d <= tol` check, as the operator norm, which is NaN or
    undefined there, would.
    """
    f = _frobenius_bound(e)
    return _spectral_norm(e) if f > tol else f


def _frobenius_bound(e: np.ndarray) -> float:
    """|E|_F raised by a bound on its rounding error, so it stays above the exact |E|_F."""
    return _frobenius(e) * (1.0 + (e.size + 5) * np.finfo(float).eps)


def _frobenius(e: np.ndarray) -> float:
    """|E|_F, from the entry moduli scaled by the largest so no square underflows to 0.

    Infinite or NaN entries give inf or NaN, without a warning.
    """
    mod = np.abs(e)
    s = float(np.max(mod))
    if s == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return s * float(np.linalg.norm(mod / s))


def _gram_defect(a: np.ndarray) -> np.ndarray:
    """A^H A - I; entries past the float range read inf or NaN, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a.conj().T @ a - np.eye(a.shape[0])


def _skew(a: np.ndarray) -> np.ndarray:
    """A - A^H; entries past the float range read inf or NaN, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a - a.conj().T


def commutator(m, n) -> np.ndarray:
    """MN - NM. Antisymmetric in its arguments."""
    a = as_square_array(m, "first operand")
    b = as_square_array(n, "second operand")
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def unitarity_defect(m) -> float:
    """Operator norm of M^H M - I."""
    return _spectral_norm(_gram_defect(as_square_array(m)))


def hermiticity_defect(m) -> float:
    """Operator norm of M - M^H."""
    return _spectral_norm(_skew(as_square_array(m)))


def unitary_from_angles(basis, angles) -> np.ndarray:
    """Q diag(e^{i*phi}) Q^H for an orthonormal basis Q and real angles phi.

    The unitary with eigenvectors the columns of Q and eigenvalues e^{i*phi}:
    a function of a normal matrix is that function on its eigenvalues.
    """
    return (basis * np.exp(1j * angles)) @ basis.conj().T


def certified_unitary(m: np.ndarray, what: str) -> UnitaryMatrix:
    """m with its measured unitarity defect, for a unitary this package built.

    A defect above tolerance is a numerical failure of ours, not bad input,
    so it raises NumericalError rather than InvalidInputError.
    """
    n = m.shape[0]
    d = unitarity_defect(m)
    if not d <= UNITARITY_TOL * n:
        raise NumericalError(f"{what} lost unitarity: defect {d:.3e} for {n}x{n} input")
    return UnitaryMatrix(m, d)


def herm_exp(h) -> UnitaryMatrix:
    """exp(iH) for Hermitian H, via eigendecomposition.

    H is taken by HermitianMatrix.of. The eigendecomposition route keeps
    the result unitary to rounding and makes the eigenangles of the output
    equal the eigenvalues of H mod 2pi; the output's unitarity is measured.
    """
    h = HermitianMatrix.of(h)
    n = h.n
    try:
        w, q = np.linalg.eigh(h.mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed for {n}x{n} input: {exc}") from exc
    return certified_unitary(unitary_from_angles(q, w), "exponential")
