"""Principal-branch logarithm of a gapped unitary via a smoothed Fourier series.

The 2pi-periodic sawtooth f(theta) = theta on [0, 2pi) has Fourier
coefficients pi (k = 0) and i/k (k != 0), but its series converges only
conditionally. Convolving f with the compactly supported bump

    chi_gamma(x) = (1 - (x/gamma)^2)^3   on |x| <= gamma,

normalized to unit mass, leaves f unchanged on (gamma, 2pi - gamma) while
damping the coefficients by the bump's transform, which decays like
1/(gamma*k)^4. Summing the damped series in powers of a unitary U whose
spectrum stays at least gamma away from angle 0 yields a Hermitian H with
exp(iH) = U, plus a certified truncation tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError, InvalidInputError, PreconditionError, TruncationError
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianMatrix,
    ToleranceConfig,
    _frozen,
    as_square_array,
    hermitian_part,
)
from .spectral import CenteredUnitary, unitary_eigensystem, wrap_to_pi

# Decay constant of the coefficient envelope |c_k| <= C/(gamma*k^4):
# sup_s s^3 |X(s)| for the unit-mass kernel transform X is 25.3834 (attained
# near s = 4.514); the default adds margin so truncation orders chosen from
# it always satisfy the measured tail check. Scales as 1/gamma^2.
ENVELOPE_CONSTANT = 26.0

_TAYLOR_CUTOFF = 2.0
# h(s) = 105 * sum_m (-1)^m s^(2m) / ((2m)! (2m+1)(2m+3)(2m+5)(2m+7));
# 18 terms reach full float64 accuracy for |s| < 2
_TAYLOR_COEFFS = np.array(
    [
        105.0 * (-1.0) ** m
        / (math.factorial(2 * m) * (2 * m + 1) * (2 * m + 3) * (2 * m + 5) * (2 * m + 7))
        for m in range(18)
    ]
)


def sawtooth_coefficient(k: int) -> complex:
    """Fourier coefficient of the periodic ramp theta on [0, 2pi)."""
    if k == 0:
        return complex(np.pi)
    return 1j / k


def kernel_transform(gamma: float, t):
    """Transform of the unit-mass smoothing bump of half-width gamma.

    Returns (35/(32*gamma)) * integral_{-gamma}^{gamma} (1-(x/gamma)^2)^3
    cos(t*x) dx, an even function of t equal to 1 at t = 0. Evaluated in
    closed form, with a Taylor series below |gamma*t| = 2 where the closed
    form cancels catastrophically. Accepts scalar or array t.
    """
    if not gamma > 0:
        raise InvalidInputError(f"gamma must be positive, got {gamma}")
    s = gamma * np.asarray(t, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(np.abs(s))
    out = np.empty_like(s)
    small = s < _TAYLOR_CUTOFF
    if np.any(small):
        s2 = s[small] ** 2
        acc = np.zeros_like(s2)
        for c in _TAYLOR_COEFFS[::-1]:
            acc = acc * s2 + c
        out[small] = acc
    if np.any(~small):
        sl = s[~small]
        sin, cos = np.sin(sl), np.cos(sl)
        out[~small] = (
            105.0 * cos / sl**4
            - 630.0 * sin / sl**5
            - 1575.0 * cos / sl**6
            + 1575.0 * sin / sl**7
        )
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class LaurentCoefficients:
    """Smoothed sawtooth coefficients c_k for |k| <= trunc_order.

    coeffs[trunc_order + k] holds c_k; c_{-k} = conj(c_k) by construction.
    c_emp is the measured decay constant max |c_k|*gamma*k^4 and tail the
    certified bound on sum_{|k| > trunc_order} |c_k|.
    """

    gamma: float
    trunc_order: int
    coeffs: np.ndarray
    c_emp: float
    tail: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs))

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.trunc_order:
            raise InvalidInputError(f"|k| = {abs(k)} beyond truncation order {self.trunc_order}")
        return complex(self.coeffs[self.trunc_order + k])

    def weighted_sum(self) -> float:
        """sum_k |k| * |c_k|, the series' commutator amplification factor."""
        k = np.arange(-self.trunc_order, self.trunc_order + 1)
        return float(np.sum(np.abs(k) * np.abs(self.coeffs)))


def laurent_coefficients(gamma: float, trunc_order: int) -> LaurentCoefficients:
    """Coefficients c_k = d_k * X(k) of the smoothed sawtooth, |k| <= K."""
    if not 0 < gamma < np.pi:
        raise InvalidInputError(f"gamma must lie in (0, pi), got {gamma}")
    if trunc_order < 1:
        raise InvalidInputError(f"truncation order must be >= 1, got {trunc_order}")
    k = np.arange(1, trunc_order + 1)
    damp = kernel_transform(gamma, k)
    pos = (1j / k) * damp
    coeffs = np.concatenate([np.conj(pos[::-1]), [complex(np.pi)], pos])
    c_emp = float(np.max(np.abs(pos) * gamma * k**4))
    tail = 2.0 * c_emp / (3.0 * gamma * trunc_order**3)
    return LaurentCoefficients(gamma=float(gamma), trunc_order=int(trunc_order),
                               coeffs=coeffs, c_emp=c_emp, tail=tail)


def evaluate_smoothed_sawtooth(theta: float, gamma: float, trunc_order: int) -> float:
    """Value of the truncated smoothed-sawtooth series at angle theta.

    Equals theta up to the tail bound whenever theta keeps a margin of
    gamma from the jump at 0 (mod 2pi); inside the smoothing window the
    value merely stays in [0, 2pi].
    """
    lc = laurent_coefficients(gamma, trunc_order)
    k = np.arange(1, trunc_order + 1)
    pos = lc.coeffs[lc.trunc_order + 1:]
    return float(np.pi + 2.0 * np.real(np.sum(pos * np.exp(1j * k * theta))))


def choose_truncation(gamma: float, target: float, c_est: float | None = None) -> int:
    """Smallest K with 2*C/(3*gamma*K^3) <= target.

    c_est defaults to the envelope constant rescaled by 1/gamma^2, its
    measured scaling.
    """
    if not gamma > 0 or not target > 0 or (c_est is not None and not c_est > 0):
        raise InvalidInputError("gamma, target and c_est must be positive")
    if c_est is None:
        c_est = ENVELOPE_CONSTANT / gamma**2
    k = max(1, math.ceil((2.0 * c_est / (3.0 * gamma * target)) ** (1.0 / 3.0)))
    while k > 1 and 2.0 * c_est / (3.0 * gamma * (k - 1) ** 3) <= target:
        k -= 1
    while 2.0 * c_est / (3.0 * gamma * k**3) > target:
        k += 1
    return k


def certified_truncation(gamma: float, target: float) -> int:
    """Truncation order whose measured tail bound certifies the target.

    choose_truncation's first estimate already certifies it: the measured
    decay constant obeys c_emp * gamma^2 <= sup_s s^3 |X(s)| = 25.3834 <
    ENVELOPE_CONSTANT, so the measured tail at that order is at most
    25.3834/26 of the target. gapped_log re-measures the tail on the
    coefficients it sums and raises TruncationError if it ever falls short.
    """
    return choose_truncation(gamma, target)


def _measured_gap(u, tolerances: ToleranceConfig) -> float:
    """Distance of the spectrum of u from angle 0 (the branch cut).

    A CenteredUnitary carries the half-width center_gap measured; any other
    input is decomposed.
    """
    if isinstance(u, CenteredUnitary):
        return u.gap.half_width
    es = unitary_eigensystem(u, tolerances)
    return float(np.min(np.abs(wrap_to_pi(es.angles))))


def _paterson_stockmeyer(a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_{k=1..K} coeffs[k-1] * a^k for K = len(coeffs), in ~2*sqrt(K) matmuls.

    Paterson & Stockmeyer (SIAM J. Comput. 2:60, 1973; Higham, Functions of
    Matrices, sec. 4.2): with s = floor(sqrt(K)) the polynomial splits into
    m = floor(K/s) + 1 blocks B_j = sum_{i<s} c_{js+i} a^i (c_0 = 0, c_k = 0
    beyond K), all formed by one GEMM of the coefficient table against the
    baby steps a^0..a^(s-1), then summed by Horner's rule in the giant step
    a^s: s + m - 1 matmuls in all. Holds the s baby steps and the m
    blocks at once, about 2*sqrt(K) n x n matrices (22 MB at n = 128,
    K = 1800).
    """
    n, k = a.shape[0], len(coeffs)
    s = math.isqrt(k)
    m = k // s + 1
    baby = np.empty((s, n, n), dtype=np.complex128)
    baby[0] = np.eye(n)
    for i in range(1, s):
        np.matmul(baby[i - 1], a, out=baby[i])
    giant = baby[s - 1] @ a
    table = np.zeros(m * s, dtype=np.complex128)
    table[1:k + 1] = coeffs
    blocks = (table.reshape(m, s) @ baby.reshape(s, n * n)).reshape(m, n, n)
    for j in range(m - 2, -1, -1):
        blocks[j] += blocks[j + 1] @ giant
    return blocks[0]


def gapped_log(
    u,
    gamma: float,
    trunc_order: int,
    series_target: float = 1e-6,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> tuple[HermitianMatrix, LaurentCoefficients]:
    """Hermitian H with exp(iH) = U, summed as sum_k c_k U^k.

    Requires the spectrum of U to stay more than gamma away from angle 0
    (gap centered there) and the certified tail to meet series_target.
    The positive half sum_{k>=1} c_k U^k is evaluated by Paterson-Stockmeyer
    (about 2*sqrt(K) matmuls for K = trunc_order); the negative half is its
    conjugate transpose, which makes H exactly Hermitian, so hermitian_part
    returns it unchanged with defect 0.
    """
    a = as_square_array(u, "unitary matrix")
    measured = _measured_gap(u, tolerances)
    if not gamma < measured:
        raise PreconditionError(
            f"smoothing width gamma = {gamma} not below measured gap half-width {measured:.6f}"
        )
    lc = laurent_coefficients(gamma, trunc_order)
    if lc.tail > series_target:
        raise TruncationError(
            f"certified tail {lc.tail:.3e} exceeds target {series_target:.3e}; "
            "increase the truncation order or the smoothing width",
            tail=lc.tail,
            target=series_target,
        )
    acc = _paterson_stockmeyer(a, lc.coeffs[lc.trunc_order + 1:])
    h = acc + acc.conj().T
    np.fill_diagonal(h, h.diagonal() + np.pi)
    return hermitian_part(h), lc


def direct_log(u, tolerances: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """Principal-branch log by eigendecomposition: H = sum_j phi_j v_j v_j^H.

    Eigenangles are taken in (0, 2pi); an angle within 1e-9 of the branch
    cut at 0 is rejected as ambiguous. Serves as the oracle for the series
    log.
    """
    es = unitary_eigensystem(u, tolerances)
    dist = np.abs(wrap_to_pi(es.angles))
    if np.any(dist < 1e-9):
        raise BranchPointError(
            f"eigenangle within {np.min(dist):.3e} of the branch point at angle 0"
        )
    return hermitian_part((es.basis * es.angles) @ es.basis.conj().T)
