"""Principal-branch logarithm of a gapped unitary via a smoothed Fourier series.

The 2pi-periodic sawtooth f(theta) = theta on [0, 2pi) has Fourier
coefficients pi (k = 0) and i/k (k != 0), but its series converges only
conditionally. Convolving f with the compactly supported bump

    chi_gamma(x) = (1 - (x/gamma)^2)^3   on |x| <= gamma,

normalized to unit mass, leaves f unchanged on (gamma, 2pi - gamma) while
damping the coefficients by the bump's transform, which decays like
1/(gamma*k)^4. The truncated series g_K(U) = sum_{|k|<=K} c_k U^k of a
unitary U whose spectrum stays at least gamma away from angle 0 is a
Hermitian H with exp(iH) = U up to a certified truncation tail. U is
normal, so g_K(U) = Z diag(g_K(theta)) Z^H on its eigensystem (Higham,
Functions of Matrices, 2008, ch. 4): the series is summed on the
eigenangles, never in matrix powers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError, InvalidInputError, PreconditionError
from .linalg import HermitianMatrix, _frozen, hermitian_part
from .spectral import Eigensystem, unitary_eigensystem

# Bound on sup_s s^3 |X(s)| for the unit-mass kernel transform X, whose
# value is 25.3834 (near s = 4.514). |c_k| = |X(gamma*k)|/k, so every
# coefficient obeys |c_k| <= (ENVELOPE_CONSTANT/gamma^2)/(gamma*k^4).
ENVELOPE_CONSTANT = 26.0
# Largest truncation order accepted: the coefficients take 96 B per order, 384 MiB at the cap
MAX_TRUNCATION_ORDER = 2**22

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
    tail bounds sum_{|k| > trunc_order} |c_k| (_envelope_tail); c_emp, the
    measured max |c_k|*gamma*k^4 over k <= trunc_order, enters no bound.
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

    def evaluate(self, theta) -> np.ndarray:
        """g_K(theta) = pi + 2 Re sum_{k=1..K} c_k e^{ik*theta}, elementwise.

        With s = floor(sqrt(K)) the index splits as k = j*s + i, 0 <= i < s,
        and the sum as sum_j e^{ijs*theta} (sum_i c_{js+i} e^{ii*theta}):
        one product of an (N x s) table of e^{ii*theta} with the (s x m)
        coefficient blocks, m = floor(K/s) + 1, so N angles never need an
        N x K table.
        """
        theta = np.asarray(theta, dtype=float)
        t = theta.reshape(-1, 1)
        order = self.trunc_order
        s = math.isqrt(order)
        m = order // s + 1
        table = np.zeros(m * s, dtype=np.complex128)
        table[1:order + 1] = self.coeffs[order + 1:]
        blocks = np.exp(1j * t * np.arange(s)) @ table.reshape(m, s).T
        total = np.sum(np.exp(1j * t * (s * np.arange(m))) * blocks, axis=1)
        return (np.pi + 2.0 * total.real).reshape(theta.shape)


def laurent_coefficients(gamma: float, trunc_order: int) -> LaurentCoefficients:
    """Coefficients c_k = d_k * X(k) of the smoothed sawtooth, |k| <= K."""
    if not 0 < gamma < np.pi:
        raise InvalidInputError(f"gamma must lie in (0, pi), got {gamma}")
    if not isinstance(trunc_order, numbers.Integral) or not 1 <= trunc_order <= MAX_TRUNCATION_ORDER:
        raise InvalidInputError(f"truncation order must be an integer in "
                                f"[1, {MAX_TRUNCATION_ORDER}], got {trunc_order}")
    trunc_order = int(trunc_order)  # an int64 order**3 would wrap past 2^21
    k = np.arange(1, trunc_order + 1)
    damp = kernel_transform(gamma, k)
    pos = (1j / k) * damp
    coeffs = np.concatenate([np.conj(pos[::-1]), [complex(np.pi)], pos])
    c_emp = float(np.max(np.abs(pos) * gamma * k**4))
    return LaurentCoefficients(gamma=float(gamma), trunc_order=trunc_order, coeffs=coeffs,
                               c_emp=c_emp, tail=_envelope_tail(gamma, trunc_order))


def evaluate_smoothed_sawtooth(theta: float, gamma: float, trunc_order: int) -> float:
    """Value of the truncated smoothed-sawtooth series at angle theta.

    Equals theta up to the tail bound whenever theta keeps a margin of
    gamma from the jump at 0 (mod 2pi); inside the smoothing window the
    value merely stays in [0, 2pi].
    """
    return float(laurent_coefficients(gamma, trunc_order).evaluate(theta))


def _envelope_tail(gamma: float, order: int) -> float:
    """Bound on sum_{|k| > order} |c_k|, as sum_{k > order} 1/k^4 <= 1/(3*order^3)."""
    return 2.0 * (ENVELOPE_CONSTANT / gamma**2) / (3.0 * gamma * order**3)


def weighted_sum(gamma: float, order: int) -> float:
    """Bound on W = sum_all k |k| |c_k|, the series' commutator amplification factor.

    |k| |c_k| = |X(gamma*k)|, so no coefficient table is formed: W is
    2 sum_{k=1..K} |X(gamma*k)| plus the envelope's remainder
    sum_{|k|>K} |k| C/(gamma^3 k^4) <= C/(gamma^3 K^2) = 1.5 K tail.
    K is an int, as choose_truncation returns.
    """
    damp = kernel_transform(gamma, np.arange(1, order + 1))
    return 2.0 * float(np.sum(np.abs(damp))) + 1.5 * order * _envelope_tail(gamma, order)


def choose_truncation(gamma: float, target: float) -> int:
    """Smallest K with _envelope_tail(gamma, K) <= target.

    Raises PreconditionError, naming the order, when it exceeds
    MAX_TRUNCATION_ORDER.
    """
    if not 0 < gamma < np.pi or not target > 0:
        raise InvalidInputError(f"need 0 < gamma < pi and target > 0, got {gamma} and {target}")
    # log10 of the real K solving the tail equation, taken in logs so that
    # no gamma or target overflows it; a decade past the cap, where gamma^2
    # may underflow, no tail is formed
    digits = (math.log10(2.0 * ENVELOPE_CONSTANT / 3.0) - 3.0 * math.log10(gamma)
              - math.log10(target)) / 3.0
    far_past_cap = digits > math.log10(MAX_TRUNCATION_ORDER) + 1.0
    if far_past_cap or _envelope_tail(gamma, MAX_TRUNCATION_ORDER) > target:
        raise PreconditionError(f"gamma = {gamma}, target = {target} need truncation order ~"
                                f"{10 ** (digits % 1):.1f}e{int(digits)} > {MAX_TRUNCATION_ORDER}")
    k = max(1, math.ceil(10.0**digits))
    while k > 1 and _envelope_tail(gamma, k - 1) <= target:
        k -= 1
    while _envelope_tail(gamma, k) > target:
        k += 1
    return k


def gapped_log(u, gamma: float, trunc_order: int) -> tuple[HermitianMatrix, LaurentCoefficients]:
    """Hermitian H = g_K(U) = sum_{|k|<=K} c_k U^k, K = trunc_order, with exp(iH) = U.

    Requires the spectrum of U to stay more than gamma away from angle 0
    (gap centered there). For any valid (gamma, K) the returned tail bounds
    |g_K(theta) - theta| on the eigenangles; choose_truncation picks the K
    whose tail meets a target. g_K is summed on the eigenangles:
    M = Z diag(g_K(theta)) Z^H is made exactly Hermitian by hermitian_part,
    H = (M + M^H)/2 with defect 0.
    An Eigensystem, such as the one center_gap returns, is used as given;
    any other input is decomposed here. H is thus g_K of the reconstruction
    U~ = Z e^{i*Theta} Z^H, within weighted_sum(gamma, K) * r of the series in U
    for any r >= |U~ - U|, such as the eigensystem's residual.
    """
    es = u if isinstance(u, Eigensystem) else unitary_eigensystem(u)
    measured = es.margin
    if not gamma < measured:
        raise PreconditionError(
            f"smoothing width gamma = {gamma} not below measured gap half-width {measured:.6f}"
        )
    lc = laurent_coefficients(gamma, trunc_order)
    return hermitian_part((es.basis * lc.evaluate(es.angles)) @ es.basis.conj().T), lc


def direct_log(u) -> HermitianMatrix:
    """Principal-branch log by eigendecomposition: H = sum_j phi_j v_j v_j^H.

    Eigenangles are taken in (0, 2pi); an angle within 1e-9 of the branch
    cut at 0 is rejected as ambiguous. An Eigensystem, such as the one
    center_gap returns, is used as given; any other input is decomposed
    here. On the centered eigensystem, the log of near_commuting_unitaries
    and nearcomm log; on any input, the oracle for the series log.
    """
    es = u if isinstance(u, Eigensystem) else unitary_eigensystem(u)
    if es.margin < 1e-9:
        raise BranchPointError(f"eigenangle within {es.margin:.3e} of the branch point at angle 0")
    return hermitian_part((es.basis * es.angles) @ es.basis.conj().T)
