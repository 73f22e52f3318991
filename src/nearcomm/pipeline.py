"""End-to-end construction of a commuting unitary pair near an almost-commuting one.

Steps: center each input's spectral gap at angle 0, take the log of each
exactly on its centered eigensystem, replace the two logs by the nearest
commuting Hermitian pair, and exponentiate with the phases restored, on
the eigenbases those steps already computed. Every inequality used along
the way (commutator amplification of the smoothed series, Lipschitz bound
of the exponential, residual slack) is measured and checked on each run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GapTooSmallError, InvalidInputError, NumericalError
from .gapped_log import LaurentCoefficients, certified_truncation, laurent_coefficients
from .jointdiag import check_max_sweeps, nearest_commuting_pair
from .linalg import (
    COMMUTE_TOL,
    HermitianMatrix,
    UnitaryMatrix,
    _frobenius_bound,
    as_square_array,
    certified_unitary,
    commutator,
    hermitian_part,
    operator_norm,
    unitary_from_angles,
)
# not called here: bound only because perfbench's tracer looks up these two names
from .gapped_log import gapped_log  # noqa: F401
from .linalg import herm_exp  # noqa: F401
from .spectral import Eigensystem, GapInfo, center_gap, wrap_to_pi


@dataclass(frozen=True)
class PipelineOptions:
    min_gap: float = 0.1
    series_target: float = 1e-6
    max_sweeps: int = 100

    def __post_init__(self):
        # written so that NaN fails both
        if not self.min_gap >= 0:
            raise InvalidInputError(f"min_gap must be nonnegative, got {self.min_gap}")
        if not self.series_target > 0:
            raise InvalidInputError(f"series_target must be positive, got {self.series_target}")
        check_max_sweeps(self.max_sweeps)


DEFAULT_OPTIONS = PipelineOptions()


@dataclass(frozen=True)
class BoundReport:
    """Commutator amplification of the two log series.

    alpha_emp = W_u*W_v is the product of each coefficient set's full sum
    W = sum_k |k||c_k| (LaurentCoefficients.weighted_sum); the commutator of
    the logs is bounded by epsilon * alpha_emp up to residual slack.
    alpha_normalized rescales by delta1*delta2, the gap-free form of the same constant.
    """

    epsilon: float
    delta1: float
    delta2: float
    alpha_emp: float
    alpha_normalized: float
    predicted: float
    measured_log_comm: float


@dataclass(frozen=True)
class PipelineResult:
    """Commuting pair (x, y) with every measured distance and bound.

    tail1, tail2 bound each coefficient set's remainder past trunc_order1,
    trunc_order2; they enter only W's certified remainder, not the logs.
    """

    x: UnitaryMatrix
    y: UnitaryMatrix
    dist_u: float
    dist_v: float
    comm_before: float
    comm_after: float
    bound: BoundReport
    herm_dist_a: float
    herm_dist_b: float
    exp_dist_a: float
    exp_dist_b: float
    zeta1: float
    zeta2: float
    gap1: GapInfo
    gap2: GapInfo
    gamma1: float
    gamma2: float
    trunc_order1: int
    trunc_order2: int
    tail1: float
    tail2: float
    converged: bool
    sweeps: int

    def flat(self) -> dict[str, float | int | bool]:
        """Scalar summary, suitable for key=value or CSV output."""
        return {
            "n": self.x.n,
            "dist_u": self.dist_u,
            "dist_v": self.dist_v,
            "comm_before": self.comm_before,
            "comm_after": self.comm_after,
            "epsilon": self.bound.epsilon,
            "alpha_emp": self.bound.alpha_emp,
            "alpha_normalized": self.bound.alpha_normalized,
            "predicted_bound": self.bound.predicted,
            "measured_log_comm": self.bound.measured_log_comm,
            "herm_dist_a": self.herm_dist_a,
            "herm_dist_b": self.herm_dist_b,
            "exp_dist_a": self.exp_dist_a,
            "exp_dist_b": self.exp_dist_b,
            "zeta1": self.zeta1,
            "zeta2": self.zeta2,
            "delta1": self.gap1.half_width,
            "delta2": self.gap2.half_width,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "trunc_order1": self.trunc_order1,
            "trunc_order2": self.trunc_order2,
            "tail1": self.tail1,
            "tail2": self.tail2,
            "defect_x": self.x.defect,
            "defect_y": self.y.defect,
            "converged": self.converged,
            "sweeps": self.sweeps,
        }


def log_commutator_bound(
    coeffs_u: LaurentCoefficients,
    coeffs_v: LaurentCoefficients,
    epsilon: float,
    delta1: float = float("nan"),
    delta2: float = float("nan"),
    measured_log_comm: float = float("nan"),
) -> BoundReport:
    """Bound on the commutator of the two series logs from their coefficients.

    The commutator of U^j and V^k expands into |j|*|k| conjugated copies of
    [U, V], so the series commutator is controlled by the product of the
    weighted coefficient sums.
    """
    su = coeffs_u.weighted_sum()
    sv = coeffs_v.weighted_sum()
    alpha = su * sv
    return BoundReport(
        epsilon=float(epsilon),
        delta1=float(delta1),
        delta2=float(delta2),
        alpha_emp=alpha,
        alpha_normalized=alpha * float(delta1) * float(delta2),
        predicted=float(epsilon) * alpha,
        measured_log_comm=float(measured_log_comm),
    )


def _log_norm_bound(values: np.ndarray, basis: np.ndarray) -> float:
    """Certified upper bound on |H| for the log H that _centered_log formed on basis Z.

    _centered_log computes M = fl(fl(Z diag(v)) Z^H) from the centered
    eigenangles v = values and H = fl((M + M^H)/2). With G = Z^H Z,
    eta >= |G - I|, m = max |v_j| and u the unit roundoff:

    - exactly, |Z diag(v) Z^H| <= m |Z|^2 = m |G| <= m (1 + eta);
    - each entry of the product is a complex inner product of length n
      whose real and imaginary parts are real ones of length 2n, so
      |M - Z diag(v) Z^H| <= p |Z| |diag(v)| |Z|^H entrywise, with
      p = (1 + u)(1 + g) - 1, g = sqrt(2) gamma_2n and
      gamma_k = k u/(1 - k u) (Higham, Accuracy and Stability of
      Numerical Algorithms, 3.1 and 3.6); the 2-norm of that entrywise
      bound is at most p m |Z|_F^2 = p m tr(G) <= p n m (1 + eta);
    - the symmetrization adds at most u to each entry's modulus, so
      |H| <= (1 + sqrt(n) u) |M|.

    Together |H| <= m (1 + eta)(1 + n p)(1 + sqrt(n) u) <=
    m (1 + eta)(1 + c n u) with c = 4 (n + 2), which covers
    n p + sqrt(n) u, their product and the rounding of this bound's own
    arithmetic. eta is measured on the computed G^:
    |G - I| <= |G^ - I|_F + |G^ - G|_F, the subtraction of I is exact
    (Sterbenz: the diagonal of G^ is near 1 for an eigh basis), and
    |G^ - G|_F <= g n (1 + eta), so eta = (f + n g)/(1 - n g) for f the
    Frobenius norm of G^ - I raised for its rounding as in gated_norm. The
    cost is one Z^H Z product and O(n^2) work; no decomposition.
    """
    n = basis.shape[0]
    u = np.finfo(float).eps / 2.0
    g = math.sqrt(2.0) * 2 * n * u / (1.0 - 2 * n * u)
    f = _frobenius_bound(basis.conj().T @ basis - np.eye(n))
    eta = (f + n * g) / (1.0 - n * g)
    return float(np.max(np.abs(values))) * (1.0 + eta) * (1.0 + 4.0 * (n + 2) * n * u)


def _centered_log(es: Eigensystem, target: float) -> tuple[HermitianMatrix, LaurentCoefficients]:
    """H = Z diag(theta) Z^H and the coefficients at gamma = min |theta|, which certify it.

    gamma is kept below pi, which a scalar's theta = pi reaches.
    """
    gamma = min(float(np.min(np.abs(wrap_to_pi(es.angles)))), math.nextafter(math.pi, 0))
    coeffs = laurent_coefficients(gamma, certified_truncation(gamma, target))
    return hermitian_part((es.basis * es.angles) @ es.basis.conj().T), coeffs


def near_commuting_unitaries(
    u, v, opts: PipelineOptions = DEFAULT_OPTIONS
) -> PipelineResult:
    """Commuting unitary pair (X, Y) near the almost-commuting input (U, V).

    Rejects inputs whose largest spectral gap half-width is at or below
    opts.min_gap. The returned pair commutes within the commute tolerance;
    the result carries all measured distances and the bound report.

    center_gap returns the eigensystem (Z, Theta) of the centered input
    U_c = e^{-i*zeta1} U; U_c itself is never formed. The smoothed sawtooth
    g(theta) = sum_all c_k e^{ik*theta} equals theta on [gamma, 2pi - gamma]
    (its bump is symmetric with unit mass), and a function of a normal
    matrix is that function on its eigenvalues, so for
    gamma_u <= min_j |theta_j| the log H_u = Z diag(Theta) Z^H is g(U~),
    the full series in the reconstruction U~ = Z e^{i*Theta} Z^H, not in
    U_c; r_u >= |U~ - U_c| is the certified bound on that residual which
    the eigensystem carries, es_u.residual below. The coefficients enter
    only through W_u = sum_all |k||c_k| (LaurentCoefficients.weighted_sum).
    The joint diagonalization returns the common basis Q and the diagonals
    a, b of A' and B'. No matrix is decomposed again and no series is
    summed: X = Q diag(e^{i(a + zeta1)}) Q^H = e^{i*zeta1} exp(iA') and Y
    likewise, and the Lipschitz check compares X with
    e^{i*zeta1} exp(iH_u) = Z diag(e^{i(Theta + zeta1)}) Z^H. The checks on
    the way account for r_u:

    - Log commutator. |U~^k - U_c^k| <= |k| r_u, so H_u = P_u + D_u with
      P_u = g(U_c) and |D_u| <= e_u = W_u*r_u. Then
          |[H_u, H_v]| <= |[P_u, P_v]| + |[D_u, H_v]| + |[P_u, D_v]|
                       <= eps*alpha + 2 e_u |H_v| + 2 e_v (|H_u| + e_u).
      |H_u| and |H_v| enter this slack through _log_norm_bound, an upper
      bound read off the angles on the carried basis Z: the largest
      |theta_j| raised by Z's measured departure from orthonormality and
      by the rounding of the product that formed H_u.
    - Distance, measured against U itself. exp(iH_u) = U~, and a scalar
      phase changes no norm:
          |X - U| = |exp(iA') - U_c|
                  <= |exp(iA') - exp(iH_u)| + |U~ - U_c|
                  <= |A' - H_u| + r_u.
    - Output unitarity and commutation. Each output's defect is measured
      once, and |[X, Y]| once; either above its tolerance raises
      NumericalError. Q has gathered every sweep's Cayley factor, so [X, Y]
      is zero only as far as Q is orthonormal, and the check enforces it.
    """
    a_u = as_square_array(u, "U")
    a_v = as_square_array(v, "V")
    n = a_u.shape[0]
    eps = operator_norm(commutator(a_u, a_v))

    es_u, zeta1, gap1 = center_gap(u)
    es_v, zeta2, gap2 = center_gap(v)
    if gap1.half_width <= opts.min_gap or gap2.half_width <= opts.min_gap:
        raise GapTooSmallError(
            f"gap half-widths ({gap1.half_width:.6f}, {gap2.half_width:.6f}) "
            f"not above min_gap = {opts.min_gap}",
            gaps=(gap1.half_width, gap2.half_width),
            min_gap=opts.min_gap,
        )

    log_u, coeffs_u = _centered_log(es_u, opts.series_target)
    log_v, coeffs_v = _centered_log(es_v, opts.series_target)

    measured_log_comm = operator_norm(commutator(log_u, log_v))
    bound = log_commutator_bound(
        coeffs_u, coeffs_v, eps, gap1.half_width, gap2.half_width, measured_log_comm
    )
    err_u = coeffs_u.weighted_sum() * es_u.residual
    err_v = coeffs_v.weighted_sum() * es_v.residual
    norm_u = _log_norm_bound(es_u.angles, es_u.basis)
    norm_v = _log_norm_bound(es_v.angles, es_v.basis)
    slack = 2.0 * (err_u * norm_v + err_v * (norm_u + err_u))
    if measured_log_comm > bound.predicted + slack + 1e-12 * n:
        raise NumericalError(
            f"log commutator {measured_log_comm:.3e} exceeds predicted bound "
            f"{bound.predicted:.3e} plus slack {slack:.3e}"
        )

    pair = nearest_commuting_pair(log_u, log_v, opts.max_sweeps)

    x_mat = unitary_from_angles(pair.basis, pair.diag_a + zeta1)
    y_mat = unitary_from_angles(pair.basis, pair.diag_b + zeta2)
    ref_u = unitary_from_angles(es_u.basis, es_u.angles + zeta1)
    ref_v = unitary_from_angles(es_v.basis, es_v.angles + zeta2)
    exp_dist_a = operator_norm(x_mat - ref_u)
    exp_dist_b = operator_norm(y_mat - ref_v)
    if exp_dist_a > pair.dist_a + 1e-10 * n or exp_dist_b > pair.dist_b + 1e-10 * n:
        raise NumericalError("exponentiation exceeded its Lipschitz bound")

    dist_u = operator_norm(x_mat - a_u)
    dist_v = operator_norm(y_mat - a_v)
    if dist_u > pair.dist_a + es_u.residual + 1e-10 * n:
        raise NumericalError("distance to X exceeds log distance plus residual slack")
    if dist_v > pair.dist_b + es_v.residual + 1e-10 * n:
        raise NumericalError("distance to Y exceeds log distance plus residual slack")

    x = certified_unitary(x_mat, "output X")
    y = certified_unitary(y_mat, "output Y")
    comm_after = operator_norm(commutator(x_mat, y_mat))
    if comm_after > COMMUTE_TOL * n:
        raise NumericalError(
            f"output commutator {comm_after:.3e} exceeds tolerance {COMMUTE_TOL * n:.3e}"
        )

    return PipelineResult(
        x=x,
        y=y,
        dist_u=dist_u,
        dist_v=dist_v,
        comm_before=eps,
        comm_after=comm_after,
        bound=bound,
        herm_dist_a=pair.dist_a,
        herm_dist_b=pair.dist_b,
        exp_dist_a=exp_dist_a,
        exp_dist_b=exp_dist_b,
        zeta1=zeta1,
        zeta2=zeta2,
        gap1=gap1,
        gap2=gap2,
        gamma1=coeffs_u.gamma,
        gamma2=coeffs_v.gamma,
        trunc_order1=coeffs_u.trunc_order,
        trunc_order2=coeffs_v.trunc_order,
        tail1=coeffs_u.tail,
        tail2=coeffs_v.tail,
        converged=pair.converged,
        sweeps=pair.sweeps,
    )
