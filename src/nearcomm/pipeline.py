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

from .errors import GapTooSmallError, InvalidInputError, NumericalError
from .gapped_log import _envelope_tail, direct_log, weighted_sum
from .jointdiag import nearest_commuting_pair
from .linalg import (
    COMMUTE_TOL,
    UnitaryMatrix,
    _frobenius_bound,
    as_square_array,
    certified_unitary,
    commutator,
    operator_norm,
    unitary_from_angles,
)
# bound under the names perfbench's tracer looks up; only certified_truncation is called here
from .gapped_log import choose_truncation as certified_truncation, gapped_log  # noqa: F401
from .linalg import herm_exp  # noqa: F401
from .spectral import Eigensystem, GapInfo, center_gap


@dataclass(frozen=True)
class PipelineOptions:
    """min_gap: each input's largest gap half-width must be above it, else GapTooSmallError."""

    min_gap: float = 0.1

    def __post_init__(self):
        # written so that NaN fails
        if not self.min_gap >= 0:
            raise InvalidInputError(f"min_gap must be nonnegative, got {self.min_gap}")


DEFAULT_OPTIONS = PipelineOptions()


@dataclass(frozen=True)
class BoundReport:
    """Commutator amplification of the two log series.

    [U^j, V^k] is a sum of |j||k| conjugated copies of [U, V], so the series
    logs' commutator is at most predicted = epsilon*alpha_emp, epsilon =
    |[U, V]| (PipelineResult.comm_before), alpha_emp = W_u*W_v the product of
    the full sums W = sum_k |k||c_k| (gapped_log.weighted_sum).
    measured_log_comm, the held logs' commutator, is checked against it.
    """

    alpha_emp: float
    predicted: float
    measured_log_comm: float


@dataclass(frozen=True)
class PipelineResult:
    """Commuting pair (x, y) with every measured distance and bound.

    gap1, gap2 are the largest gaps found on U and V; each input was
    centered at its gap's center, zeta = gap.center. tail1, tail2 bound
    each series' remainder past trunc_order1, trunc_order2; they
    enter only W's certified remainder, not the logs.
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
            "alpha_emp": self.bound.alpha_emp,
            "alpha_normalized": self.bound.alpha_emp * self.gap1.half_width * self.gap2.half_width,
            "predicted_bound": self.bound.predicted,
            "measured_log_comm": self.bound.measured_log_comm,
            "herm_dist_a": self.herm_dist_a,
            "herm_dist_b": self.herm_dist_b,
            "exp_dist_a": self.exp_dist_a,
            "exp_dist_b": self.exp_dist_b,
            "zeta1": self.gap1.center,
            "zeta2": self.gap2.center,
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


# the series tail that fixes K; it bounds only W's remainder, never a log
SERIES_TARGET = 1e-6


def log_certificate(
    es: Eigensystem, target: float = SERIES_TARGET
) -> tuple[float, int, float, float]:
    """(gamma, K, tail, W) of the series at gamma = min |theta| that certifies direct_log(es).

    K is the least order whose tail at gamma meets target: SERIES_TARGET in
    near_commuting_unitaries and by default in nearcomm log. gamma is kept
    below pi, which a scalar's theta = pi reaches.
    """
    gamma = min(es.margin, math.nextafter(math.pi, 0))
    order = certified_truncation(gamma, target)
    return gamma, order, _envelope_tail(gamma, order), weighted_sum(gamma, order)


def near_commuting_unitaries(
    u, v, opts: PipelineOptions = DEFAULT_OPTIONS
) -> PipelineResult:
    """Commuting unitary pair (X, Y) near the almost-commuting input (U, V).

    Each input is checked before any arithmetic on it: center_gap trusts a
    UnitaryMatrix and checks a plain array by UnitaryMatrix.from_array, and
    only then is |[U, V]| taken. Rejects inputs whose largest spectral gap
    half-width is at or below opts.min_gap. The returned pair commutes
    within the commute tolerance; the result carries all measured
    distances and the bound report.

    center_gap returns U's gap and the eigensystem (Z, Theta) of the
    centered input U_c = e^{-i*zeta1} U, zeta1 = gap1.center; U_c itself
    is never formed. The smoothed sawtooth g(theta) = sum_all c_k
    e^{ik*theta} equals theta on [gamma, 2pi - gamma] (its bump is
    symmetric with unit mass), and a function of a normal matrix is that
    function on its eigenvalues, so for gamma_u <= es_u.margin =
    min_j |theta_j| the log H_u = Z diag(Theta) Z^H, which
    direct_log takes on the eigensystem as given, is g(U~),
    the full series in the reconstruction U~ = Z e^{i*Theta} Z^H, not in
    U_c; r_u >= |U~ - U_c| is the certified bound on that residual which
    the eigensystem carries, es_u.residual below. The coefficients enter
    only through W_u = sum_all |k||c_k| (gapped_log.weighted_sum).
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
      |H_u| and |H_v| enter this slack as the rounded-up Frobenius norms
      of the logs held, which bound their operator norms.
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
    es_u, gap1 = center_gap(u)
    es_v, gap2 = center_gap(v)
    eps = operator_norm(commutator(a_u, a_v))
    if gap1.half_width <= opts.min_gap or gap2.half_width <= opts.min_gap:
        raise GapTooSmallError(
            f"gap half-widths ({gap1.half_width:.6f}, {gap2.half_width:.6f}) "
            f"not above min_gap = {opts.min_gap}",
            gaps=(gap1.half_width, gap2.half_width),
        )

    log_u, log_v = direct_log(es_u), direct_log(es_v)
    gamma1, order1, tail1, w_u = log_certificate(es_u)
    gamma2, order2, tail2, w_v = log_certificate(es_v)

    measured_log_comm = operator_norm(commutator(log_u, log_v))
    alpha = w_u * w_v
    bound = BoundReport(alpha_emp=alpha, predicted=eps * alpha, measured_log_comm=measured_log_comm)
    err_u, err_v = w_u * es_u.residual, w_v * es_v.residual
    norm_u, norm_v = _frobenius_bound(log_u.mat), _frobenius_bound(log_v.mat)
    slack = 2.0 * (err_u * norm_v + err_v * (norm_u + err_u))
    if measured_log_comm > bound.predicted + slack + 1e-12 * n:
        raise NumericalError(
            f"log commutator {measured_log_comm:.3e} exceeds predicted bound "
            f"{bound.predicted:.3e} plus slack {slack:.3e}"
        )

    pair = nearest_commuting_pair(log_u, log_v)

    x_mat = unitary_from_angles(pair.basis, pair.diag_a + gap1.center)
    y_mat = unitary_from_angles(pair.basis, pair.diag_b + gap2.center)
    ref_u = unitary_from_angles(es_u.basis, es_u.angles + gap1.center)
    ref_v = unitary_from_angles(es_v.basis, es_v.angles + gap2.center)
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
        gap1=gap1,
        gap2=gap2,
        gamma1=gamma1,
        gamma2=gamma2,
        trunc_order1=order1,
        trunc_order2=order2,
        tail1=tail1,
        tail2=tail2,
        converged=pair.converged,
        sweeps=pair.sweeps,
    )
