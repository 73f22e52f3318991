"""Smoothed-sawtooth coefficients and the series logarithm, against oracles."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from nearcomm import (
    BranchPointError,
    InvalidInputError,
    PreconditionError,
    choose_truncation,
    cli,
    direct_log,
    evaluate_smoothed_sawtooth,
    gapped_log,
    gen_gapped_unitary,
    laurent_coefficients,
    operator_norm,
    pipeline,
)
from nearcomm.gapped_log import (
    ENVELOPE_CONSTANT,
    MAX_TRUNCATION_ORDER,
    _envelope_tail,
    kernel_transform,
    weighted_sum,
)
from nearcomm.linalg import HermitianMatrix, herm_exp, hermiticity_defect
from nearcomm.spectral import Eigensystem, center_gap, unitary_eigensystem


# The envelope constant's value, pinned: the truncation orders below are
# derived from it in exact rational arithmetic, not read from the function.
C = Fraction(26)


def exact_tail(gamma: float, order: int) -> Fraction:
    """2*C/(3*gamma^3*K^3), the envelope tail, in exact arithmetic."""
    return 2 * C / (3 * Fraction(gamma) ** 3 * order**3)


def smallest_order(gamma: float, target: float) -> int:
    """Smallest K with exact_tail(gamma, K) <= target, by bisection."""
    lo, hi = 1, 1
    while exact_tail(gamma, hi) > Fraction(target):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if exact_tail(gamma, mid) <= Fraction(target) else (mid + 1, hi)
    return lo


def kernel_transform_quadrature(gamma: float, t: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    f = lambda x: (1 - (x / gamma) ** 2) ** 3 * np.cos(t * x)
    val, _ = quad(f, -gamma, gamma, epsabs=1e-13, epsrel=1e-13, limit=500)
    return 35.0 / (32.0 * gamma) * val


class TestKernelTransform:
    def test_unit_mass(self):
        assert kernel_transform(0.5, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_against_quadrature_at_pi(self):
        assert kernel_transform(1.0, np.pi) == pytest.approx(
            kernel_transform_quadrature(1.0, np.pi), abs=1e-10
        )

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.5])
    def test_against_quadrature_both_branches(self, gamma):
        # points straddle the Taylor/closed-form switch at |gamma*t| = 2
        for t in [0.05, 0.7, 1.9 / gamma, 2.1 / gamma, 5.0, 40.0]:
            ours = kernel_transform(gamma, t)
            oracle = kernel_transform_quadrature(gamma, t)
            assert ours == pytest.approx(oracle, abs=1e-10), (gamma, t)

    def test_even(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g, t = rng.uniform(0.05, 2.0), rng.uniform(-50, 50)
            assert kernel_transform(g, t) == kernel_transform(g, -t)

    def test_vectorized_matches_scalar(self):
        ts = np.linspace(-10, 10, 23)
        vec = kernel_transform(0.7, ts)
        assert np.allclose(vec, [kernel_transform(0.7, t) for t in ts], atol=1e-15)

    def test_rejects_bad_gamma(self):
        with pytest.raises(InvalidInputError):
            kernel_transform(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            kernel_transform(-1.0, 1.0)


class TestSmoothedCoefficients:
    def test_c0_is_pi(self):
        for gamma, order in [(0.5, 50), (0.3, 20), (2.9, 10)]:
            lc = laurent_coefficients(gamma, order)
            assert lc.coefficient(0) == pytest.approx(np.pi, abs=1e-10)
            # mean preservation oracle: the kernel integrates to exactly 1
            mass, _ = quad(
                lambda x: 35.0 / (32.0 * gamma) * (1 - (x / gamma) ** 2) ** 3,
                -gamma,
                gamma,
                epsabs=1e-13,
            )
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_envelope_by_construction(self):
        lc = laurent_coefficients(0.5, 100)
        k = np.arange(1, 101)
        pos = np.abs(lc.coeffs[lc.trunc_order + 1:])
        assert np.all(pos * lc.gamma * k**4 <= lc.c_emp * (1 + 1e-14))
        assert np.isfinite(lc.c_emp)
        assert np.all(pos <= np.pi)

    def test_conjugate_symmetry_exact(self):
        lc = laurent_coefficients(0.4, 64)
        for k in range(1, 65):
            assert lc.coefficient(-k) == np.conj(lc.coefficient(k))

    @pytest.mark.parametrize("bad", [10.5, 10.0, float("nan"), 0, -3])
    def test_rejects_non_integral_order(self, bad):
        # 10.5 used to build 23 coefficients under trunc_order = 10
        with pytest.raises(InvalidInputError, match="truncation order"):
            laurent_coefficients(0.5, bad)

    @pytest.mark.parametrize("gamma", [0.0, np.pi, float("nan")])
    def test_rejects_gamma_outside_open_interval(self, gamma):
        with pytest.raises(InvalidInputError, match=r"gamma must lie in \(0, pi\)"):
            laurent_coefficients(gamma, 10)

    def test_coefficient_beyond_the_order_rejected(self):
        lc = laurent_coefficients(0.5, 10)
        for k in (11, -11):
            with pytest.raises(InvalidInputError, match="beyond truncation order 10"):
                lc.coefficient(k)

    def test_accepts_numpy_integer_order(self):
        lc = laurent_coefficients(0.5, np.int64(10))
        assert lc.trunc_order == 10 and lc.coeffs.shape == (21,)

    def test_tail_formula(self):
        # the envelope tail 2*C/(3*gamma^3*K^3), not the measured c_emp's
        lc = laurent_coefficients(0.5, 100)
        assert ENVELOPE_CONSTANT == C
        assert lc.tail == pytest.approx(float(exact_tail(0.5, 100)), rel=1e-14)
        assert lc.tail == pytest.approx(52 / 375_000, rel=1e-14)

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 1.0, 2.0, 3.1])
    @pytest.mark.parametrize("order", [1, 2, 5, 26, 100])
    def test_tail_bounds_the_remainder(self, gamma, order):
        # sum_{K < |k| <= M} |c_k| summed directly, plus the envelope beyond
        # M (proved by test_envelope_constant_bounds_the_supremum). The grid
        # includes gamma*K below the envelope's peak at s = 4.51, where a
        # maximum over k <= K alone understates the constant: at (0.1, 26),
        # the order nearcomm log --gamma 0.1 --target 1 picks, the
        # remainder exceeds 0.632
        m = order + 20_000
        k = np.arange(order + 1, m + 1)
        remainder = 2.0 * np.sum(np.abs(kernel_transform(gamma, k)) / k)
        beyond = float(exact_tail(gamma, m))
        assert laurent_coefficients(gamma, order).tail >= remainder + beyond

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 3.1])
    @pytest.mark.parametrize("order", [1, 5, 100])
    def test_weighted_sum_bounds_the_whole_series(self, gamma, order):
        # sum_{|k| <= M} |k||c_k| summed directly, plus the envelope's
        # C/(gamma^3 M^2) beyond M, against the bound taken at order K
        m = order + 20_000
        k = np.arange(1, m + 1)
        full = 2.0 * np.sum(np.abs(kernel_transform(gamma, k))) + float(C) / (gamma**3 * m**2)
        lc = laurent_coefficients(gamma, order)
        assert weighted_sum(gamma, order) >= full
        k = np.arange(-order, order + 1)
        assert weighted_sum(gamma, order) == pytest.approx(
            np.sum(np.abs(k) * np.abs(lc.coeffs)) + 1.5 * order * lc.tail, rel=1e-14)

    @pytest.mark.parametrize("gamma", [0.01, 0.1, 1.0, 3.0])
    @pytest.mark.parametrize("order", [1, 26, 25_880, 517_596])
    def test_weighted_sum_equals_the_table(self, gamma, order):
        # the table's sum_{|k| <= K} |k||c_k| plus 1.5 K tail is the reference
        lc = laurent_coefficients(gamma, order)
        k = np.arange(-order, order + 1)
        ref = float(np.sum(np.abs(k) * np.abs(lc.coeffs))) + 1.5 * order * lc.tail
        assert abs(weighted_sum(gamma, order) - ref) <= 8 * np.finfo(float).eps * ref

    def test_order_above_the_cap_rejected_before_allocating(self):
        # 10^12 orders would take 96 TB; the check comes first
        for order in (MAX_TRUNCATION_ORDER + 1, 10**12, np.int64(10**12)):
            with pytest.raises(InvalidInputError, match="truncation order"):
                laurent_coefficients(0.5, order)

    def test_envelope_does_not_grow(self):
        # decay check without plots: the high-k half of the envelope never
        # exceeds the low-k half by more than 50%
        for gamma in (0.2, 0.5, 1.0):
            lc = laurent_coefficients(gamma, 128)
            k = np.arange(1, 129)
            env = np.abs(lc.coeffs[lc.trunc_order + 1:]) * gamma * k**4
            assert np.max(env[64:]) <= 1.5 * np.max(env[:64])


class TestEvaluateSmoothedSawtooth:
    def test_recovers_identity_at_pi(self):
        assert evaluate_smoothed_sawtooth(np.pi, 0.5, 200) == pytest.approx(np.pi, abs=1e-4)

    def test_recovers_identity_within_tail(self):
        lc = laurent_coefficients(0.25, 500)
        got = evaluate_smoothed_sawtooth(np.pi / 2, 0.25, 500)
        assert abs(got - np.pi / 2) <= lc.tail

    def test_identity_on_grid(self):
        gamma, order = 0.5, 400
        lc = laurent_coefficients(gamma, order)
        for theta in np.linspace(gamma + 0.1, 2 * np.pi - gamma - 0.1, 101):
            assert abs(evaluate_smoothed_sawtooth(theta, gamma, order) - theta) <= lc.tail

    def test_smoothing_window_stays_bounded(self):
        val = evaluate_smoothed_sawtooth(0.0, 0.5, 300)
        assert 0.0 <= val <= 2 * np.pi


class TestChooseTruncation:
    def test_exact_boundary(self):
        # at gamma = 1 the K = 1 tail is 2*26/3, which float(Fraction) rounds
        # as the float expression does: that target gives K = 1, one ulp
        # less gives K = 2 (tail 52/24)
        target = float(2 * C / 3)
        assert choose_truncation(1.0, target) == 1
        assert choose_truncation(1.0, np.nextafter(target, 0.0)) == 2

    def test_target_equal_to_a_tail_returns_its_order(self):
        # the float estimate lands on K or K + 1; either way the tail at K
        # itself meets the target
        for gamma in (0.3, 0.7, 2.0):
            for order in range(1, 300):
                assert choose_truncation(gamma, _envelope_tail(gamma, order)) == order

    def test_coefficient_tail_meets_target(self):
        for gamma in (0.02, 0.1, 0.37, 1.0, 2.0, 3.1):
            for target in (1e-3, 1e-6, 1e-8):
                k = choose_truncation(gamma, target)
                assert laurent_coefficients(gamma, k).tail <= target, (gamma, target)

    def test_closed_form_inversion(self):
        # smallest K with 52/(3e-6 * K^3) <= 1: 258^3 < 5.2e7/3 <= 259^3
        assert 258**3 < 2 * C / (3 * Fraction(1e-6)) <= 259**3
        assert smallest_order(1.0, 1e-6) == 259
        assert choose_truncation(1.0, 1e-6) == 259

    def test_gamma_doubling_scaling(self):
        # the tail scales as 1/gamma^3, so halving gamma doubles K up to the
        # ceiling: 1202 at gamma = 1 and 2403 = 2*1202 - 1 at gamma = 1/2
        k1 = choose_truncation(0.5, 1e-8)
        k2 = choose_truncation(1.0, 1e-8)
        assert (k1, k2) == (smallest_order(0.5, 1e-8), smallest_order(1.0, 1e-8)) == (2403, 1202)
        assert k1 in (2 * k2 - 1, 2 * k2)

    def test_result_is_minimal(self):
        for gamma, target in [(0.3, 1e-5), (1.7, 1e-3), (0.1, 1.0)]:
            k = choose_truncation(gamma, target)
            assert exact_tail(gamma, k) <= Fraction(target)
            if k > 1:
                assert exact_tail(gamma, k - 1) > Fraction(target)
        assert [choose_truncation(g, t) for g, t in [(0.3, 1e-5), (1.7, 1e-3), (0.1, 1.0)]] == [
            401, 16, 26]

    def test_default_constant_covers_measurements(self):
        # the built-in envelope constant must upper-bound measured decay
        # constants (rescaled by gamma^2) on fine and coarse grids alike
        for gamma in (0.05, 0.1, 0.37, 1.0, 2.0):
            lc = laurent_coefficients(gamma, 2048)
            assert lc.c_emp * gamma**2 <= ENVELOPE_CONSTANT

    def test_envelope_constant_bounds_the_supremum(self):
        # ENVELOPE_CONSTANT >= sup_s s^3 |X(s)| for X = kernel_transform(1, .),
        # on three ranges that cover s >= 0
        # [0, 2]: X transforms a nonnegative unit-mass kernel, so |X| <= 1
        s = np.linspace(0.0, 2.0, 2001)
        assert np.all(np.abs(kernel_transform(1.0, s)) <= 1.0 + 1e-15)
        assert 2.0**3 * 1.0 <= ENVELOPE_CONSTANT
        # [2, 9]: s^3 X(s) = 105 cos/s - 630 sin/s^2 - 1575 cos/s^3 + 1575 sin/s^4
        # has |derivative| <= lip(2), the termwise bound below, which falls in s;
        # between grid points h apart it moves at most lip(2) * h/2
        lip = lambda s: (105 * (1 / s + 1 / s**2) + 630 * (1 / s**2 + 2 / s**3)
                         + 1575 * (1 / s**3 + 3 / s**4) + 1575 * (1 / s**4 + 4 / s**5))
        h = 5e-4
        s = np.linspace(2.0, 9.0, round(7.0 / h) + 1)
        peak = float(np.max(s**3 * np.abs(kernel_transform(1.0, s))))
        assert 25.38 < peak < 25.39
        assert peak + lip(2.0) * h / 2 + 1e-12 <= ENVELOPE_CONSTANT
        # [9, inf): s^3 |X(s)| <= 105/s + 630/s^2 + 1575/s^3 + 1575/s^4, falling in s
        at9 = Fraction(105, 9) + Fraction(630, 81) + Fraction(1575, 729) + Fraction(1575, 6561)
        assert at9 < 22 <= ENVELOPE_CONSTANT


class TestTruncationCap:
    def test_cap_admits_every_documented_order(self):
        # the largest order a test or the docs use: gamma = 5e-4 at 1e-6
        assert choose_truncation(5e-4, 1e-6) == 517_596 <= MAX_TRUNCATION_ORDER

    def test_order_past_the_cap_raises(self):
        # the uncapped search returned K ~ 5e20 after half a second
        with pytest.raises(PreconditionError, match=r"truncation order ~5\.2e20"):
            choose_truncation(0.5, 1e-60)
        with pytest.raises(PreconditionError, match="truncation order"):
            choose_truncation(0.5, 1e-20)

    def test_cap_is_exact(self):
        target = _envelope_tail(0.5, MAX_TRUNCATION_ORDER)
        assert choose_truncation(0.5, target) == MAX_TRUNCATION_ORDER
        with pytest.raises(PreconditionError):
            choose_truncation(0.5, np.nextafter(target, 0.0))

    @pytest.mark.parametrize("gamma, target", [
        (0.5, 5e-324),  # overflowed the first estimate's ceil
        (1e-9, 1e-6),
        (1e-200, 1e-6),  # gamma^2 underflows to 0
        (1e-200, 1e300),
    ])
    def test_extreme_inputs_raise_the_precondition(self, gamma, target):
        with pytest.raises(PreconditionError, match="truncation order"):
            choose_truncation(gamma, target)

    @pytest.mark.parametrize("gamma, target", [
        (0.0, 1e-6), (-1.0, 1e-6), (float("nan"), 1e-6), (np.pi, 1e-6), (float("inf"), 1e-6),
        (1e200, 1e-6), (0.5, 0.0), (0.5, -1.0), (0.5, float("nan")),
    ])
    def test_rejects_bad_parameters(self, gamma, target):
        with pytest.raises(InvalidInputError):
            choose_truncation(gamma, target)

    def test_infinite_target_needs_one_term(self):
        assert choose_truncation(0.5, float("inf")) == 1


class TestCertifiedTruncation:
    def test_is_choose_truncation(self):
        # bound under this name in the two modules the benchmark's tracer wraps
        assert pipeline.certified_truncation is cli.certified_truncation is choose_truncation

class TestGappedLog:
    def test_diagonal_example(self):
        u = np.diag([1j, -1j])
        order = choose_truncation(1.0, 1e-6)
        h, lc = gapped_log(u, 1.0, order)
        assert operator_norm(h.mat - np.diag([np.pi / 2, 3 * np.pi / 2])) <= 1e-6

    def test_scalar_minus_one(self):
        h, _ = gapped_log(np.array([[-1.0 + 0j]]), 2.0, choose_truncation(2.0, 1e-6))
        assert h.mat[0, 0] == pytest.approx(np.pi, abs=1e-6)

    def test_matches_direct_log(self):
        u = gen_gapped_unitary(32, 0.8, 99)
        es, gap = center_gap(u)
        order = choose_truncation(0.6, 1e-6)
        h, lc = gapped_log(es, 0.6, order)
        oracle = direct_log(np.exp(-1j * gap.center) * u.mat)
        assert operator_norm(h.mat - oracle.mat) <= lc.tail

    def test_exactly_hermitian(self):
        u = gen_gapped_unitary(12, 0.7, 5)
        es, gap = center_gap(u)
        h, lc = gapped_log(es, 0.35, choose_truncation(0.35, 1e-6))
        assert h.defect <= 1e-12 * 12 * lc.trunc_order
        # every exactly symmetrized result records defect 0, and measuring agrees
        oracle = direct_log(np.exp(-1j * gap.center) * u.mat)
        for m in (h, oracle):
            assert m.defect == 0.0 == hermiticity_defect(m.mat)

    def test_builds_its_log_once(self, monkeypatch):
        # one copy, finiteness scan and Frobenius check per log
        es, gap = center_gap(gen_gapped_unitary(12, 0.7, 5))
        gamma = gap.half_width / 2
        built = []
        post_init = HermitianMatrix.__post_init__

        def counting(self):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(HermitianMatrix, "__post_init__", counting)
        gapped_log(es, gamma, choose_truncation(gamma, 1e-6))
        assert built == ["HermitianMatrix"]

    def test_spectrum_in_branch_window(self):
        es, gap = center_gap(gen_gapped_unitary(16, 0.9, 17))
        h, lc = gapped_log(es, gap.half_width / 2, choose_truncation(gap.half_width / 2, 1e-6))
        w = np.linalg.eigvalsh(h.mat)
        assert np.all(w > gap.half_width - lc.tail)
        assert np.all(w < 2 * np.pi - gap.half_width + lc.tail)

    def test_round_trip_exponential(self):
        u = gen_gapped_unitary(10, 1.1, 23)
        es, gap = center_gap(u)
        h, _ = gapped_log(es, gap.half_width / 2, choose_truncation(gap.half_width / 2, 1e-6))
        assert operator_norm(herm_exp(h).mat - np.exp(-1j * gap.center) * u.mat) <= 1e-8 * 10

    def test_gap_precondition_error_carries_measurement(self):
        u = np.diag([1j, -1j])  # spectrum distance pi/2 from angle 0
        with pytest.raises(PreconditionError, match="1.570"):
            gapped_log(u, 2.0, 50)

    @pytest.mark.parametrize("order", [1, 3])
    def test_any_explicit_order_is_certified_by_its_tail(self, order):
        # no target is checked: a short series returns g_K, and its tail
        # (17.3 at K = 1, 0.642 at K = 3) bounds the distance to the log
        u = np.diag([1j, -1j])
        h, lc = gapped_log(u, 1.0, order)
        assert lc.trunc_order == order
        assert operator_norm(h.mat - direct_log(u).mat) <= lc.tail

    def test_centered_input_matches_plain_array(self):
        # the centered eigensystem is that of U, the plain array's that of
        # exp(-i*zeta)*U; each H is within weighted_sum * r of the series in
        # the same matrix
        u = gen_gapped_unitary(16, 0.7, 41)
        es, gap = center_gap(u)
        plain = np.exp(-1j * gap.center) * u.mat
        gamma = gap.half_width / 2
        order = choose_truncation(gamma, 1e-6)
        h_centered, lc = gapped_log(es, gamma, order)
        h_plain, _ = gapped_log(plain, gamma, order)
        r_centered = es.residual
        r_plain = unitary_eigensystem(plain).residual
        bound = (weighted_sum(gamma, order) * (r_centered + r_plain)
                 + 1e-13 * np.sum(np.abs(lc.coeffs)))
        assert operator_norm(h_centered.mat - h_plain.mat) <= bound

    def test_centered_and_plain_reject_gamma_beyond_gap(self):
        u = gen_gapped_unitary(16, 0.7, 41)
        es, gap = center_gap(u)
        for gamma in (gap.half_width * (1 + 1e-9), 1.1 * gap.half_width):
            for centered in (es, np.exp(-1j * gap.center) * u.mat):
                with pytest.raises(PreconditionError):
                    gapped_log(centered, gamma, 50)


def term_by_term(u, coeffs):
    """Reference: sum_k coeffs[k-1] u^k accumulated one power at a time."""
    acc = np.zeros_like(u)
    power = np.eye(u.shape[0], dtype=np.complex128)
    for c in coeffs:
        power = power @ u
        acc += c * power
    return acc


class TestPatersonStockmeyer:
    # The series on the eigenangles against term-by-term powers of U (the
    # name, of the matrix-power evaluator the class first checked, is kept
    # so that its test ids stay stable). H summed on the eigenangles is the
    # matrix series in U itself, up to weighted_sum * r for the
    # reconstruction residual r. K crosses the evaluator's block
    # boundaries: s = floor(sqrt K) steps up at 4, 9 and 16, and K = m*s is
    # followed by K = m*s + 1
    @pytest.mark.parametrize("n", [1, 5, 32])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 9, 10, 15, 16, 17, 1000])
    def test_matches_term_by_term(self, n, order):
        u = gen_gapped_unitary(n, 0.6, 100 * n + order)
        es, gap = center_gap(u)
        h, lc = gapped_log(es, gap.half_width / 2, order)
        t = term_by_term(np.exp(-1j * gap.center) * u.mat, lc.coeffs[order + 1:])
        series = t + t.conj().T + np.pi * np.eye(n)
        bound = weighted_sum(lc.gamma, order) * es.residual + 1e-13 * np.sum(np.abs(lc.coeffs))
        assert operator_norm(h.mat - series) <= bound

    def test_narrow_gap_long_series_within_tail(self):
        # gamma = 0.01 needs K = 25880 terms for the default 1e-6 target
        u = gen_gapped_unitary(16, 0.02, 7)
        h, lc = gapped_log(u, 0.01, choose_truncation(0.01, 1e-6))
        assert lc.trunc_order == 25880
        assert operator_norm(h.mat - direct_log(u).mat) <= lc.tail


class TestDirectLog:
    def test_identity_hits_branch_point(self):
        with pytest.raises(BranchPointError):
            direct_log(np.eye(3))
        # an angle exactly at 0 has margin 0, which the message names
        es = Eigensystem(np.array([0.0, 1.0]), np.eye(2))
        assert es.margin == 0.0
        with pytest.raises(BranchPointError,
                           match=r"^eigenangle within 0\.000e\+00 of the branch point at angle 0$"):
            direct_log(es)

    def test_diagonal(self):
        u = np.diag([np.exp(1j), np.exp(2j)])
        h = direct_log(u)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h.mat)), [1.0, 2.0], atol=1e-12)

    def test_round_trip(self):
        u = gen_gapped_unitary(14, 0.5, 31)
        _, gap = center_gap(u)
        centered = np.exp(-1j * gap.center) * u.mat
        h = direct_log(centered)
        assert operator_norm(herm_exp(h).mat - centered) <= 1e-8 * 14

