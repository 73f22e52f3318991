"""End-to-end pipeline behavior and the commutator bound report."""

import contextlib
import dataclasses
import importlib
import importlib.util
import io
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcomm import (
    GapTooSmallError,
    InvalidInputError,
    NumericalError,
    PipelineOptions,
    choose_truncation,
    cli,
    commutator,
    direct_log,
    gapped_log,
    gen_almost_commuting_pair,
    gen_gapped_unitary,
    gen_voiculescu_pair,
    haar_unitary,
    jointdiag,
    linalg,
    mtxc,
    near_commuting_unitaries,
    nearest_commuting_pair,
    operator_norm,
    pipeline,
    spectral,
    stream_rng,
)
from nearcomm.gapped_log import LaurentCoefficients, weighted_sum
from nearcomm.spectral import Eigensystem, center_gap

# the package re-exports the function gapped_log under its module's name
gapped_log_module = importlib.import_module("nearcomm.gapped_log")

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def single_term_certificate(es) -> tuple[float, int, float, float]:
    """(gamma, K, tail, W) of c_{-1} = -i, c_0 = 0, c_1 = i: weighted sum 2."""
    return 1.0, 1, 0.0, 2.0


class TestLogCommutatorBound:
    """The bound report: alpha_emp = W_u*W_v and predicted = |[U, V]|*alpha_emp."""

    def test_zero_epsilon(self):
        res = near_commuting_unitaries(np.array([[np.exp(2.1j)]]), np.array([[np.exp(0.7j)]]))
        assert res.comm_before == res.flat()["comm_before"] == 0.0
        assert res.bound.predicted == 0.0

    def test_single_term_hand_value(self, monkeypatch):
        # sum |j| |c_j| = 2 per set, so alpha = 2 * 2 = 4
        monkeypatch.setattr(pipeline, "log_certificate", single_term_certificate)
        res = near_commuting_unitaries(*gen_almost_commuting_pair(6, 1.0, 1e-3, 23)[:2])
        assert res.bound.alpha_emp == pytest.approx(4.0, abs=1e-14)
        assert res.bound.predicted == res.comm_before * res.bound.alpha_emp
        assert res.flat()["comm_before"] == res.comm_before > 0

    def test_alpha_scales_inverse_gamma(self):
        # sum_k |k||c_k| = 2 sum_k |X(gamma k)| behaves like const/gamma, so
        # alpha over two equal sets should fit a log-log slope near -2
        gammas = np.array([0.2, 0.3, 0.5, 0.8])
        alphas = [weighted_sum(float(g), 2000) ** 2 for g in gammas]
        slope = np.polyfit(np.log(gammas), np.log(alphas), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.4)

    def test_normalized_constant(self):
        # flat() rescales alpha_emp by the two gap half-widths, in that order
        res = near_commuting_unitaries(*gen_almost_commuting_pair(4, 1.0, 1e-3, 19)[:2])
        flat = res.flat()
        gaps = (res.gap1.half_width, res.gap2.half_width)
        assert flat["alpha_normalized"] == res.bound.alpha_emp * gaps[0] * gaps[1]
        assert (flat["delta1"], flat["delta2"]) == gaps
        assert (flat["zeta1"], flat["zeta2"]) == (res.gap1.center, res.gap2.center)


class TestPipelineOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [{"min_gap": float("nan")}, {"min_gap": -0.1}],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidInputError):
            PipelineOptions(**kwargs)

    def test_zero_min_gap_allowed(self):
        assert PipelineOptions(min_gap=0.0).min_gap == 0.0


class TestNearCommutingUnitaries:
    def test_commuting_diagonal_inputs(self):
        u = np.diag(np.exp(1j * np.array([0.9, 2.0, 4.0])))
        v = np.diag(np.exp(1j * np.array([1.5, 3.0, 5.2])))
        res = near_commuting_unitaries(u, v)
        assert res.dist_u + res.dist_v <= 1e-6
        assert res.comm_after <= 1e-10 * 3

    def test_voiculescu_rejected(self):
        u, v = gen_voiculescu_pair(16)
        with pytest.raises(GapTooSmallError) as info:
            near_commuting_unitaries(u, v, PipelineOptions(min_gap=0.3))
        assert info.value.gaps[0] == pytest.approx(np.pi / 16, abs=1e-12)

    def test_inputs_checked_before_their_commutator(self):
        # [U, V] of these overflows; U is rejected for itself, with no warning
        u = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
        v = np.diag([1e200, -1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^unitarity defect nan "):
                near_commuting_unitaries(u, v)

    def test_gap_too_small_error_message_is_the_message_alone(self):
        # positional gaps stay out of args, so str(exc) is the message
        for exc, gaps in [(GapTooSmallError("m", (0.1, 0.2)), (0.1, 0.2)),
                          (GapTooSmallError("m", gaps=(0.1,)), (0.1,))]:
            assert (exc.args, str(exc), exc.gaps) == (("m",), "m", gaps)

    def test_perturbed_pair_full_contract(self):
        u, v, eps = gen_almost_commuting_pair(8, 1.0, 1e-3, 77)
        res = near_commuting_unitaries(u, v)
        n = 8
        assert res.comm_after <= 1e-10 * n
        assert res.dist_u + res.dist_v <= 0.5
        assert res.x.defect <= 1e-8 * n and res.y.defect <= 1e-8 * n
        # measured log commutator within predicted bound plus truncation slack
        slack = 2 * (res.tail1 * 2 * np.pi + res.tail2 * 2 * np.pi)
        assert res.bound.measured_log_comm <= res.bound.predicted + slack
        # exponentiation Lipschitz bound
        assert res.exp_dist_a <= res.herm_dist_a + 1e-10 * n
        assert res.exp_dist_b <= res.herm_dist_b + 1e-10 * n
        # distance chain, measured against the inputs themselves
        assert res.dist_u == pytest.approx(operator_norm(res.x.mat - u.mat), rel=1e-12)
        assert res.dist_v == pytest.approx(operator_norm(res.y.mat - v.mat), rel=1e-12)
        assert res.dist_u <= res.herm_dist_a + res.tail1 + 1e-10 * n
        assert res.dist_v <= res.herm_dist_b + res.tail2 + 1e-10 * n

    def test_distance_decreases_with_epsilon(self):
        sums = []
        for eps in (1e-1, 1e-2, 1e-3):
            vals = []
            for seed in (1, 2, 3):
                u, v, _ = gen_almost_commuting_pair(8, 1.0, eps, seed)
                res = near_commuting_unitaries(u, v)
                vals.append(res.dist_u + res.dist_v)
            sums.append(np.median(vals))
        assert sums[0] > sums[1] > sums[2]

    def test_phase_undo_preserves_commutator(self):
        u, v, _ = gen_almost_commuting_pair(6, 1.0, 1e-2, 41)
        res = near_commuting_unitaries(u, v)
        before = operator_norm(
            commutator(
                np.exp(-1j * res.gap1.center) * res.x.mat,
                np.exp(-1j * res.gap2.center) * res.y.mat,
            )
        )
        assert abs(before - res.comm_after) <= 1e-14

    def test_scalar_inputs(self):
        u = np.array([[np.exp(2.1j)]])
        v = np.array([[np.exp(0.7j)]])
        res = near_commuting_unitaries(u, v)
        assert res.comm_after == 0.0
        assert res.dist_u + res.dist_v <= 1e-6

    def test_unconverged_is_flagged_but_commuting(self, monkeypatch):
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 5e-2, 13)
        monkeypatch.setattr(jointdiag, "MAX_SWEEPS", 1)
        res = near_commuting_unitaries(u, v)
        assert res.sweeps == 1 and not res.converged
        assert res.comm_after <= 1e-10 * 8

    def test_output_unitarity_defect_is_numerical_failure(self, monkeypatch, tmp_path, capsys):
        u, v, _ = gen_almost_commuting_pair(4, 1.0, 1e-3, 19)
        u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
        mtxc.write(u_path, u.mat)
        mtxc.write(v_path, v.mat)
        # every defect measured after the joint diagonalization reads 1: only the outputs'
        after_jd = []
        real_jd, real_defect = pipeline.nearest_commuting_pair, linalg.unitarity_defect

        def jd(*args, **kwargs):
            after_jd.append(True)
            return real_jd(*args, **kwargs)

        monkeypatch.setattr(pipeline, "nearest_commuting_pair", jd)
        monkeypatch.setattr(linalg, "unitarity_defect",
                            lambda m: 1.0 if after_jd else real_defect(m))
        with pytest.raises(NumericalError, match="output X lost unitarity"):
            near_commuting_unitaries(u, v)
        after_jd.clear()
        code = cli.main(["pair", str(u_path), str(v_path), "--out-x", str(tmp_path / "x.mtxc"),
                         "--out-y", str(tmp_path / "y.mtxc")])
        assert code == cli.EXIT_NUMERICAL
        assert "lost unitarity" in capsys.readouterr().err

    def test_output_commutator_above_tolerance_is_numerical_failure(self, monkeypatch):
        u, v, _ = gen_almost_commuting_pair(4, 1.0, 1e-3, 19)
        res = near_commuting_unitaries(u, v)
        assert res.comm_after > 0
        # the gate reads the constant where the pipeline bound it: tolerance comm_after / 2
        monkeypatch.setattr(pipeline, "COMMUTE_TOL", res.comm_after / 8)
        with pytest.raises(NumericalError, match="output commutator"):
            near_commuting_unitaries(u, v)

    def test_gamma_is_the_smallest_centered_angle(self):
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 5)
        res = near_commuting_unitaries(u, v)
        for w, gamma in ((u, res.gamma1), (v, res.gamma2)):
            es, gap = center_gap(w)
            assert gamma == es.margin == np.min(np.abs(spectral.wrap_to_pi(es.angles)))
            assert gap.half_width / 2 < gamma <= gap.half_width * (1 + 1e-12)
        # a scalar's centered angle is pi, where the coefficients need gamma < pi
        scalar = np.array([[np.exp(2.1j)]])
        assert center_gap(scalar)[0].margin == pytest.approx(np.pi, abs=1e-15)
        res = near_commuting_unitaries(scalar, np.array([[1.0 + 0j]]))
        assert res.gamma1 == res.gamma2 == np.nextafter(np.pi, 0)

    def test_flat_summary_keys(self):
        u, v, _ = gen_almost_commuting_pair(4, 1.0, 1e-3, 19)
        res = near_commuting_unitaries(u, v)
        flat = res.flat()
        for key in ("dist_u", "dist_v", "comm_after", "predicted_bound", "trunc_order1"):
            assert key in flat


class TestPipelineGates:
    """Each numerical gate fires, with its own message, on a bound understated to it,
    and lets through what each term of its bound pays for."""

    @staticmethod
    def pair():
        return gen_almost_commuting_pair(6, 1.0, 1e-3, 23)[:2]

    def test_log_commutator_gate(self, monkeypatch, tmp_path, capsys):
        u, v = self.pair()
        real = pipeline.BoundReport
        monkeypatch.setattr(pipeline, "BoundReport",
                            lambda **fields: real(**{**fields, "predicted": 0.0}))
        with pytest.raises(NumericalError, match="log commutator .* exceeds predicted bound"):
            near_commuting_unitaries(u, v)
        u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
        mtxc.write(u_path, u.mat)
        mtxc.write(v_path, v.mat)
        code = cli.main(["pair", str(u_path), str(v_path), "--out-x", str(tmp_path / "x.mtxc"),
                         "--out-y", str(tmp_path / "y.mtxc")])
        assert code == cli.EXIT_NUMERICAL
        assert "exceeds predicted bound" in capsys.readouterr().err
        assert not (tmp_path / "x.mtxc").exists()

    def test_lipschitz_gate(self, monkeypatch):
        real = pipeline.nearest_commuting_pair
        monkeypatch.setattr(pipeline, "nearest_commuting_pair",
                            lambda *args: dataclasses.replace(real(*args), dist_a=0.0))
        with pytest.raises(NumericalError, match="Lipschitz bound"):
            near_commuting_unitaries(*self.pair())

    @pytest.mark.parametrize("which, name", [(0, "X"), (1, "Y")])
    def test_distance_gate(self, monkeypatch, which, name):
        # U's (which 0) or V's eigensystem with every angle moved by 0.05: its
        # recorded residual understates the real one by ~0.05, and the
        # spectrum stays clear of the smoothing band around angle 0
        real, calls = pipeline.center_gap, []

        def shifted(u):
            es, gap = real(u)
            if len(calls) == which:
                es = Eigensystem(es.angles + 0.05, es.basis, es.residual)
            calls.append(u)
            return es, gap

        monkeypatch.setattr(pipeline, "center_gap", shifted)
        with pytest.raises(NumericalError, match=f"distance to {name} exceeds"):
            near_commuting_unitaries(*self.pair())

    @pytest.mark.parametrize("which", [0, 1])
    def test_turned_eigenbasis_passes_on_its_recorded_residual(self, monkeypatch, which):
        # U's (which 0) or V's eigenbasis turned by 1e-6 in one plane, with
        # the reconstruction residual that costs recorded honestly: the held
        # logs and outputs move by ~1e-6, which only the gates' slack and
        # residual terms forgive
        n, turned_diag = 3, np.diag(np.exp(1j * np.array([1.0, 2.5, 4.0])))
        real, calls = pipeline.center_gap, []

        def turned(m):
            es, gap = real(m)
            if len(calls) % 2 == which:
                rot = np.eye(n, dtype=complex)
                rot[:2, :2] = [[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]]
                basis = es.basis @ rot
                rebuilt = linalg.unitary_from_angles(basis, es.angles + gap.center)
                es = Eigensystem(es.angles, basis, 2.0 * operator_norm(rebuilt - m))
            calls.append(m)
            return es, gap

        monkeypatch.setattr(pipeline, "center_gap", turned)

        def run(partner):
            return near_commuting_unitaries(
                *((turned_diag, partner) if which == 0 else (partner, turned_diag)))

        # a diagonal partner: the logs' commutator is above epsilon*alpha by
        # far more than rounding
        res = run(np.diag(np.exp(1j * np.array([1.5, 3.0, 5.0]))))
        assert res.bound.measured_log_comm > res.bound.predicted + 1e-12 * n
        # a scalar partner's log commutes with any: A' is the held log, and
        # the distance to the input is the recorded residual's alone
        res = run(np.exp(2j) * np.eye(n))
        assert (res.dist_u - res.herm_dist_a, res.dist_v - res.herm_dist_b)[which] > 1e-10 * n

    def test_log_commutator_gate_forgives_rounding(self, monkeypatch):
        # an exactly commuting pair whose eigensystems claim residual 0, so
        # the slack is 0: the logs' commutator, formed in rounding, still
        # exceeds epsilon*alpha (by 1.9e-15), which the 1e-12*n term forgives
        rng = stream_rng(6, 8)
        q = haar_unitary(8, rng)
        u, v = (linalg.unitary_from_angles(q, rng.uniform(1.0, 2 * np.pi - 1.0, 8))
                for _ in range(2))
        real = pipeline.center_gap
        monkeypatch.setattr(pipeline, "center_gap", lambda m: (
            lambda es, gap: (Eigensystem(es.angles, es.basis, 0.0), gap))(*real(m)))
        res = near_commuting_unitaries(u, v)
        assert res.bound.predicted < res.bound.measured_log_comm <= res.bound.predicted + 1e-12 * 8


def _counting(monkeypatch, owner, name):
    """A list that grows by one entry (the argument's shape) per owner.name call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def schur_calls(monkeypatch):
    """scipy.linalg.schur calls, which the package no longer makes."""
    return _counting(monkeypatch, scipy.linalg, "schur")


@pytest.fixture
def eigh_calls(monkeypatch):
    return _counting(monkeypatch, np.linalg, "eigh")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return _counting(monkeypatch, np.linalg, "eigvalsh")


@pytest.fixture
def norm_kernel_calls(monkeypatch):
    """linalg._spectral_norm calls, each one eigvalsh of a Gram matrix."""
    return _counting(monkeypatch, linalg, "_spectral_norm")


@pytest.fixture
def svd_calls(monkeypatch):
    """np.linalg.svd calls, also those np.linalg.norm(ord=2) makes inside numpy."""
    calls = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    for name in ("numpy.linalg", "numpy.linalg._linalg"):
        module = sys.modules.get(name)
        if module is not None and getattr(module, "svd", None) is original:
            monkeypatch.setattr(module, "svd", counting)
    return calls


@pytest.fixture
def jd_inputs(monkeypatch):
    """The logs (A, B) that each pipeline call hands the joint diagonalization, in order."""
    held, jd = [], pipeline.nearest_commuting_pair
    monkeypatch.setattr(pipeline, "nearest_commuting_pair",
                        lambda a, b, *rest: held.extend((a, b)) or jd(a, b, *rest))
    return held


@pytest.fixture
def defect_calls(monkeypatch):
    """unitarity_defect calls, under every package name that binds it."""
    calls = []
    original = linalg.unitarity_defect

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    for module in (linalg, spectral, pipeline, gapped_log_module):
        if getattr(module, "unitarity_defect", None) is original:
            monkeypatch.setattr(module, "unitarity_defect", counting)
    return calls


class TestPhaseCovariance:
    """Scalar phases on the inputs come back as the same phases on the outputs."""

    @PROPERTY
    @given(
        n=st.integers(1, 16),
        eps=st.sampled_from([1e-1, 1e-3, 0.0]),
        alpha=st.floats(0.0, 2.0 * np.pi),
        beta=st.floats(0.0, 2.0 * np.pi),
        seed=st.integers(0, 2**16),
    )
    def test_phases_pass_through(self, n, eps, alpha, beta, seed):
        u, v, _ = gen_almost_commuting_pair(n, 1.0, eps, seed)
        pu, pv = np.exp(1j * alpha), np.exp(1j * beta)
        res = near_commuting_unitaries(u, v)
        turned = near_commuting_unitaries(pu * u.mat, pv * v.mat)
        tol = 1e-10 * n
        assert np.max(np.abs(turned.x.mat - pu * res.x.mat)) <= tol
        assert np.max(np.abs(turned.y.mat - pv * res.y.mat)) <= tol
        # absolute: at eps = 0 both distances are rounding, ~1e-15
        assert turned.dist_u == pytest.approx(res.dist_u, rel=0, abs=tol)
        assert turned.dist_v == pytest.approx(res.dist_v, rel=0, abs=tol)


class TestSymmetries:
    """A unitary change of basis, and swapping U with V, act on the outputs alike."""

    @PROPERTY
    @given(
        n=st.integers(1, 16),
        eps=st.sampled_from([1e-1, 1e-3, 0.0]),
        seed=st.integers(0, 2**16),
    )
    def test_change_of_basis_passes_through(self, n, eps, seed):
        # the trace is basis-invariant, so the probes are too, and the
        # JD's iterates move with W up to column phases
        u, v, _ = gen_almost_commuting_pair(n, 1.0, eps, seed)
        w = haar_unitary(n, stream_rng(seed, 1))
        res = near_commuting_unitaries(u, v)
        turned = near_commuting_unitaries(w @ u.mat @ w.conj().T, w @ v.mat @ w.conj().T)
        tol = 1e-10 * n
        assert np.max(np.abs(turned.x.mat - w @ res.x.mat @ w.conj().T)) <= tol
        assert np.max(np.abs(turned.y.mat - w @ res.y.mat @ w.conj().T)) <= tol
        assert turned.dist_u == pytest.approx(res.dist_u, rel=0, abs=tol)
        assert turned.dist_v == pytest.approx(res.dist_v, rel=0, abs=tol)
        # at eps = 0 off starts at rounding level, where one sweep more or
        # less is a rounding decision against the JD's floor
        assert abs(turned.sweeps - res.sweeps) <= (1 if eps == 0.0 else 0)

    @PROPERTY
    @given(
        n=st.integers(1, 16),
        eps=st.sampled_from([1e-2, 1e-3, 1e-4, 0.0]),
        seed=st.integers(0, 2**16),
    )
    def test_swap_exchanges_the_outputs(self, n, eps, seed):
        # the JD warm-starts from A + phi*B, not B + phi*A, and stops once a
        # sweep lowers off (~eps^2) by at most _REL_IMPROVEMENT_TOL of it;
        # so each run resolves its basis to ~sqrt(_REL_IMPROVEMENT_TOL)*eps
        u, v, _ = gen_almost_commuting_pair(n, 1.0, eps, seed)
        res, swapped = near_commuting_unitaries(u, v), near_commuting_unitaries(v, u)
        tol = np.sqrt(jointdiag._REL_IMPROVEMENT_TOL) * eps + 1e-10 * n
        assert np.max(np.abs(swapped.x.mat - res.y.mat)) <= tol
        assert np.max(np.abs(swapped.y.mat - res.x.mat)) <= tol
        assert swapped.dist_u == pytest.approx(res.dist_v, rel=0, abs=tol)
        assert swapped.dist_v == pytest.approx(res.dist_u, rel=0, abs=tol)


def _spectrum(kind: str, n: int, shift: float) -> np.ndarray:
    """n eigenangles: distinct, two values repeated, one value (a scalar) or equally spaced.

    Equally spaced angles tie every gap, so each eigenvalue sits on the
    edge of a largest gap; shift 0 or pi puts one on angle 0 or pi exactly.
    """
    if kind == "distinct":
        return np.mod(shift + 2.0 * np.arange(n) ** 1.5, 2.0 * np.pi)
    if kind == "repeated":
        return np.where(np.arange(n) % 2 == 0, shift, shift + 2.5)
    if kind == "scalar":
        return np.full(n, shift)
    return shift + 2.0 * np.pi * np.arange(n) / n


@st.composite
def edge_inputs(draw):
    """(U, V, min_gap, rejected): a pair at one of the edges of the pipeline's input domain.

    The basis is I (then eps = 0 makes [U, V] exactly 0) or Haar; V is
    perturbed by exp(i*eps*G). min_gap is the default, one ulp below the
    smaller measured gap half-width (a gap just above min_gap) or equal to
    it (an eigenvalue on the edge min_gap sets, which is rejected).
    """
    n = draw(st.sampled_from([1, 2, 3, 5]))
    seed = draw(st.integers(0, 2**16))
    kinds = st.sampled_from(["distinct", "repeated", "scalar", "spaced"])
    shifts = st.sampled_from([0.0, np.pi, 0.4, 4.0])
    basis = np.eye(n) if draw(st.booleans()) else haar_unitary(n, stream_rng(seed, 0))
    u = linalg.unitary_from_angles(basis, _spectrum(draw(kinds), n, draw(shifts)))
    v = linalg.unitary_from_angles(basis, _spectrum(draw(kinds), n, draw(shifts)))
    eps = draw(st.sampled_from([0.0, 1e-3, 1e-1]))
    if eps > 0:
        rng = stream_rng(seed, 1)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (z + z.conj().T) / 2.0
        v = linalg.herm_exp(eps * (h / operator_norm(h))).mat @ v
    mode = draw(st.sampled_from(["default", "above", "at"]))
    if mode == "default":
        return u, v, PipelineOptions().min_gap, False
    gap = min(center_gap(m)[1].half_width for m in (u, v))
    return u, v, (math.nextafter(gap, 0.0) if mode == "above" else gap), mode == "at"


class TestEdgeInputs:
    """Small, degenerate, exactly commuting and barely gapped pairs end in a
    checked result or a GapTooSmallError, also through `nearcomm pair`."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=edge_inputs())
    def test_checked_result_or_gap_rejection(self, case):
        u, v, min_gap, rejected = case
        n = u.shape[0]
        try:
            res = near_commuting_unitaries(u, v, PipelineOptions(min_gap=min_gap))
        except GapTooSmallError:
            assert rejected
            expected = cli.EXIT_REJECTED
        else:
            assert not rejected
            assert all(np.isfinite(float(value)) for value in res.flat().values())
            assert np.all(np.isfinite(res.x.mat)) and np.all(np.isfinite(res.y.mat))
            assert res.comm_after <= linalg.COMMUTE_TOL * n
            expected = cli.EXIT_OK
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("u", "v", "x", "y")]
            mtxc.write(paths[0], u)
            mtxc.write(paths[1], v)
            argv = ["pair", *paths[:2], "--min-gap", repr(min_gap),
                    "--out-x", paths[2], "--out-y", paths[3]]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == expected


class TestDecompositionCounts:
    """Each input is decomposed once, by one eigh of a Cayley transform when
    its Frobenius norm passes the precheck; the logs and the outputs reuse
    the bases."""

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        """np.linalg.solve calls as (calling module, shape): Cayley transforms and JD steps."""
        calls = []
        original = np.linalg.solve

        def counting(a, b):
            calls.append((sys._getframe(1).f_globals["__name__"], a.shape))
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        return calls

    def test_pair_measures_only_the_outputs_unitarity(self, defect_calls):
        # typed inputs are trusted and the centered form is an eigensystem,
        # so the only defects measured are those of X and Y
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 3)
        defect_calls.clear()
        near_commuting_unitaries(u, v)
        assert defect_calls == [(8, 8)] * 2

    def test_cli_log_measures_no_defect(self, defect_calls, tmp_path, capsys):
        # the input's entry check passes on its Frobenius bound; no operator norm is taken
        u_path = tmp_path / "u.mtxc"
        mtxc.write(u_path, gen_gapped_unitary(8, 1.0, 3).mat)
        defect_calls.clear()
        assert cli.main(["log", str(u_path), "--out", str(tmp_path / "h.mtxc")]) == cli.EXIT_OK
        assert defect_calls == []

    def test_pair_sums_no_series(self, monkeypatch):
        # the logs are taken exactly on the eigensystems, and W, the only
        # thing the commutator bound reads of the series, is summed on the
        # kernel transform: no coefficient table is built or evaluated
        calls = []
        evaluate, built = LaurentCoefficients.evaluate, LaurentCoefficients.__post_init__

        def counting(self, theta):
            calls.append(np.shape(theta))
            return evaluate(self, theta)

        def counting_table(self):
            calls.append(self.trunc_order)
            built(self)

        monkeypatch.setattr(LaurentCoefficients, "evaluate", counting)
        monkeypatch.setattr(LaurentCoefficients, "__post_init__", counting_table)
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 3)
        near_commuting_unitaries(u, v)
        assert calls == []

    def test_pair_decomposes_each_input_once(self, schur_calls, eigvalsh_calls,
                                             norm_kernel_calls, solve_calls):
        # both inputs' first Cayley transforms pass the Frobenius precheck
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 4)
        schur_calls.clear()
        eigvalsh_calls.clear()
        norm_kernel_calls.clear()
        solve_calls.clear()
        res = near_commuting_unitaries(u, v)
        assert schur_calls == []
        # no probe eigvalsh: each eigvalsh is one operator norm's Gram
        # matrix: eps, the log commutator, dist_a and dist_b, two
        # exponential distances, dist_u and dist_v, two output defects and
        # comm_after
        assert norm_kernel_calls == [(8, 8)] * 11
        assert eigvalsh_calls == [(8, 8)] * 11
        # one Cayley transform per input; every other solve is a JD step
        spectral_solves = [call for call in solve_calls if call[0] == "nearcomm.spectral"]
        assert spectral_solves == [("nearcomm.spectral", (8, 8))] * 2
        assert len(solve_calls) - 2 >= res.sweeps

    def test_failed_precheck_adds_one_eigvalsh_and_one_solve(self, eigvalsh_calls, eigh_calls,
                                                             solve_calls):
        # U's trace probe lies 0.11 from an eigenvalue: |H|_F = 18.4 is
        # above cot(pi/32) = 10.2, so U takes the two-probe path; V does not
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 3)
        eigvalsh_calls.clear()
        eigh_calls.clear()
        solve_calls.clear()
        near_commuting_unitaries(u, v)
        assert eigvalsh_calls == [(8, 8)] * (1 + 11)
        assert eigh_calls == [(8, 8)] * 3
        spectral_solves = [call for call in solve_calls if call[0] == "nearcomm.spectral"]
        assert spectral_solves == [("nearcomm.spectral", (8, 8))] * 3

    def test_pair_takes_no_svd(self, svd_calls):
        np.linalg.norm(np.eye(2), 2)
        assert svd_calls == [(2, 2)]  # the counter sees the SVD inside np.linalg.norm
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 3)
        svd_calls.clear()
        near_commuting_unitaries(u, v)
        assert svd_calls == []

    def test_pair_makes_three_eigh_and_no_herm_exp(self, eigh_calls, monkeypatch):
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("herm_exp called on the pair path")

        monkeypatch.setattr(pipeline, "herm_exp", forbidden)
        monkeypatch.setattr(linalg, "herm_exp", forbidden)
        eigh_calls.clear()
        near_commuting_unitaries(u, v)
        # one per input, then the joint diagonalization's warm start
        assert eigh_calls == [(8, 8)] * 3

    def test_cli_log_decomposes_once(self, schur_calls, eigvalsh_calls, eigh_calls,
                                     solve_calls, tmp_path, capsys):
        # the input's first Cayley transform passes the Frobenius precheck
        u_path = tmp_path / "u.mtxc"
        mtxc.write(u_path, gen_gapped_unitary(8, 1.0, 3).mat)
        eigvalsh_calls.clear()
        eigh_calls.clear()
        solve_calls.clear()
        assert cli.main(["log", str(u_path), "--out", str(tmp_path / "h.mtxc")]) == cli.EXIT_OK
        assert schur_calls == eigvalsh_calls == []
        assert eigh_calls == [(8, 8)]
        assert solve_calls == [("nearcomm.spectral", (8, 8))]

    def test_gapped_log_on_centered_input_decomposes_nothing(
        self, schur_calls, eigvalsh_calls, eigh_calls
    ):
        es, gap = center_gap(gen_gapped_unitary(8, 1.0, 3))
        schur_calls.clear()
        eigvalsh_calls.clear()
        eigh_calls.clear()
        gamma = gap.half_width / 2
        gapped_log(es, gamma, choose_truncation(gamma, 1e-6))
        assert schur_calls == eigvalsh_calls == eigh_calls == []

    def test_pipeline_log_is_direct_log_on_the_centered_eigensystem(
        self, schur_calls, eigvalsh_calls, eigh_calls, jd_inputs
    ):
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 3)
        near_commuting_unitaries(u, v)
        systems = [center_gap(u)[0], center_gap(v)[0]]
        schur_calls.clear()
        eigvalsh_calls.clear()
        eigh_calls.clear()
        logs = [direct_log(es) for es in systems]
        assert schur_calls == eigvalsh_calls == eigh_calls == []
        assert [log.mat.tobytes() for log in logs] == [log.mat.tobytes() for log in jd_inputs]


class TestSlackNormBound:
    """The slack's |H| is the rounded-up Frobenius norm of the log held, never below its norm."""

    @staticmethod
    def check(log):
        exact = max(operator_norm(log), float(np.linalg.norm(log.mat, 2)))
        assert exact <= linalg._frobenius_bound(log.mat)

    def test_pair_pool_logs(self, monkeypatch, jd_inputs):
        # the pipeline reads |H_u| and |H_v| off the two logs it hands the JD
        bounded, frobenius = [], pipeline._frobenius_bound
        monkeypatch.setattr(pipeline, "_frobenius_bound",
                            lambda m: bounded.append(m) or frobenius(m))
        for i in range(32):
            u, v, _ = gen_almost_commuting_pair(32, 1.0, (1e-1, 1e-2, 1e-3, 1e-4)[i % 4], 11, i)
            near_commuting_unitaries(u, v)
        assert len(bounded) == len(jd_inputs) == 64
        for mat, log in zip(bounded, jd_inputs):
            assert mat is log.mat
            self.check(log)

    @pytest.mark.parametrize("n", [1, 5, 32, 128])
    def test_gapped_unitaries(self, n):
        for i in range(3):
            self.check(direct_log(center_gap(gen_gapped_unitary(n, 0.6, 29, i))[0]))


def tridiagonal_family(n):
    """U = exp(0.9*pi*i*diag(j/(n-1))), V = exp(0.9*pi*i*(I + T)/2), T = (S + S^T)/2.

    Both gap half-widths stay near 1.73 while |[U, V]| ~ 4/n, and the
    distance to a commuting pair shrinks far slower than the commutator.
    """
    theta = 0.9 * np.pi * np.arange(n) / (n - 1)
    t = (np.eye(n, k=1) + np.eye(n, k=-1)) / 2.0
    return np.diag(np.exp(1j * theta)), scipy.linalg.expm(0.45j * np.pi * (np.eye(n) + t))


class TestHardFamily:
    def test_bounded_work_and_commuting_output(self):
        n = 16
        u, v = tridiagonal_family(n)
        res = near_commuting_unitaries(u, v)
        assert res.comm_after <= linalg.COMMUTE_TOL * n
        assert res.sweeps <= jointdiag.MAX_SWEEPS
        assert res.converged or res.sweeps == jointdiag.MAX_SWEEPS


def _load_tracing():
    """The benchmark's tracer module, loaded from perfbench/tracing.py as it stands."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


class TestTracedSurface:
    """The names the benchmark's tracer wraps and the result fields it reads."""

    def test_pipeline_binds_nearest_commuting_pair(self):
        assert pipeline.nearest_commuting_pair is jointdiag.nearest_commuting_pair

    @pytest.mark.parametrize(
        "module, name", [(owner, attr) for owner, attr, _, _ in tracing._targets()]
    )
    def test_traced_names_are_bound(self, module, name):
        # every name the tracer reads is bound, wrapped while it is installed
        # and restored when it exits
        original = getattr(module, name, None)
        assert callable(original)
        with tracing.Tracer().installed():
            assert getattr(module, name) is not original
        assert getattr(module, name) is original

    def test_pair_result_exposes_basis_sweeps_converged(self):
        pair = nearest_commuting_pair(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        assert pair.basis.shape == (3, 3)
        assert isinstance(pair.sweeps, int) and isinstance(pair.converged, bool)
