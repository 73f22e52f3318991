"""Acceptance suite: each test prints one pass/fail line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. The heavyweight sweeps are shared across criteria via
module-scoped fixtures.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from nearcomm import (
    ExperimentConfig,
    choose_truncation,
    commutator,
    direct_log,
    evaluate_smoothed_sawtooth,
    gapped_log,
    gen_almost_commuting_pair,
    gen_gapped_unitary,
    gen_voiculescu_pair,
    haar_unitary,
    laurent_coefficients,
    near_commuting_unitaries,
    nearest_commuting_pair,
    operator_norm,
    run_sweep,
    stream_rng,
    summarize,
)
from nearcomm import mtxc
from nearcomm.sweep import write_records

SEED = 20250809


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bound_sweep_results():
    """Criterion 4 corpus: 100 almost-commuting gapped pairs at n = 16."""
    results = []
    eps_values = np.geomspace(1e-1, 1e-4, 10)
    for i, eps in enumerate(eps_values):
        for t in range(10):
            u, v, eps_actual = gen_almost_commuting_pair(16, 1.0, float(eps), SEED, i, t)
            res = near_commuting_unitaries(u, v)
            results.append((eps_actual, res))
    return results


@pytest.fixture(scope="module")
def contract_sweep(tmp_path_factory):
    """Criterion 6 sweep: n = 32, delta = 1.0, four epsilon decades."""
    path = tmp_path_factory.mktemp("sweep") / "contract_sweep.csv"
    config = ExperimentConfig(
        n=32,
        delta=1.0,
        epsilons=(1e-1, 1e-2, 1e-3, 1e-4),
        trials=20,
        seed=SEED,
    )
    records = run_sweep(config)
    write_records(path, records, config)
    return config, records, path.read_bytes()


def test_criterion_1_log_correctness():
    rng = stream_rng(SEED, 1)
    worst_ratio = 0.0
    for case in range(200):
        n = int(rng.integers(2, 65))
        delta = float(rng.uniform(0.3, 2.0))
        u = gen_gapped_unitary(n, delta, SEED, 1, case)
        gamma = delta / 2.0
        order = choose_truncation(gamma, 1e-6)
        h, lc = gapped_log(u, gamma, order)
        err = operator_norm(h.mat - direct_log(u).mat)
        worst_ratio = max(worst_ratio, err / lc.tail)
        if err > lc.tail:
            report(1, False, f"case {case}: n={n} delta={delta:.3f} err {err:.3e} > tail {lc.tail:.3e}")
    report(1, True, f"200 cases, worst err/tail = {worst_ratio:.3e}")


def test_criterion_2_coefficient_contract():
    rescaled = []
    for gamma in (0.1, 0.3, 1.0):
        lc = laurent_coefficients(gamma, 10_000)
        k = np.arange(1, 10_001)
        pos = lc.coeffs[lc.trunc_order + 1:]
        neg = lc.coeffs[:lc.trunc_order][::-1]
        ok_conj = np.array_equal(neg, np.conj(pos))
        ok_c0 = abs(lc.coefficient(0) - np.pi) <= 1e-10
        envelope = np.minimum(np.pi, lc.c_emp / (gamma * k**4.0))
        ok_env = bool(np.all(np.abs(pos) <= envelope * (1 + 1e-14)))
        ok_finite = np.isfinite(lc.c_emp)
        if not (ok_conj and ok_c0 and ok_env and ok_finite):
            report(2, False, f"gamma={gamma}: conj={ok_conj} c0={ok_c0} env={ok_env}")
        rescaled.append(lc.c_emp * gamma**2)
    spread = (max(rescaled) - min(rescaled)) / max(rescaled)
    report(2, spread < 0.10, f"C_emp*gamma^2 = {[f'{c:.4f}' for c in rescaled]}, spread {spread:.2%}")


def test_criterion_3_scalar_mollification_identity():
    gamma, order = 0.5, 500
    lc = laurent_coefficients(gamma, order)
    grid = np.linspace(gamma + 0.1, 2 * np.pi - gamma - 0.1, 1000)
    errs = np.array([abs(evaluate_smoothed_sawtooth(t, gamma, order) - t) for t in grid])
    worst = float(np.max(errs))
    report(3, worst <= lc.tail, f"1000 grid points, worst |g_K - id| = {worst:.3e}, tail {lc.tail:.3e}")


def test_criterion_4_log_commutator_bound(bound_sweep_results):
    worst_margin = -np.inf
    for eps_actual, res in bound_sweep_results:
        norm_a = 2 * np.pi  # both logs have spectrum inside (0, 2pi)
        slack = 2 * (res.tail1 * norm_a + res.tail2 * norm_a)
        bound = eps_actual * res.bound.alpha_emp + slack
        margin = res.bound.measured_log_comm - bound
        worst_margin = max(worst_margin, margin)
        if margin > 0:
            report(4, False, f"measured {res.bound.measured_log_comm:.3e} > bound {bound:.3e}")
    report(4, True, f"100 trials, worst measured-bound margin = {worst_margin:.3e}")


def test_criterion_5_exponentiation_bound(bound_sweep_results, contract_sweep):
    _, records, _ = contract_sweep
    checked = 0
    for _, res in bound_sweep_results:
        n = res.x.n
        assert res.exp_dist_a <= res.herm_dist_a + 1e-10 * n
        assert res.exp_dist_b <= res.herm_dist_b + 1e-10 * n
        checked += 1
    # sweep records went through the same in-pipeline assertion; verify the
    # runs completed (NaN-free) so the assertion actually executed
    for rec in records:
        assert np.isfinite(rec.dist_u) and np.isfinite(rec.dist_v)
        checked += 1
    report(5, True, f"exp(iA') vs exp(iA) Lipschitz bound held on {checked} runs")


def test_criterion_6_commuting_pair_contract(contract_sweep):
    config, records, _ = contract_sweep
    n = config.n
    ok_comm = all(rec.comm_after <= 1e-10 * n for rec in records)

    # records carry no defect column; spot-check one trial per epsilon
    # explicitly (every run already passed the pipeline's internal gate)
    defects_ok = True
    for i, eps in enumerate(config.epsilons):
        u, v, _ = gen_almost_commuting_pair(n, config.delta, eps, config.seed, i, 0)
        res = near_commuting_unitaries(u, v)
        defects_ok = defects_ok and res.x.defect <= 1e-8 * n and res.y.defect <= 1e-8 * n
    summary = summarize(records)
    medians = list(summary.median_distance)
    eps_sorted = list(summary.eps_targets)  # descending
    non_increasing = all(medians[i] >= medians[i + 1] for i in range(len(medians) - 1))
    rho = stats.spearmanr(eps_sorted, medians).statistic

    zero_cfg = ExperimentConfig(
        n=n, delta=config.delta, epsilons=(0.0,), trials=config.trials, seed=config.seed
    )
    zero_records = run_sweep(zero_cfg)
    zero_median = summarize(zero_records).median_distance[0]
    ok_zero = zero_median <= 1e-6 and all(r.comm_after <= 1e-10 * n for r in zero_records)

    passed = ok_comm and defects_ok and non_increasing and rho >= 0.9 and ok_zero
    report(
        6,
        passed,
        f"comm_after ok={ok_comm}, medians={[f'{m:.2e}' for m in medians]}, "
        f"spearman={rho:.3f}, zero-eps median={zero_median:.2e}",
    )


def test_criterion_7_oracle_sanity():
    rng = stream_rng(SEED, 7)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 33))
        q = haar_unitary(n, stream_rng(SEED, 7, case))
        local = stream_rng(SEED, 77, case)
        # distinct eigenvalues with separation, so spectra stay simple
        da = np.sort(local.uniform(-2, 2, n)) + np.arange(n) * 1e-3
        db = local.uniform(-2, 2, n) + local.permutation(n) * 1e-3
        a = (q * da) @ q.conj().T
        b = (q * db) @ q.conj().T
        a, b = (a + a.conj().T) / 2, (b + b.conj().T) / 2
        pair = nearest_commuting_pair(a, b)
        hist = np.array(pair.off_history)
        if not np.all(np.diff(hist) <= 1e-10 * max(1.0, hist[0])):
            report(7, False, f"case {case}: off_measure increased across a sweep")
        total = pair.dist_a + pair.dist_b
        worst = max(worst, total / n)
        if total > 1e-8 * n:
            report(7, False, f"case {case}: dist {total:.3e} > 1e-8*n (n={n})")
    report(7, True, f"50 commuting pairs, worst (dist_a+dist_b)/n = {worst:.3e}")


def test_criterion_8_voiculescu_negative_control(tmp_path):
    for n in (2, 4, 8, 16, 64):
        u, v = gen_voiculescu_pair(n)
        got = operator_norm(commutator(u.mat, v.mat))
        expected = 2 * np.sin(np.pi / n)
        if abs(got - expected) > 1e-12:
            report(8, False, f"n={n}: commutator norm {got!r} vs 2sin(pi/n) {expected!r}")
    u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
    u16, v16 = gen_voiculescu_pair(16)
    mtxc.write(u_path, u16.mat)
    mtxc.write(v_path, v16.mat)
    proc = subprocess.run(
        [sys.executable, "-m", "nearcomm", "pair", str(u_path), str(v_path),
         "--min-gap", "0.3", "--out-x", str(tmp_path / "x.mtxc"),
         "--out-y", str(tmp_path / "y.mtxc")],
        capture_output=True, text=True,
    )
    report(
        8,
        proc.returncode == 2,
        f"2sin(pi/n) matched for n in {{2,4,8,16,64}}; n=16 pipeline exit code {proc.returncode}",
    )


def test_criterion_9_determinism(contract_sweep, tmp_path):
    config, _, first_bytes = contract_sweep
    rerun_path = tmp_path / "rerun.csv"
    rerun = ExperimentConfig(
        n=config.n, delta=config.delta, epsilons=config.epsilons,
        trials=config.trials, seed=config.seed,
    )
    records = run_sweep(rerun)
    write_records(rerun_path, records, rerun)
    strip = lambda raw: [ln for ln in raw.splitlines() if not ln.startswith(b"#")]
    same = strip(first_bytes) == strip(rerun_path.read_bytes())
    report(9, same, "rerun CSV byte-identical apart from the timestamp header")
