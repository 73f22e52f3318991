"""CLI subcommands, output formats, exit codes."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nearcomm
from nearcomm import (commutator, direct_log, gen_almost_commuting_pair, gen_gapped_unitary,
                      gen_voiculescu_pair, jointdiag, operator_norm)
from nearcomm import mtxc
from nearcomm.linalg import herm_exp
from nearcomm.cli import EXIT_OK, EXIT_REJECTED, main
from nearcomm.spectral import center_gap
from nearcomm.sweep import CSV_FIELDS, _fmt


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def test_generate_and_gap(tmp_path, capsys):
    out = tmp_path / "u.mtxc"
    assert main(["generate", "gapped", "--n", "8", "--delta", "0.9", "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["gap", str(out)]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["half_width"]) >= 0.9
    assert "center" in kv and "lo" in kv and "hi" in kv


@pytest.mark.parametrize("kind", ["gapped", "pair", "voiculescu"])
def test_generate_writes_the_api_matrices(tmp_path, capsys, kind):
    u_path, v_path = str(tmp_path / "u.mtxc"), str(tmp_path / "v.mtxc")
    if kind == "gapped":
        argv = ["--n", "5", "--delta", "0.9", "--seed", "5", "--out", u_path]
        mats = {u_path: gen_gapped_unitary(5, 0.9, 5).mat}
        keys = {"kind": "gapped", "n": "5", "delta": "0.90000000000000002", "out": u_path}
    elif kind == "pair":
        argv = ["--n", "5", "--delta", "1.0", "--eps", "0.01", "--seed", "5",
                "--out-u", u_path, "--out-v", v_path]
        u, v, eps_actual = gen_almost_commuting_pair(5, 1.0, 0.01, 5)
        mats = {u_path: u.mat, v_path: v.mat}
        keys = {"kind": "pair", "n": "5", "delta": "1", "eps_target": "0.01",
                "eps_actual": _fmt(eps_actual), "out_u": u_path, "out_v": v_path}
    else:
        argv = ["--n", "5", "--out-u", u_path, "--out-v", v_path]
        u, v = gen_voiculescu_pair(5)
        mats = {u_path: u.mat, v_path: v.mat}
        keys = {"kind": "voiculescu", "n": "5", "out_u": u_path, "out_v": v_path}
    assert main(["generate", kind, *argv]) == EXIT_OK
    assert parse_kv(capsys.readouterr().out) == keys
    for path, mat in mats.items():
        assert Path(path).read_text() == mtxc.dumps(mat)


def test_log_writes_exponentiable_matrix(tmp_path, capsys):
    u_path = tmp_path / "u.mtxc"
    main(["generate", "gapped", "--n", "6", "--delta", "1.0", "--seed", "8",
          "--out", str(u_path)])
    capsys.readouterr()
    h_path = tmp_path / "h.mtxc"
    assert main(["log", str(u_path), "--out", str(h_path)]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["tail"]) <= 1e-6
    assert int(kv["trunc_order"]) >= 1
    h = mtxc.read(h_path)
    u = mtxc.read(u_path)
    centered = np.exp(-1j * float(kv["zeta"])) * u
    assert operator_norm(herm_exp(h).mat - centered) <= 1e-5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_log_is_the_pipelines_log_and_certificate(tmp_path, capsys, seed):
    # one gamma policy and one target: on each input of a pair, nearcomm log
    # prints the gamma, K and tail that nearcomm pair prints for it, its W
    # values multiply to pair's alpha_emp, and it writes the exact log of the
    # centered eigensystem
    u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, seed)
    paths = {"1": tmp_path / "u.mtxc", "2": tmp_path / "v.mtxc"}
    mtxc.write(paths["1"], u.mat)
    mtxc.write(paths["2"], v.mat)
    assert main(["pair", str(paths["1"]), str(paths["2"]), "--out-x", str(tmp_path / "x.mtxc"),
                 "--out-y", str(tmp_path / "y.mtxc")]) == EXIT_OK
    pair_kv = parse_kv(capsys.readouterr().out)
    h_path = tmp_path / "h.mtxc"
    weighted = 1.0
    for which, w in (("1", u), ("2", v)):
        assert main(["log", str(paths[which]), "--out", str(h_path)]) == EXIT_OK
        kv = parse_kv(capsys.readouterr().out)
        assert [kv[k] for k in ("gamma", "trunc_order", "tail")] == \
            [pair_kv[k + which] for k in ("gamma", "trunc_order", "tail")]
        assert h_path.read_bytes() == mtxc.dumps(direct_log(center_gap(w)[0]).mat).encode("ascii")
        weighted *= float(kv["weighted_sum"])
    assert float(pair_kv["alpha_emp"]) == weighted


def test_pair_produces_commuting_files(tmp_path, capsys):
    u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
    main(["generate", "pair", "--n", "6", "--delta", "1.0", "--eps", "0.001",
          "--seed", "4", "--out-u", str(u_path), "--out-v", str(v_path)])
    capsys.readouterr()
    x_path, y_path = tmp_path / "x.mtxc", tmp_path / "y.mtxc"
    code = main(["pair", str(u_path), str(v_path), "--out-x", str(x_path),
                 "--out-y", str(y_path)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    kv = parse_kv(captured.out)
    x, y = mtxc.read(x_path), mtxc.read(y_path)
    assert operator_norm(commutator(x, y)) <= 1e-10 * 6
    assert float(kv["comm_after"]) <= 1e-10 * 6
    assert (kv["out_x"], kv["out_y"]) == (str(x_path), str(y_path))


def test_pair_warns_when_joint_diagonalization_unconverged(tmp_path, capsys, monkeypatch):
    u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
    main(["generate", "pair", "--n", "6", "--delta", "1.0", "--eps", "0.1",
          "--seed", "4", "--out-u", str(u_path), "--out-v", str(v_path)])
    capsys.readouterr()

    monkeypatch.setattr(jointdiag, "MAX_SWEEPS", 1)
    code = main(["pair", str(u_path), str(v_path), "--out-x", str(tmp_path / "x.mtxc"),
                 "--out-y", str(tmp_path / "y.mtxc")])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    kv = parse_kv(captured.out)
    assert kv["converged"] == "0" and kv["sweeps"] == "1"
    assert captured.err == "warning: joint diagonalization did not converge after 1 sweeps\n"


def test_pair_rejects_gapless_with_exit_2(tmp_path, capsys):
    u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
    main(["generate", "voiculescu", "--n", "16", "--out-u", str(u_path),
          "--out-v", str(v_path)])
    capsys.readouterr()
    code = main(["pair", str(u_path), str(v_path), "--min-gap", "0.3"])
    assert code == EXIT_REJECTED


def test_malformed_file_rejected(tmp_path):
    bad = tmp_path / "bad.mtxc"
    bad.write_text("not a matrix\n")
    assert main(["gap", str(bad)]) == EXIT_REJECTED


def test_overflowing_input_rejected_without_warnings(tmp_path, capsys):
    # A^H A overflows, so the unitarity defect reads NaN and fails the check;
    # numpy must not warn on the way there
    path = tmp_path / "big.mtxc"
    mtxc.write(path, np.array([[1e200, 0.0], [0.0, 1.0]], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["log", str(path)]) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rejected: unitarity defect nan")


def test_nan_defect_rejected_not_a_numerical_failure(tmp_path, capsys):
    # A^H A has an entry inf - inf = NaN; the Frobenius bound reads NaN and
    # must fail the gate as a rejection, not reach the norm kernel's LinAlgError
    path = tmp_path / "nan.mtxc"
    mtxc.write(path, np.array([[1e200, 1e200], [1e200, 1e200j]]))
    assert main(["log", str(path)]) == EXIT_REJECTED
    assert capsys.readouterr().err.splitlines() == [
        "rejected: unitarity defect nan exceeds tolerance 2.000e-08"
    ]


def test_pair_checks_each_file_before_the_commutator(tmp_path, capsys):
    # [U, V] of these overflows; U's file is rejected for itself, once, with
    # no warning, and no output is written
    paths = [tmp_path / f"{name}.mtxc" for name in "uvxy"]
    mtxc.write(paths[0], 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    mtxc.write(paths[1], np.diag([1e200, -1e200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pair", str(paths[0]), str(paths[1]),
                     "--out-x", str(paths[2]), "--out-y", str(paths[3])])
    assert code == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rejected: unitarity defect nan ")
    assert not paths[2].exists() and not paths[3].exists()


@pytest.mark.parametrize("header, reason", [("MTXC 1 x", "bad dimension in header"),
                                            ("MTXC 1 0", "dimension must be positive")])
def test_bad_dimension_in_header_rejected(tmp_path, capsys, header, reason):
    bad = tmp_path / "bad.mtxc"
    bad.write_text(header + "\n")
    assert main(["gap", str(bad)]) == EXIT_REJECTED
    assert capsys.readouterr().err.startswith(f"rejected: {reason}")


def test_missing_file_rejected(tmp_path):
    assert main(["gap", str(tmp_path / "absent.mtxc")]) == EXIT_REJECTED


NON_ASCII = {"ff": (b"MTXC 1 1\n1 0\xff\n", 12), "bom": (b"\xef\xbb\xbfMTXC 1 1\n1 0\n", 0)}


@pytest.mark.parametrize("command", ["gap", "log", "pair"])
@pytest.mark.parametrize("kind", sorted(NON_ASCII))
def test_non_ascii_file_rejected(tmp_path, capsys, monkeypatch, command, kind):
    raw, offset = NON_ASCII[kind]
    (tmp_path / "bad.mtxc").write_bytes(raw)
    monkeypatch.chdir(tmp_path)
    argv = [command, "bad.mtxc"] + (["bad.mtxc"] if command == "pair" else [])
    assert main(argv) == EXIT_REJECTED
    assert capsys.readouterr().err == f"rejected: non-ASCII byte at offset {offset}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.mtxc"]


@pytest.mark.parametrize("target", ["nan", "0", "-1"])
def test_log_target_rejected_by_the_truncation(tmp_path, capsys, target):
    # choose_truncation is the only check of the target
    u_path = tmp_path / "u.mtxc"
    main(["generate", "gapped", "--n", "4", "--delta", "0.5", "--seed", "3",
          "--out", str(u_path)])
    capsys.readouterr()
    assert main(["log", str(u_path), "--target", target, "--out", str(tmp_path / "h.mtxc")]) \
        == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rejected: need 0 < gamma < pi and target > 0")
    assert not (tmp_path / "h.mtxc").exists()


def test_log_past_the_order_cap_rejected_promptly(tmp_path):
    # 1e-300 looped from K ~ 1e100 and 5e-324 overflowed math.ceil; the
    # subprocess is killed after 10 s so that a hang fails instead of stalling
    main(["generate", "gapped", "--n", "4", "--delta", "0.5", "--seed", "3",
          "--out", str(tmp_path / "u.mtxc")])
    env = {**os.environ, "PYTHONPATH": str(Path(nearcomm.__file__).parents[1])}
    for target in ("1e-300", "5e-324"):
        proc = subprocess.run([sys.executable, "-m", "nearcomm", "log", "u.mtxc",
                               "--target", target], capture_output=True, text=True,
                              timeout=10, cwd=tmp_path, env=env)
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_REJECTED and len(lines) == 1, proc.stderr
        assert re.fullmatch(r"rejected: .* need truncation order ~\d\.\de\d+ > 4194304",
                            lines[0])
        assert not (tmp_path / "log.mtxc").exists()


def test_sweep_past_the_order_cap_records_nan_rows_promptly(tmp_path, capsys, monkeypatch):
    # gamma > 0.05 at the default min_gap keeps K below 2^22, so the cap is
    # lowered to one that every trial's K of a few hundred exceeds
    monkeypatch.setattr(sys.modules["nearcomm.gapped_log"], "MAX_TRUNCATION_ORDER", 8)
    assert main(["sweep", "--n", "4", "--delta", "1.0", "--eps-start", "0.01",
                 "--eps-end", "0.001", "--points", "2", "--trials", "2", "--seed", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert len(rows) == 4
    cells = [dict(zip(CSV_FIELDS, row.split(","))) for row in rows]
    assert all(c["dist_u"] == "nan" and c["trunc_order1"] == c["trunc_order2"] == "0"
               for c in cells)
    assert all(c["failure"] == "PreconditionError" for c in cells)


@pytest.mark.parametrize("delta", ["4", "-1"])
def test_ensemble_delta_outside_open_interval_rejected(tmp_path, capsys, delta):
    assert main(["generate", "pair", "--n", "4", "--delta", delta, "--eps", "0.01",
                 "--seed", "1", "--out-u", str(tmp_path / "u.mtxc"),
                 "--out-v", str(tmp_path / "v.mtxc")]) == EXIT_REJECTED
    assert main(["sweep", "--n", "4", "--delta", delta, "--eps-start", "0.01",
                 "--eps-end", "0.01", "--points", "1", "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == EXIT_REJECTED
    assert not (tmp_path / "sweep.csv").exists()


def test_negative_seed_rejected_without_writing(tmp_path, capsys):
    assert main(["generate", "gapped", "--n", "4", "--delta", "1", "--seed", "-1",
                 "--out", str(tmp_path / "g.mtxc")]) == EXIT_REJECTED
    # a sweep would otherwise turn each trial's rejection into a NaN row and exit 0
    assert main(["sweep", "--n", "4", "--delta", "1.0", "--eps-start", "0.01",
                 "--eps-end", "0.001", "--points", "2", "--trials", "1", "--seed", "-3",
                 "--out", str(tmp_path / "sweep.csv")]) == EXIT_REJECTED
    assert not (tmp_path / "g.mtxc").exists() and not (tmp_path / "sweep.csv").exists()
    assert capsys.readouterr().err.count("seed and stream indices must be integers >= 0") == 2


@pytest.mark.parametrize("eps_start", ["nan", "inf"])
@pytest.mark.parametrize("points", ["1", "2"])
def test_sweep_non_finite_eps_rejected(tmp_path, capsys, eps_start, points):
    assert main(["sweep", "--n", "4", "--delta", "1.0", "--eps-start", eps_start,
                 "--eps-end", "0.01", "--points", points, "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == EXIT_REJECTED
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_zero_endpoint_rejected(tmp_path, capsys):
    # np.geomspace would otherwise raise a ValueError on the zero endpoint
    assert main(["sweep", "--n", "4", "--delta", "1.0", "--eps-start", "0",
                 "--eps-end", "0.01", "--points", "3", "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == EXIT_REJECTED
    assert "positive finite endpoints" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("points", ["0", "-1"])
def test_sweep_without_points_rejected(tmp_path, capsys, points):
    # -1 would otherwise reach np.geomspace and fail there
    assert main(["sweep", "--n", "4", "--delta", "1.0", "--eps-start", "0.1",
                 "--eps-end", "0.01", "--points", points, "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == EXIT_REJECTED
    assert "need at least one epsilon point" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_import_does_not_load_scipy():
    code = "import nearcomm.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_pair_nan_min_gap_rejected(tmp_path, capsys):
    u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
    main(["generate", "pair", "--n", "4", "--delta", "1.0", "--eps", "0.001",
          "--seed", "4", "--out-u", str(u_path), "--out-v", str(v_path)])
    capsys.readouterr()
    assert main(["pair", str(u_path), str(v_path), "--min-gap", "nan",
                 "--out-x", str(tmp_path / "x.mtxc"),
                 "--out-y", str(tmp_path / "y.mtxc")]) == EXIT_REJECTED
    assert not (tmp_path / "x.mtxc").exists()


def test_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "4", "--delta", "1.0", "--eps-start", "0.01",
                 "--eps-end", "0.001", "--points", "2", "--trials", "2",
                 "--seed", "11", "--out", str(out)])
    assert code == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert int(kv["trials_total"]) == 4
    assert out.exists()


def test_sweep_ascending_endpoints_print_one_line_per_point(tmp_path, capsys):
    # the points are run from the largest epsilon down, whichever end is given first
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "4", "--delta", "1.0", "--eps-start", "1e-4",
                 "--eps-end", "1e-1", "--points", "4", "--trials", "1",
                 "--seed", "2", "--out", str(out)]) == EXIT_OK
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("eps=")]
    eps = [float(ln.split()[0].partition("=")[2]) for ln in lines]
    assert eps == pytest.approx([1e-1, 1e-2, 1e-3, 1e-4], rel=1e-12)


def test_module_entry_point(tmp_path):
    out = tmp_path / "u.mtxc"
    proc = subprocess.run(
        [sys.executable, "-m", "nearcomm", "generate", "gapped", "--n", "3",
         "--delta", "1.0", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert out.exists()


def test_subprocess_exit_code_on_rejection(tmp_path):
    u_path, v_path = tmp_path / "u.mtxc", tmp_path / "v.mtxc"
    main(["generate", "voiculescu", "--n", "16", "--out-u", str(u_path),
          "--out-v", str(v_path)])
    proc = subprocess.run(
        [sys.executable, "-m", "nearcomm", "pair", str(u_path), str(v_path),
         "--min-gap", "0.3", "--out-x", str(tmp_path / "x.mtxc"),
         "--out-y", str(tmp_path / "y.mtxc")],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_REJECTED
    assert "rejected" in proc.stderr
