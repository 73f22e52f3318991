"""Sweep configuration, records, persistence, determinism."""

import itertools
import math

import numpy as np
import pytest

from nearcomm import (ExperimentConfig, InvalidInputError, NumericalError,
                      gen_almost_commuting_pair, near_commuting_unitaries, run_sweep, summarize)
from nearcomm.sweep import CSV_FIELDS, _fmt, write_records


def small_config(**overrides):
    kwargs = dict(n=4, delta=1.0, epsilons=(1e-2, 1e-3), trials=2, seed=7)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def swept(config, path):
    """run_sweep's records, persisted at path by write_records."""
    records = run_sweep(config)
    write_records(path, records, config)
    return records


class TestConfigValidation:
    def test_requires_descending(self):
        with pytest.raises(InvalidInputError):
            small_config(epsilons=(1e-3, 1e-2))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            small_config(epsilons=(1e-2, -1e-3))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, eps):
        with pytest.raises(InvalidInputError):
            small_config(epsilons=(eps,))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError, match="epsilons must be non-empty"):
            small_config(epsilons=())

    def test_zero_allowed(self):
        cfg = small_config(epsilons=(1e-2, 0.0))
        assert cfg.epsilons[-1] == 0.0

    def test_epsilons_stored_as_a_tuple_of_floats(self):
        cfg = small_config(epsilons=[np.float32(0.5), 0])
        assert cfg.epsilons == (0.5, 0.0)
        assert type(cfg.epsilons) is tuple and all(type(e) is float for e in cfg.epsilons)

    def test_trials_positive(self):
        with pytest.raises(InvalidInputError):
            small_config(trials=0)

    @pytest.mark.parametrize("trials", [float("nan"), 1.5, 2.0])
    def test_trials_must_be_integral(self, trials):
        with pytest.raises(InvalidInputError, match="trials must be an integer"):
            small_config(trials=trials)

    @pytest.mark.parametrize("n", [4.5, 4.0, float("nan")])
    def test_dimension_must_be_integral(self, n):
        with pytest.raises(InvalidInputError, match="dimension must be an integer"):
            small_config(n=n)

    def test_numpy_integers_accepted(self):
        cfg = small_config(n=np.int64(4), trials=np.int32(2))
        assert (cfg.n, cfg.trials) == (4, 2)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.pi, 4.0, float("nan")])
    def test_delta_in_open_interval(self, delta):
        with pytest.raises(InvalidInputError):
            small_config(delta=delta)

    @pytest.mark.parametrize("seed", [-1, 1.5, 7.0, float("nan")])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # checked here: run_sweep turns a per-trial InvalidInputError into a NaN row
        with pytest.raises(InvalidInputError, match="seed"):
            small_config(seed=seed)

    def test_dimension_checked_before_delta(self):
        with pytest.raises(InvalidInputError, match="dimension"):
            small_config(n=0, delta=4.0)


class TestRunSweep:
    def test_records_satisfy_contracts(self):
        records = run_sweep(small_config())
        assert len(records) == 4
        for rec in records:
            assert rec.comm_after <= 1e-10 * rec.n
            slack = 2 * (2 * np.pi) * 2e-6  # tails bounded by the series target
            assert rec.measured_log_comm <= rec.predicted_bound + slack
            assert rec.eps_actual <= 2 * rec.eps_target * (1 + 1e-10)
            assert rec.converged

    def test_zero_epsilon_medians(self):
        records = run_sweep(small_config(epsilons=(0.0,), trials=3))
        summary = summarize(records)
        assert summary.median_distance[0] <= 1e-6

    def test_csv_written_and_deterministic(self, tmp_path):
        swept(small_config(), tmp_path / "sweep.csv")
        first = (tmp_path / "sweep.csv").read_bytes()
        swept(small_config(), tmp_path / "sweep2.csv")
        second = (tmp_path / "sweep2.csv").read_bytes()
        strip = lambda raw: [ln for ln in raw.splitlines() if not ln.startswith(b"#")]
        assert strip(first) == strip(second)

    def test_csv_schema_and_precision(self, tmp_path):
        records = swept(small_config(), tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(CSV_FIELDS)
        row = lines[2].split(",")
        # floats round-trip: parse back and compare bitwise
        assert float(row[CSV_FIELDS.index("dist_u")]) == records[0].dist_u
        assert float(row[CSV_FIELDS.index("eps_actual")]) == records[0].eps_actual
        assert row[CSV_FIELDS.index("converged")] in ("0", "1")
        # a checked result names no failure: the last column is empty
        assert CSV_FIELDS[-1] == "failure" and records[0].failure == ""
        assert all(line.endswith(",") for line in lines[2:])

    def test_csv_columns_are_the_pipelines_flat_values(self, tmp_path):
        # a column that flat() also has holds flat()'s value for the same pair,
        # so a rename in flat() fails here
        cfg = small_config()
        swept(cfg, tmp_path / "sweep.csv")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
        shared = set()
        for (i, eps), t in itertools.product(enumerate(cfg.epsilons), range(cfg.trials)):
            u, v, _ = gen_almost_commuting_pair(cfg.n, cfg.delta, eps, cfg.seed, i, t)
            flat = near_commuting_unitaries(u, v).flat()
            cells = dict(zip(CSV_FIELDS, rows[i * cfg.trials + t].split(",")))
            shared = cells.keys() & flat.keys()
            assert all(cells[name] == _fmt(flat[name]) for name in shared)
        assert shared == set(CSV_FIELDS) - {"seed", "eps_target", "eps_actual", "failure"}

    def test_run_sweep_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_sweep(small_config())
        assert list(tmp_path.iterdir()) == []

    def test_records_order_matches_config(self):
        records = run_sweep(small_config())
        eps_seen = [rec.eps_target for rec in records]
        assert eps_seen == [1e-2, 1e-2, 1e-3, 1e-3]


    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug in the pipeline")

        monkeypatch.setattr("nearcomm.sweep.near_commuting_unitaries", broken)
        with pytest.raises(TypeError):
            run_sweep(small_config())

    def test_numerical_failure_becomes_nan_row(self, monkeypatch, tmp_path):
        def failing(*args):
            raise NumericalError("did not converge")

        monkeypatch.setattr("nearcomm.sweep.near_commuting_unitaries", failing)
        records = swept(small_config(), tmp_path / "sweep.csv")
        assert len(records) == 4
        for rec in records:
            assert math.isnan(rec.dist_u) and not rec.converged
            assert math.isfinite(rec.eps_actual)
            assert rec.failure == "NumericalError"
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
        assert len(rows) == 4
        assert all(row.split(",")[CSV_FIELDS.index("dist_u")] == "nan" for row in rows)

    def test_generation_failure_becomes_nan_row(self, monkeypatch):
        # the pair was never drawn, so eps_actual is NaN too
        def failing(*args):
            raise InvalidInputError("no pair")

        monkeypatch.setattr("nearcomm.sweep.gen_almost_commuting_pair", failing)
        records = run_sweep(small_config())
        assert len(records) == 4
        for rec in records:
            assert math.isnan(rec.eps_actual) and math.isnan(rec.dist_u)
            assert rec.failure == "InvalidInputError"


class TestFormat:
    def test_ints_and_bools_print_as_integers(self):
        assert (_fmt(True), _fmt(False), _fmt(np.int64(7)), _fmt(12)) == ("1", "0", "7", "12")

    def test_floats_print_17_significant_digits(self):
        assert _fmt(0.1) == "0.10000000000000001"
        assert _fmt(np.float64(-1 / 3)) == "-0.33333333333333331"


class TestSummarize:
    def test_medians_and_slope(self):
        records = run_sweep(small_config(epsilons=(1e-1, 1e-2, 1e-3), trials=3, n=6))
        summary = summarize(records)
        assert len(summary.median_distance) == 3
        assert all(m >= 0 for m in summary.median_distance)
        assert math.isfinite(summary.slope)
        # distances shrink with epsilon, so the log-log slope is positive
        assert summary.slope > 0

    def test_slope_nan_with_single_group(self):
        records = run_sweep(small_config(epsilons=(1e-2,), trials=2))
        assert math.isnan(summarize(records).slope)

    def test_all_failed_group_gives_nan_medians_and_slope(self, monkeypatch):
        def failing(*args):
            raise NumericalError("did not converge")

        monkeypatch.setattr("nearcomm.sweep.near_commuting_unitaries", failing)
        summary = summarize(run_sweep(small_config(epsilons=(1e-2,))))
        assert math.isnan(summary.median_eps_actual[0])
        assert math.isnan(summary.median_distance[0])
        assert math.isnan(summary.slope)
