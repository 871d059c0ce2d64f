import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack import cli
from uavtrack.dataio import Segment, write_position_log, write_segments
from uavtrack.geodesy import EnuPoint
from uavtrack.metrics import MetricsError, cdf, euclidean_errors, quantile, segment_stats, stats
from uavtrack.motionmodels import ModelKind, NoiseSigmas


def _pts(coords):
    return [EnuPoint(x, y) for x, y in coords]


def _seg(sid, start, end, mm=ModelKind.CV):
    return Segment(sid, start, end, mm, NoiseSigmas())


class TestEuclideanErrors:
    def test_three_four_five(self):
        assert euclidean_errors(_pts([(0, 0)]), _pts([(3, 4)]))[0] == pytest.approx(5.0)

    def test_identical_sequences(self):
        pts = _pts([(1, 2), (3, 4), (5, 6)])
        assert np.all(euclidean_errors(pts, pts) == 0)

    def test_diagonal(self):
        assert euclidean_errors(_pts([(1, 1)]), _pts([(2, 2)]))[0] == pytest.approx(math.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            euclidean_errors(_pts([(0, 0)]), _pts([(0, 0), (1, 1)]))

    @pytest.mark.parametrize("empty", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_no_points_no_errors(self, empty):
        errors = euclidean_errors(empty, empty)
        assert errors.shape == (0,) and errors.dtype == float


class TestStats:
    def test_constant(self):
        s = stats([5, 5, 5])
        assert (s.min_m, s.max_m, s.mean_m, s.std_m) == (5, 5, 5, 0)

    def test_sample_std(self):
        s = stats([1, 2, 3, 4])
        assert s.mean_m == pytest.approx(2.5)
        assert s.std_m == pytest.approx(math.sqrt(5 / 3))

    def test_singleton(self):
        s = stats([7])
        assert (s.min_m, s.max_m, s.mean_m, s.std_m, s.n) == (7, 7, 7, 0, 1)

    def test_empty(self):
        with pytest.raises(MetricsError):
            stats([])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_order_invariance(self, errors):
        a, b = stats(errors), stats(sorted(errors, reverse=True))
        assert (a.min_m, a.max_m, a.n) == (b.min_m, b.max_m, b.n)
        assert a.mean_m == pytest.approx(b.mean_m, rel=1e-12, abs=1e-12)
        assert a.std_m == pytest.approx(b.std_m, rel=1e-12, abs=1e-12)


class TestCdf:
    def test_definition(self):
        curve = cdf([1, 2, 3])
        i = list(curve.errors_m).index(2)
        assert curve.fractions[i] == pytest.approx(2 / 3)

    def test_all_equal_single_point(self):
        curve = cdf([4, 4, 4])
        assert curve.errors_m.size == 1
        assert curve.fractions[-1] == 1.0

    def test_empty(self):
        with pytest.raises(MetricsError, match="empty error sequence"):
            cdf([])

    def test_last_fraction_exactly_one(self):
        curve = cdf(np.random.default_rng(0).uniform(0, 100, 500))
        assert curve.fractions[-1] == 1.0

    @given(st.lists(st.floats(0, 1e4), min_size=1, max_size=100))
    def test_valid_distribution_function(self, errors):
        curve = cdf(errors)
        assert np.all(np.diff(curve.errors_m) > 0)
        assert np.all(np.diff(curve.fractions) > 0)
        assert curve.fractions[-1] == 1.0
        assert set(curve.errors_m) == set(errors)


class TestQuantile:
    def test_rank_statistic(self):
        assert quantile(cdf(range(1, 11)), 0.9) == 9

    def test_q_one_is_max(self):
        assert quantile(cdf([3, 1, 4, 1, 5]), 1.0) == 5

    def test_median_of_three(self):
        # step function enumerated by hand: F(1)=1/3, F(2)=2/3, F(3)=1
        assert quantile(cdf([1, 2, 3]), 0.5) == 2

    def test_min_at_one_over_n(self):
        errors = [7, 3, 9, 5]
        assert quantile(cdf(errors), 1 / len(errors)) == min(errors)

    def test_bad_level(self):
        with pytest.raises(MetricsError):
            quantile(cdf([1]), 0.0)


def _report(tmp_path, segments, rf_errors, ekf_errors):
    """Lines of the report.csv that track writes for per-segment RF and EKF errors."""
    cli._write_segment_table(tmp_path / "report.csv", segments, rf_errors, ekf_errors)
    return (tmp_path / "report.csv").read_text().splitlines()


class TestSegmentReport:
    def test_identical_errors_no_flags(self, tmp_path):
        lines = _report(tmp_path, [_seg("S1", 0, 2)], [[1, 2, 3]], [[1, 2, 3]])
        assert all(r["better"] == "tie" for r in csv.DictReader(lines))

    def test_halved_errors_favor_ekf(self, tmp_path):
        rf = [2.0, 4.0, 6.0]
        rows = list(csv.DictReader(_report(tmp_path, [_seg("S1", 0, 2)], [rf], [[e / 2 for e in rf]])))
        assert len(rows) == 4
        assert all(r["better"] == "ekf" for r in rows)

    def test_golden_rendering_fixture(self, tmp_path):
        # reference values fed in as inputs: min 1.08 vs 0.23, max 14.25 vs 13.88
        lines = _report(tmp_path, [_seg("S1", 0, 1, ModelKind.CT)], [[1.08, 14.25]], [[0.23, 13.88]])
        by_stat = {r["stat"]: r for r in csv.DictReader(lines)}
        assert float(by_stat["min"]["rf_m"]) == pytest.approx(1.08)
        assert by_stat["min"]["better"] == "ekf"
        assert float(by_stat["max"]["ekf_m"]) == pytest.approx(13.88)
        assert by_stat["max"]["better"] == "ekf"
        assert lines[0] == "segment,mm,stat,rf_m,ekf_m,better"
        assert any(row.startswith("S1,CT,min,1.0800,0.2300,ekf") for row in lines)

    def test_empty_segment_omitted(self, tmp_path):
        # S2 holds one pair, so track skips it and reports S1 alone
        t_ms = np.arange(4) * 1000
        latlon = np.c_[35.8 + 1e-5 * np.arange(4), np.full(4, -78.7)]
        write_position_log(tmp_path / "truth.csv", t_ms, latlon)
        write_position_log(tmp_path / "rf.csv", t_ms, latlon + 1e-6)
        write_segments(tmp_path / "segments.json", [_seg("S1", 0, 2), _seg("S2", 3, 3)])
        paths = {"truth": "truth.csv", "rf": "rf.csv", "segments": "segments.json"}
        (tmp_path / "config.json").write_text(json.dumps({"paths": paths}))
        assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "run"), "track"]) == 0
        with open(tmp_path / "run/report.csv") as f:
            assert {r["segment"] for r in csv.DictReader(f)} == {"S1"}


def _frozen_stats(errors):
    """``stats`` as it was before it became one row of ``segment_stats``: (min, max, mean, std)."""
    e = np.asarray(errors, dtype=float)
    std = float(np.std(e, ddof=1)) if e.size > 1 else 0.0
    return [float(e.min()), float(e.max()), float(e.mean()), std]


class TestSegmentStats:
    # lengths on both sides of the 8-element unrolling and the 128-element
    # block of numpy's pairwise sum, several segments per length
    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 300]), min_size=1, max_size=25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_stats(self, lengths, seed):
        rng = np.random.default_rng(seed)
        groups = [rng.gamma(2.0, 5.0, n) * rng.uniform(0.01, 100.0) for n in lengths]
        for group, row in zip(groups, segment_stats(groups).tolist()):
            assert row == _frozen_stats(group)

    def test_empty_group_rejected(self):
        with pytest.raises(MetricsError):
            segment_stats([[1.0], []])


class TestCdfCsv:
    def test_rows(self, tmp_path):
        cli._write_cdf(tmp_path / "cdf.csv", np.array([1.5, 3.0]))
        rows = (tmp_path / "cdf.csv").read_text().splitlines()
        assert rows[0] == "error_m,fraction"
        assert rows[1] == "1.500000,0.50000000"
        assert rows[2] == "3.000000,1.00000000"
