"""Validation metrics: error/moment formulas, the Gaussian KDE, and the
report assembly."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowstab.errors import ConfigError
from flowstab.metrics import (Report, build_report, kde, ks_statistic,
                              metrics_csv, moments, prob_nonneg, rmse,
                              silverman_bandwidth)

finite = st.floats(-1e6, 1e6, allow_nan=False)
vectors = hnp.arrays(np.float64, st.integers(1, 40), elements=finite)


def test_rmse_trivials():
    x = np.array([0.3, -1.2, 4.0])
    assert rmse(x, x) == 0.0
    assert rmse(x + 0.25, x) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ConfigError):
        rmse(x, x[:2])


def test_rmse_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal(17)
        b = rng.standard_normal(17)
        brute = np.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)) / 17.0)
        assert rmse(a, b) == pytest.approx(brute, rel=1e-15, abs=1e-15)


@given(vectors)
@settings(max_examples=40, deadline=None)
def test_rmse_symmetric_nonnegative(a):
    b = a[::-1].copy()
    assert rmse(a, b) >= 0.0
    assert rmse(a, b) == pytest.approx(rmse(b, a), rel=1e-13, abs=1e-13)


def test_moments_trivials():
    assert moments(np.full(9, 2.5)) == (2.5, 0.0)
    mu, sigma = moments(np.array([-1.0, 1.0]))
    assert mu == 0.0 and sigma == 1.0


def test_moments_match_streaming():
    # one-pass accumulation, population normalization
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1000) * 3.0 + 0.7
    s1 = s2 = 0.0
    for v in x:
        s1 += v
        s2 += v * v
    mu_ref = s1 / x.size
    sigma_ref = np.sqrt(s2 / x.size - mu_ref**2)
    mu, sigma = moments(x)
    assert mu == pytest.approx(mu_ref, rel=1e-12, abs=1e-12)
    assert sigma == pytest.approx(sigma_ref, rel=1e-12)


def test_prob_nonneg_counts():
    assert prob_nonneg([0.1, 2.0, 5.0]) == 1.0
    assert prob_nonneg([-0.1, -2.0]) == 0.0
    mixed = [0.0, 1.0, 2.0, 3.0, 0.5, 0.25, 4.0, -1.0, -2.0, -0.5]
    assert prob_nonneg(mixed) == pytest.approx(0.7)
    # zero counts as nonnegative, exactly as the indicator reads
    assert prob_nonneg([0.0]) == 1.0


def test_silverman_formula():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(400)
    sigma = np.std(x, ddof=1)
    iqr = np.percentile(x, 75) - np.percentile(x, 25)
    expected = 0.9 * min(sigma, iqr / 1.34) * 400 ** (-0.2)
    assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-14)


def test_silverman_degenerate_spreads():
    # ties collapse the IQR but not the std; the rule must stay positive
    x = np.array([0.0] * 40 + [1.0] * 5)
    assert np.percentile(x, 75) - np.percentile(x, 25) == 0.0
    assert silverman_bandwidth(x) > 0.0
    assert silverman_bandwidth(np.array([4.0, 4.0, 4.0])) > 0.0
    assert silverman_bandwidth(np.array([7.5])) > 0.0
    with pytest.raises(ConfigError):
        silverman_bandwidth([])


def test_kde_matches_normal_density():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100_000)
    grid = np.linspace(-3.0, 3.0, 121)
    density = kde(x, grid)
    exact = np.exp(-0.5 * grid**2) / np.sqrt(2.0 * np.pi)
    assert np.abs(density - exact).max() <= 0.01
    assert (density >= 0.0).all()


def test_kde_integrates_to_one():
    rng = np.random.default_rng(7)
    for sample in (rng.standard_normal(500),
                   rng.uniform(-1, 1, 200) ** 3,
                   np.array([0.0])):
        pad = 3.0 * silverman_bandwidth(sample)
        grid = np.linspace(sample.min() - pad, sample.max() + pad, 801)
        mass = np.trapezoid(kde(sample, grid), grid)
        assert abs(mass - 1.0) <= 0.01


def test_kde_single_point_bump():
    grid = np.linspace(1.0, 3.0, 401)
    density = kde(np.array([2.0]), grid)
    peak = np.argmax(density)
    assert grid[peak] == pytest.approx(2.0, abs=6e-3)
    assert (np.diff(density[:peak + 1]) >= 0.0).all()
    assert (np.diff(density[peak:]) <= 0.0).all()


def test_kde_bandwidth_doubling_smooths():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(300)
    grid = np.linspace(-4, 4, 301)
    h = silverman_bandwidth(x)
    assert kde(x, grid, bandwidth=2 * h).max() <= kde(x, grid, bandwidth=h).max()
    with pytest.raises(ConfigError):
        kde(x, grid, bandwidth=0.0)
    with pytest.raises(ConfigError):
        kde([], grid)


def test_kde_chunking_is_invisible():
    # same answer whether the grid fits one block or spans many
    rng = np.random.default_rng(9)
    x = rng.standard_normal(50)
    short = np.linspace(-2, 2, 30)
    long = np.linspace(-2, 2, 517)
    dense = kde(x, long)
    idx = np.searchsorted(long, short)
    np.testing.assert_allclose(kde(x, long[idx]), dense[idx], rtol=1e-13)


def test_ks_statistic_limits():
    a = np.array([1.0, 2.0, 3.0])
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(a, a + 100.0) == 1.0
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(80), rng.standard_normal(120) + 0.3
    ref = scipy_stats.ks_2samp(x, y, method="asymp").statistic
    assert ks_statistic(x, y) == pytest.approx(ref, abs=1e-12)


@given(vectors, vectors)
@settings(max_examples=40, deadline=None)
def test_ks_statistic_bounds(a, b):
    d = ks_statistic(a, b)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(ks_statistic(b, a), abs=1e-15)


def _toy_report():
    rng = np.random.default_rng(6)
    mc = rng.standard_normal(100) * 0.02 - 0.01
    sur = {"sc": mc + 1e-5 * rng.standard_normal(100),
           "gp": mc + 1e-3 * rng.standard_normal(100)}
    return build_report(mc, sur, label="toy", sample_hash="abc",
                        n_failed=2), mc, sur


def test_report_columns_and_rows():
    report, mc, sur = _toy_report()
    assert list(report.columns) == ["mc", "sc", "gp"]
    assert "rmse" not in report.columns["mc"]
    assert report.columns["sc"]["rmse"] == pytest.approx(
        rmse(sur["sc"], mc), rel=1e-15)
    mu, sigma = moments(mc)
    assert report.columns["mc"]["mu"] == mu
    assert report.columns["mc"]["sigma"] == sigma
    rows = report.metrics_rows()
    assert [r[0] for r in rows] == ["metric", "rmse", "mu", "sigma", "pr"]
    assert rows[1][1] == ""          # no simulator-vs-itself RMSE
    assert report.n_samples == 100 and report.n_failed == 2


def test_report_identical_surrogate_is_exact():
    mc = np.array([-0.4, -0.1, 0.2, 0.05])
    report = build_report(mc, {"sc": mc.copy()})
    assert report.columns["sc"]["rmse"] == 0.0
    assert report.columns["sc"]["pr"] == report.columns["mc"]["pr"]


def test_report_mismatched_column_rejected():
    with pytest.raises(ConfigError):
        build_report(np.ones(5), {"sc": np.ones(4)})
    with pytest.raises(ConfigError):
        build_report(np.array([]), {})


def test_report_bit_exact_rebuild():
    first, _, _ = _toy_report()
    second, _, _ = _toy_report()
    assert json.dumps(first.to_dict(), sort_keys=True) == \
        json.dumps(second.to_dict(), sort_keys=True)


def test_report_file_round_trip(tmp_path):
    report, mc, _ = _toy_report()
    jpath = tmp_path / "report.json"
    report.to_json(jpath)
    data = json.loads(jpath.read_text())
    assert data["label"] == "toy"
    assert data["columns"]["gp"]["mu"] == report.columns["gp"]["mu"]
    assert len(data["kde"]["abscissae"]) == 512

    mpath = tmp_path / "metrics.csv"
    metrics_csv([report], mpath)
    lines = mpath.read_text().strip().splitlines()
    assert lines[0] == "# toy"
    assert lines[1] == "metric,mc,sc,gp"
    assert lines[2].startswith("rmse,,")
    assert float(lines[3].split(",")[1]) == report.columns["mc"]["mu"]

    kpath = tmp_path / "kde.csv"
    report.kde_csv(kpath)
    rows = kpath.read_text().strip().splitlines()
    assert rows[0] == "abscissa,mc,sc,gp"
    assert len(rows) == 513
    first = rows[1].split(",")
    assert float(first[0]) == report.kde_abscissae[0]
    assert float(first[1]) == report.kde_curves["mc"][0]


def test_report_kde_curves_normalized():
    report, _, _ = _toy_report()
    grid = report.kde_abscissae
    for curve in report.kde_curves.values():
        assert (curve >= 0.0).all()
        assert np.trapezoid(curve, grid) == pytest.approx(1.0, abs=0.01)


def test_report_is_dataclass_payload():
    report, _, _ = _toy_report()
    assert isinstance(report, Report)
    assert report.sample_hash == "abc"
