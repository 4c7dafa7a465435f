"""Validation metrics for surrogate outputs against Monte Carlo runs.

Everything here works on plain arrays of rightmost-eigenvalue real parts,
computed on the *same* germ samples for the simulator and every surrogate;
the report records the sample hash so that discipline is checkable.
Moments use population (1/n) normalization throughout, matching how the
summary statistics are usually printed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

_KDE_CHUNK = 64          # grid points per evaluation block
_KDE_POINTS = 512
_KDE_PAD = 3.0           # window margin in bandwidths

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def rmse(predicted, reference) -> float:
    """Root mean square error between two aligned output vectors."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape:
        raise ConfigError("rmse needs vectors of equal length")
    return float(np.sqrt(np.mean((predicted - reference) ** 2)))


def moments(outputs) -> tuple[float, float]:
    """Ensemble mean and standard deviation with 1/n normalization."""
    outputs = np.asarray(outputs, dtype=float)
    mu = float(np.mean(outputs))
    sigma = float(np.sqrt(np.mean((outputs - mu) ** 2)))
    return mu, sigma


def prob_nonneg(outputs) -> float:
    """Fraction of samples with a nonnegative value (instability odds)."""
    outputs = np.asarray(outputs, dtype=float)
    return float(np.mean(outputs >= 0.0))


def silverman_bandwidth(outputs) -> float:
    """0.9 min(sigma, IQR/1.34) n^{-1/5}, with fallbacks for degenerate
    spreads (ties collapse the IQR, single points have no sample std)."""
    outputs = np.asarray(outputs, dtype=float)
    n = outputs.size
    if n == 0:
        raise ConfigError("bandwidth of an empty sample")
    sigma = float(np.std(outputs, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(outputs, [75.0, 25.0])
    iqr = float(q75 - q25)
    spreads = [s for s in (sigma, iqr / 1.34) if s > 0.0]
    if spreads:
        return 0.9 * min(spreads) * n ** (-0.2)
    # all values coincide: any positive width gives the right bump shape
    scale = max(1.0, abs(float(outputs[0])))
    return 1e-3 * scale


def kde(outputs, abscissae, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian kernel density estimate on the given abscissae.

    Evaluation is blocked over the grid so large samples never allocate
    the full n_grid x n_sample distance matrix.
    """
    outputs = np.asarray(outputs, dtype=float).ravel()
    abscissae = np.asarray(abscissae, dtype=float).ravel()
    if outputs.size == 0:
        raise ConfigError("kde of an empty sample")
    h = silverman_bandwidth(outputs) if bandwidth is None else float(bandwidth)
    if h <= 0.0:
        raise ConfigError("kde bandwidth must be positive")
    density = np.empty_like(abscissae)
    norm = 1.0 / (outputs.size * h * _SQRT_2PI)
    for start in range(0, abscissae.size, _KDE_CHUNK):
        block = abscissae[start:start + _KDE_CHUNK]
        z = (block[:, None] - outputs[None, :]) / h
        density[start:start + _KDE_CHUNK] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return density


def ks_statistic(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a = np.sort(np.asarray(sample_a, dtype=float).ravel())
    b = np.sort(np.asarray(sample_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ConfigError("ks_statistic needs nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


_METRIC_ROWS = ("rmse", "mu", "sigma", "pr")


@dataclass
class Report:
    """Tables-shaped comparison of surrogates against the simulator.

    ``columns`` maps a column name ("mc" first, then each surrogate) to its
    metric dict; the simulator column has no RMSE entry.  ``kde_curves``
    shares one abscissae grid across columns.
    """

    label: str
    sample_hash: str
    n_samples: int
    n_failed: int
    columns: dict
    kde_abscissae: np.ndarray = field(repr=False)
    kde_curves: dict = field(repr=False)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "sample_hash": self.sample_hash,
            "n_samples": self.n_samples,
            "n_failed": self.n_failed,
            "columns": self.columns,
            "kde": {
                "abscissae": [float(v) for v in self.kde_abscissae],
                "curves": {name: [float(v) for v in col]
                           for name, col in self.kde_curves.items()},
            },
            "provenance": self.provenance,
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")

    def metrics_rows(self) -> list[list]:
        """Rows RMSE, mu, sigma, Pr with one column per model."""
        names = list(self.columns)
        rows = [["metric"] + names]
        for metric in _METRIC_ROWS:
            row = [metric]
            for name in names:
                value = self.columns[name].get(metric)
                row.append("" if value is None else repr(float(value)))
            rows.append(row)
        return rows

    def kde_csv(self, path) -> None:
        names = list(self.kde_curves)
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["abscissa"] + names)
            for i, x in enumerate(self.kde_abscissae):
                writer.writerow([repr(float(x))]
                                + [repr(float(self.kde_curves[n][i]))
                                   for n in names])


def metrics_csv(reports, path) -> None:
    """Write the metric rows of each report under a ``# label`` line."""
    lines = []
    for report in reports:
        lines.append(f"# {report.label}")
        lines.extend(",".join(row) for row in report.metrics_rows())
        lines.append("")
    Path(path).write_text("\n".join(lines))


def build_report(mc_values, surrogate_values: dict, *, label: str = "",
                 sample_hash: str = "", n_failed: int = 0,
                 provenance: dict | None = None) -> Report:
    """Assemble the metric table and KDE curves for one CoV setting.

    ``mc_values`` and every entry of ``surrogate_values`` must already be
    restricted to the same successful samples, in the same order.
    """
    mc_values = np.asarray(mc_values, dtype=float).ravel()
    if mc_values.size == 0:
        raise ConfigError("report needs at least one successful sample")
    columns: dict[str, dict] = {}
    mu, sigma = moments(mc_values)
    columns["mc"] = {"mu": mu, "sigma": sigma, "pr": prob_nonneg(mc_values)}

    lo, hi = float(mc_values.min()), float(mc_values.max())
    series = {"mc": mc_values}
    for name, values in surrogate_values.items():
        values = np.asarray(values, dtype=float).ravel()
        if values.shape != mc_values.shape:
            raise ConfigError(
                f"surrogate column {name!r} has {values.size} values, "
                f"expected {mc_values.size}")
        mu, sigma = moments(values)
        columns[name] = {
            "rmse": rmse(values, mc_values),
            "mu": mu,
            "sigma": sigma,
            "pr": prob_nonneg(values),
        }
        series[name] = values
        lo = min(lo, float(values.min()))
        hi = max(hi, float(values.max()))

    pad = _KDE_PAD * silverman_bandwidth(mc_values)
    abscissae = np.linspace(lo - pad, hi + pad, _KDE_POINTS)
    curves = {name: kde(vals, abscissae) for name, vals in series.items()}
    return Report(label, sample_hash, int(mc_values.size), int(n_failed),
                  columns, abscissae, curves, provenance or {})
