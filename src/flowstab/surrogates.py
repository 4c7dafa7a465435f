"""Response surfaces for the rightmost eigenvalue over the random inputs.

Three surrogate families share one trained-on-scaled-data convention:
targets are standardized to zero mean and unit deviation over the design
set before fitting, predictions are mapped back afterwards.

* stochastic collocation: discrete projection of the samples onto an
  orthonormal chaos basis using sparse-grid weights;
* Gaussian process regression: constant-mean kriging with the squared
  exponential correlation ``exp(-0.5 |dxi|^2 / sigma_l)``, the scale
  ``sigma_l`` picked by profile likelihood;
* shallow network: one tanh layer of 20 units trained by
  Levenberg-Marquardt with evidence-based (Bayesian) regularization.

Each surrogate is a frozen dataclass of plain data (arrays, numbers and
its target scaler) and evaluation is pure, so instances can be shared
freely across worker processes; a surrogate file holds each of its fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy import linalg

from .errors import ConfigError, TrainingError
from .gpc import GpcBasis
from .quadrature import SparseGrid

_JITTER_BASE = 1e-10
_JITTER_CAP = 1e-6
_LOG_BRACKET = (math.log(1e-2), math.log(1e2))
_SCAN_POINTS = 64
_RESCANS = 2

_MU0 = 0.005          # LM damping start
_MU_DEC = 0.1
_MU_INC = 10.0
_MU_MAX = 1e10
_GRAD_TOL = 1e-7
_MAX_ITERS = 1000
_HYPER_CAP = 1e10     # keeps alpha/beta finite when a fit becomes exact

#: fewest design points each regression model trains on
MIN_DESIGN = {"gp": 2, "nn": 4}

#: version of the fits, stored in each file's provenance by ``train``;
#: every change that moves fitted values bumps it, so files fitted by an
#: older version are refitted, not reused.
#: 1: GP length scale by a scan refined by golden-section search
#: 2: GP length scale by a scan and two zoomed rescans
FIT = 2


@dataclass(frozen=True)
class Scaler:
    """Affine target standardization; ``sigma == 0`` means disabled."""

    mu: float
    sigma: float

    @classmethod
    def fit(cls, targets: np.ndarray) -> "Scaler":
        mu = float(np.mean(targets))
        sigma = float(np.std(targets, ddof=1)) if targets.size > 1 else 0.0
        return cls(mu, sigma)

    @property
    def factor(self) -> float:
        return self.sigma if self.sigma > 0.0 else 1.0

    def scale(self, values):
        return (np.asarray(values, dtype=float) - self.mu) / self.factor

    def descale(self, values):
        return np.asarray(values, dtype=float) * self.factor + self.mu


@dataclass(frozen=True)
class TrainingSet:
    """Design inputs with eigenvalue targets and their standardization."""

    inputs: np.ndarray            # (n, m)
    targets: np.ndarray           # (n,) real channel
    scaler: Scaler

    @classmethod
    def from_samples(cls, inputs, targets) -> "TrainingSet":
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.asarray(targets, dtype=float).ravel()
        if inputs.shape[0] != targets.size:
            raise ValueError("inputs and targets disagree on sample count")
        if targets.size < 2:
            raise ValueError("need at least two samples")
        return cls(inputs, targets, Scaler.fit(targets))

    @property
    def n(self) -> int:
        return self.targets.size

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def scaled_targets(self) -> np.ndarray:
        return self.scaler.scale(self.targets)

    def subsample(self, stride: int) -> "TrainingSet":
        """Every ``stride``-th sample in index order, rescaled on the subset."""
        if stride < 1:
            raise ValueError("stride must be a positive integer")
        if stride == 1:
            return self
        return TrainingSet.from_samples(self.inputs[::stride],
                                        self.targets[::stride])


# ---------------------------------------------------------------- collocation

@dataclass(frozen=True)
class ScSurrogate:
    """Chaos expansion fitted by discrete projection on a sparse grid."""

    basis: GpcBasis
    coeffs: np.ndarray                 # (n_terms,)

    def evaluate(self, points) -> np.ndarray:
        return self.basis.evaluate(points) @ self.coeffs

    @property
    def mean(self) -> float:
        """E[surrogate]; the constant basis function carries the mean."""
        return float(self.coeffs[0])

    @property
    def variance(self) -> float:
        return float(np.sum(self.coeffs[1:] ** 2))


def sc_train(grid: SparseGrid, targets, degree: int) -> ScSurrogate:
    """Project node samples onto the total-degree basis with grid weights."""
    targets = np.asarray(targets, dtype=float).ravel()
    if targets.size != grid.nodes.shape[0]:
        raise ValueError(
            f"{targets.size} targets for {grid.nodes.shape[0]} grid nodes")
    basis = GpcBasis.total_degree(grid.family, grid.dim, degree)
    table = basis.evaluate(grid.nodes)          # (n_q, n_terms)
    coeffs = (grid.weights[:, None] * table).T @ targets
    return ScSurrogate(basis, coeffs)


# ------------------------------------------------------------------- kriging

@dataclass(frozen=True)
class GpSurrogate:
    """Constant-mean Gaussian process conditioned on the design set.

    All internal state lives in scaled target units; ``evaluate`` and
    ``variance`` descale on the way out.
    """

    inputs: np.ndarray        # (n, m)
    scaler: Scaler
    sigma_l: float
    mu_hat: float             # scaled units
    sigma_f2: float           # residual quadratic form, scaled units
    alpha: np.ndarray         # C_d^{-1} (y - mu_hat)
    jitter: float             # diagonal nudge that made C_d factorable

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def _cross(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _kernel(_sq_dists(pts, self.inputs), self.sigma_l)

    def evaluate(self, points) -> np.ndarray:
        return self.scaler.descale(self.mu_hat + self._cross(points) @ self.alpha)

    def variance(self, points) -> np.ndarray:
        """Posterior variance of the t-predictive, in target units squared."""
        dof = self.n - 1 - 2
        if dof <= 0:
            raise TrainingError(
                f"posterior variance needs at least 4 design points, have {self.n}")
        cho = linalg.cholesky(
            self._cross(self.inputs) + self.jitter * np.eye(self.n), lower=True)
        cinv_h = linalg.cho_solve((cho, True), np.ones(self.n))
        r = self._cross(points)
        ctr = linalg.cho_solve((cho, True), r.T)
        q = 1.0 - r @ cinv_h
        raw = 1.0 - np.sum(r * ctr.T, axis=1) + q**2 / float(cinv_h.sum())
        out = self.sigma_f2 / dof * np.maximum(raw, 0.0)
        return out * self.scaler.factor**2


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between every row of `a` and every row of `b`."""
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def _kernel(d2: np.ndarray, sigma_l: float) -> np.ndarray:
    """Squared exponential correlation of squared distances."""
    return np.exp(-0.5 * d2 / sigma_l)


def _chol_jittered(c: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor with an escalating diagonal nudge."""
    jitter = _JITTER_BASE * float(np.trace(c)) / c.shape[0]
    while True:
        try:
            return linalg.cholesky(c + jitter * np.eye(c.shape[0]), lower=True), jitter
        except linalg.LinAlgError:
            jitter *= 10.0
            if jitter > _JITTER_CAP:
                raise TrainingError(
                    "design correlation matrix stayed indefinite at the jitter cap")


def _gp_profile(d2: np.ndarray, y: np.ndarray, log_sl: float):
    """Profiled log-likelihood and the fit (jitter, mu, quad, alpha) at
    one correlation length."""
    n = y.size
    cho, jitter = _chol_jittered(_kernel(d2, math.exp(log_sl)))
    w = linalg.cho_solve((cho, True), y)
    v = linalg.cho_solve((cho, True), np.ones(n))
    hch = float(v.sum())
    mu = float(y @ v) / hch
    alpha = w - mu * v
    quad = float((y - mu) @ alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho))))
    ll = -0.5 * (n - 1) * math.log(max(quad, 1e-300)) \
        - 0.5 * logdet - 0.5 * math.log(hch)
    return ll, (jitter, mu, quad, alpha)


def gp_train(design: TrainingSet, sigma_l: float | None = None) -> GpSurrogate:
    """Fit the kriging surrogate, optimizing ``sigma_l`` unless given.

    The profile likelihood is scanned at 64 log-spaced lengths over
    [1e-2, 1e2], then twice more over the interval between the
    neighbours of the best point, on a final spacing of 1.5e-4 in
    ``log sigma_l``; a supplied ``sigma_l`` skips the search
    (useful for closed-form checks).
    """
    if design.n < MIN_DESIGN["gp"]:
        raise TrainingError(f"kriging needs {MIN_DESIGN['gp']} design points")
    x = design.inputs
    d2 = _sq_dists(x, x)
    if np.min(d2 + np.eye(design.n)) <= 0.0:
        raise TrainingError("design points must be pairwise distinct")
    y = design.scaled_targets

    if sigma_l is None:
        if np.ptp(design.targets) == 0.0:
            sigma_l = 1.0   # constant targets: any length reproduces them
        else:
            sigma_l = math.exp(_optimize_length(d2, y))
    jitter, mu, quad, alpha = _gp_profile(d2, y, math.log(sigma_l))[1]
    return GpSurrogate(x, design.scaler, float(sigma_l), mu, quad, alpha,
                       jitter)


def _optimize_length(d2: np.ndarray, y: np.ndarray) -> float:
    """Log correlation length of largest profile likelihood: a scan of
    :data:`_LOG_BRACKET`, then :data:`_RESCANS` scans of the interval
    between the neighbours of the best point so far."""
    lo, hi = _LOG_BRACKET
    for _ in range(1 + _RESCANS):
        grid = np.linspace(lo, hi, _SCAN_POINTS)
        i = int(np.argmax([_gp_profile(d2, y, t)[0] for t in grid]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, _SCAN_POINTS - 1)]
    return float(grid[i])


# ------------------------------------------------------------ shallow network

_HIDDEN = 20


@dataclass(frozen=True)
class NnSurrogate:
    """One tanh hidden layer; inputs mapped to [-1, 1], outputs descaled."""

    w1: np.ndarray            # (hidden, m)
    b1: np.ndarray            # (hidden,)
    w2: np.ndarray            # (hidden,)
    b2: float
    in_lo: np.ndarray         # (m,) training input range
    in_hi: np.ndarray
    scaler: Scaler
    seed: int
    info: dict = field(default_factory=dict, repr=False)

    def evaluate(self, points) -> np.ndarray:
        x = _unit_box(points, self.in_lo, self.in_hi)
        return self.scaler.descale(
            _nn_forward(self.w1, self.b1, self.w2, self.b2, x)[0])


def _unit_box(points, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map the box [lo, hi] onto [-1, 1] per input; a flat input only shifts."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    span = np.where(hi > lo, hi - lo, 1.0)
    return 2.0 * (pts - lo) / span - 1.0


def _nn_forward(w1, b1, w2, b2, x: np.ndarray):
    """Network output and hidden activations at mapped inputs `x`."""
    h = np.tanh(x @ w1.T + b1)
    return h @ w2 + b2, h


def _nn_init(rng: np.random.Generator, m: int) -> np.ndarray:
    """Nguyen-Widrow start: unit rows scaled to cover the input box."""
    mag = 0.7 * _HIDDEN ** (1.0 / m)
    w1 = rng.uniform(-1.0, 1.0, size=(_HIDDEN, m))
    w1 *= mag / np.linalg.norm(w1, axis=1, keepdims=True)
    b1 = mag * np.linspace(-1.0, 1.0, _HIDDEN) * np.sign(w1[:, 0])
    w2 = rng.uniform(-0.5, 0.5, size=_HIDDEN)
    b2 = np.zeros(1)
    return np.concatenate([w1.ravel(), b1, w2, b2])


def _nn_unpack(theta: np.ndarray, m: int):
    k = _HIDDEN * m
    w1 = theta[:k].reshape(_HIDDEN, m)
    b1 = theta[k:k + _HIDDEN]
    w2 = theta[k + _HIDDEN:k + 2 * _HIDDEN]
    return w1, b1, w2, theta[-1]


def _nn_jacobian(theta: np.ndarray, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d(output)/d(theta) for every sample; columns follow _nn_unpack order."""
    _, _, w2, _ = _nn_unpack(theta, x.shape[1])
    gate = (1.0 - h**2) * w2            # (n, hidden)
    jw1 = gate[:, :, None] * x[:, None, :]
    return np.concatenate([
        jw1.reshape(x.shape[0], -1), gate, h,
        np.ones((x.shape[0], 1)),
    ], axis=1)


def _split_indices(rng: np.random.Generator, n: int):
    """80/10/10 split by shuffled index; remainders stay in training."""
    perm = rng.permutation(n)
    n_test = round(0.1 * n)
    n_val = round(0.1 * n)
    return perm[n_test + n_val:], perm[n_test:n_test + n_val], perm[:n_test]


def nn_train(design: TrainingSet, seed: int = 0) -> NnSurrogate:
    """Levenberg-Marquardt with evidence-updated quadratic regularization.

    The optimized objective is ``beta * SSE + alpha * |theta|^2`` with
    (alpha, beta) re-estimated from the effective number of parameters
    after every accepted step.  Validation and test errors are recorded
    for the returned network but never gate the iteration.
    """
    if design.n < MIN_DESIGN["nn"]:
        raise TrainingError(
            f"network training needs at least {MIN_DESIGN['nn']} samples")
    rng = np.random.default_rng(seed)
    lo = design.inputs.min(axis=0)
    hi = design.inputs.max(axis=0)
    x_all = _unit_box(design.inputs, lo, hi)
    y_all = design.scaled_targets
    idx_train, idx_val, idx_test = _split_indices(rng, design.n)
    x, y = x_all[idx_train], y_all[idx_train]
    n, m = x.shape

    theta = _nn_init(rng, m)
    n_par = theta.size
    alpha, beta = 0.0, 1.0
    mu = _MU0
    out, h = _nn_forward(*_nn_unpack(theta, m), x)
    resid = out - y
    e_data = float(resid @ resid)
    e_weight = float(theta @ theta)
    objective = beta * e_data + alpha * e_weight
    # best-so-far is compared under the *current* hyperparameters, since
    # the objective scale moves whenever (alpha, beta) are re-estimated
    best = (theta.copy(), e_data, e_weight)
    grad_norm = math.inf
    iters = 0

    for iters in range(1, _MAX_ITERS + 1):
        jac = _nn_jacobian(theta, x, h)
        grad = 2.0 * beta * (jac.T @ resid) + 2.0 * alpha * theta
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < _GRAD_TOL:
            break
        hess = 2.0 * beta * (jac.T @ jac) + 2.0 * alpha * np.eye(n_par)
        accepted = False
        while mu <= _MU_MAX:
            try:
                step = np.linalg.solve(hess + mu * np.eye(n_par), -grad)
            except np.linalg.LinAlgError:
                mu *= _MU_INC
                continue
            trial = theta + step
            t_out, t_h = _nn_forward(*_nn_unpack(trial, m), x)
            t_resid = t_out - y
            t_ed = float(t_resid @ t_resid)
            t_ew = float(trial @ trial)
            t_obj = beta * t_ed + alpha * t_ew
            if not math.isfinite(t_obj):
                raise TrainingError("network objective became non-finite")
            if t_obj < objective:
                theta, out, h, resid = trial, t_out, t_h, t_resid
                e_data, e_weight, objective = t_ed, t_ew, t_obj
                mu = max(mu * _MU_DEC, 1e-20)
                accepted = True
                break
            mu *= _MU_INC
        if not accepted:
            break       # damping budget exhausted without progress
        # evidence update on the regularized curvature at the new point
        jac = _nn_jacobian(theta, x, h)
        hess = 2.0 * beta * (jac.T @ jac) + 2.0 * alpha * np.eye(n_par)
        gamma = n_par - 2.0 * alpha * float(np.trace(np.linalg.inv(hess)))
        gamma = min(max(gamma, 0.0), float(n_par))
        alpha = min(gamma / max(2.0 * e_weight, 1e-300), _HYPER_CAP)
        beta = min(max(n - gamma, 1e-10) / max(2.0 * e_data, 1e-300), _HYPER_CAP)
        objective = beta * e_data + alpha * e_weight
        if objective < beta * best[1] + alpha * best[2]:
            best = (theta.copy(), e_data, e_weight)

    best_theta = best[0]
    w1, b1, w2, b2 = _nn_unpack(best_theta, m)

    def split_mse(idx):
        if idx.size == 0:
            return None
        pred, _ = _nn_forward(w1, b1, w2, b2, x_all[idx])
        return float(np.mean((pred - y_all[idx]) ** 2))

    info = {
        "iterations": iters,
        "gradient": grad_norm,
        "alpha": alpha,
        "beta": beta,
        "mse_train": split_mse(idx_train),
        "mse_val": split_mse(idx_val),
        "mse_test": split_mse(idx_test),
        "split": [int(idx_train.size), int(idx_val.size), int(idx_test.size)],
    }
    return NnSurrogate(w1, b1, w2, float(b2), lo, hi, design.scaler,
                       int(seed), info)


# ------------------------------------------------------------- serialization

_FORMAT = "flowstab-surrogate"
_VERSION = 1
_KINDS = {"sc": ScSurrogate, "gp": GpSurrogate, "nn": NnSurrogate}

#: the named dimensions of each array field; a name used twice must agree
_SHAPES = {
    ScSurrogate: {"coeffs": ("n_terms",)},
    GpSurrogate: {"inputs": ("n", "m"), "alpha": ("n",)},
    NnSurrogate: {"w1": ("hidden", "m"), "b1": ("hidden",), "w2": ("hidden",),
                  "in_lo": ("m",), "in_hi": ("m",)},
}


def save_surrogate(surrogate, path, provenance: dict | None = None) -> None:
    """Write a surrogate as a versioned JSON document.

    Every dataclass field goes into ``params``, arrays as nested lists,
    except the target scaler (top-level ``scaler``: ``[mu, sigma]``) and a
    chaos basis (``family``, ``dim``, ``degree``).
    """
    kinds = [kind for kind, cls in _KINDS.items() if type(surrogate) is cls]
    if not kinds:
        raise TypeError(f"cannot serialize {type(surrogate).__name__}")
    doc = {"format": _FORMAT, "version": _VERSION, "kind": kinds[0],
           "provenance": provenance or {}, "params": {}}
    for f in fields(surrogate):
        value = getattr(surrogate, f.name)
        if isinstance(value, Scaler):
            doc["scaler"] = [value.mu, value.sigma]
        elif isinstance(value, GpcBasis):
            doc["params"].update(family=value.family, dim=value.dim,
                                 degree=value.degree)
        else:
            doc["params"][f.name] = (value.tolist()
                                     if isinstance(value, np.ndarray) else value)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_surrogate(path):
    """The JSON document of a surrogate file, unchecked; a file that is
    not JSON raises :class:`ConfigError`."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")


def load_surrogate(path, m: int, doc=None):
    """Rebuild a surrogate saved by ``save_surrogate``, for a study whose
    germs have `m` components; `doc` is the file's document when the
    caller has read it already (see :func:`read_surrogate`).

    Anything else (a corrupt file, another format or version, an unknown
    kind, missing fields, arrays of the wrong shape, another germ
    dimension) raises :class:`ConfigError`.
    """
    if doc is None:
        doc = read_surrogate(path)
    if (not isinstance(doc, dict) or doc.get("format") != _FORMAT
            or doc.get("version") != _VERSION):
        raise ConfigError(f"unrecognized surrogate document in {path}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown surrogate kind {kind!r} in {path}")
    try:
        return _rebuild(_KINDS[kind], doc, m)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} surrogate in {path}: {exc!r}")


def _rebuild(cls, doc: dict, m: int):
    """The fields of `cls` as `save_surrogate` wrote them; lists load as
    arrays, and params that are not fields (the ``imag_coeffs`` of older
    collocation files) are ignored.  Raises ``ValueError`` when an array
    does not have the shape :data:`_SHAPES` gives it, with `m` germ
    components, or a chaos basis is not in `m` variables."""
    params = doc["params"]
    values = {}
    for f in fields(cls):
        if f.type == "Scaler":
            values[f.name] = Scaler(*doc["scaler"])
        elif f.type == "GpcBasis":
            values[f.name] = GpcBasis.total_degree(
                params["family"], params["dim"], params["degree"])
        else:
            value = params[f.name]
            values[f.name] = np.array(value) if isinstance(value, list) else value
    dims = {"hidden": _HIDDEN, "m": m}
    if "basis" in values:
        if values["basis"].dim != m:
            raise ValueError(f"basis has dim {values['basis'].dim}, not {m}")
        dims["n_terms"] = values["basis"].n_terms
    for name, want in _SHAPES[cls].items():
        shape = np.shape(values[name])
        if (len(shape) != len(want)
                or any(dims.setdefault(d, n) != n for d, n in zip(want, shape))):
            raise ValueError(f"{name} has shape {shape}, not "
                             f"{tuple(dims.get(d, d) for d in want)}")
    return cls(**values)
