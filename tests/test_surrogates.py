"""Surrogate training and evaluation checks.

GP oracles are written out by hand (2x2 closed forms, a reimplemented
profile-likelihood audit) rather than through the module's own helpers;
the network tests lean on realizable targets and symmetry arguments.
"""

import json
import math

import numpy as np
import pytest

from flowstab.errors import ConfigError, TrainingError
from flowstab.gpc import GpcBasis
from flowstab.quadrature import smolyak
from flowstab.surrogates import (GpSurrogate, NnSurrogate, Scaler, ScSurrogate,
                                 TrainingSet, gp_train, load_surrogate,
                                 nn_train, save_surrogate, sc_train)


@pytest.fixture(scope="module")
def grid29():
    return smolyak("hermite", 2, 4)


def training_set_from(fn, n=12, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    return TrainingSet.from_samples(x, fn(x))


# ------------------------------------------------------------- training sets

def test_scaler_round_trip():
    y = np.array([0.3, -1.2, 4.5, 0.0])
    s = Scaler.fit(y)
    np.testing.assert_allclose(s.descale(s.scale(y)), y, rtol=1e-14)
    sc = s.scale(y)
    assert np.mean(sc) == pytest.approx(0.0, abs=1e-14)
    assert np.std(sc, ddof=1) == pytest.approx(1.0, rel=1e-12)
    flat = Scaler.fit(np.full(5, 2.0))
    assert flat.sigma == 0.0
    np.testing.assert_allclose(flat.descale(flat.scale([2.0, 2.0])), 2.0)


def test_subsample_counts(grid29):
    big = smolyak("hermite", 5, 4)
    assert grid29.nodes.shape[0] == 29
    assert big.nodes.shape[0] == 241
    ts29 = TrainingSet.from_samples(grid29.nodes, np.arange(29.0))
    ts241 = TrainingSet.from_samples(big.nodes, np.arange(241.0))
    assert ts29.subsample(5).n == 6
    assert ts29.subsample(4).n == 8
    assert ts241.subsample(20).n == 13
    assert ts241.subsample(10).n == 25
    assert ts29.subsample(1) is ts29


def test_subsample_rescales_on_subset(grid29):
    ts = TrainingSet.from_samples(grid29.nodes, np.arange(29.0) ** 2)
    sub = ts.subsample(5)
    assert sub.scaler.mu == pytest.approx(np.mean(ts.targets[::5]))
    assert sub.scaler.sigma == pytest.approx(np.std(ts.targets[::5], ddof=1))


# -------------------------------------------------------------- collocation

def test_sc_recovers_basis_function(grid29):
    basis = GpcBasis.total_degree("hermite", 2, 3)
    targets = basis.evaluate(grid29.nodes)[:, 2]
    s = sc_train(grid29, targets, 3)
    expect = np.zeros(basis.n_terms)
    expect[2] = 1.0
    np.testing.assert_allclose(s.coeffs, expect, atol=1e-10)


def test_sc_constant_target(grid29):
    s = sc_train(grid29, np.full(29, 3.25), 3)
    assert s.coeffs[0] == pytest.approx(3.25, rel=1e-12)
    np.testing.assert_allclose(s.coeffs[1:], 0.0, atol=1e-12)
    assert s.mean == pytest.approx(3.25)
    assert s.variance == pytest.approx(0.0, abs=1e-20)


def test_sc_reproduces_cubic_polynomial(grid29):
    rng = np.random.default_rng(4)
    basis = GpcBasis.total_degree("hermite", 2, 3)
    c = rng.standard_normal(basis.n_terms)

    def poly(pts):
        return basis.evaluate(pts) @ c

    s = sc_train(grid29, poly(grid29.nodes), 3)
    pts = rng.standard_normal((100, 2))
    np.testing.assert_allclose(s.evaluate(pts), poly(pts), atol=1e-10)


def test_sc_moments_match_sampling(grid29):
    rng = np.random.default_rng(9)
    basis = GpcBasis.total_degree("hermite", 2, 3)
    c = rng.standard_normal(basis.n_terms)
    s = sc_train(grid29, basis.evaluate(grid29.nodes) @ c, 3)
    draws = s.evaluate(rng.standard_normal((100_000, 2)))
    se = np.std(draws) / math.sqrt(draws.size)
    assert abs(np.mean(draws) - s.mean) <= 3 * se
    assert np.var(draws) == pytest.approx(s.variance, rel=0.05)


def test_sc_node_count_mismatch(grid29):
    with pytest.raises(ValueError):
        sc_train(grid29, np.zeros(17), 3)


# ------------------------------------------------------------------ kriging

def test_gp_two_point_closed_form():
    x = np.array([[0.0], [1.3]])
    y = np.array([0.4, -1.1])
    ts = TrainingSet.from_samples(x, y)
    g = gp_train(ts, sigma_l=1.0)
    rho = math.exp(-0.5 * 1.3**2)
    # scaled targets are +-1/sqrt(2), so the residual quadratic form is
    # 2 * (1/2) / (1 - rho) and the estimated mean is exactly zero
    assert g.mu_hat == pytest.approx(0.0, abs=1e-9)
    assert g.sigma_f2 == pytest.approx(1.0 / (1.0 - rho), rel=1e-6)
    np.testing.assert_allclose(g.evaluate(x), y, atol=1e-7)


def test_gp_interpolates_with_zero_variance():
    ts = training_set_from(lambda x: np.sin(x[:, 0]) + 0.3 * x[:, 1] ** 2)
    g = gp_train(ts)
    np.testing.assert_allclose(g.evaluate(ts.inputs), ts.targets, atol=1e-7)
    np.testing.assert_allclose(g.variance(ts.inputs), 0.0, atol=1e-8)


def test_gp_far_field_reverts_to_mean():
    ts = training_set_from(lambda x: x[:, 0] ** 2, n=8)
    g = gp_train(ts)
    far = g.evaluate(np.full((1, 2), 1e4))[0]
    assert far == pytest.approx(g.scaler.descale(g.mu_hat), rel=1e-10)


@pytest.mark.parametrize("fn, n, interior", [
    (lambda x: np.cos(x[:, 0] * x[:, 1]), 15, True),
    # a plane is smoothest at the longest length: the bracket end; few
    # points keep the audit's explicit inverse accurate there
    (lambda x: x[:, 0] - 0.5 * x[:, 1], 6, False),
], ids=["interior", "bracket-end"])
def test_gp_likelihood_beats_audit_sweep(fn, n, interior):
    ts = training_set_from(fn, n=n, seed=3)
    g = gp_train(ts)
    assert (1e-2 < g.sigma_l < 99.0) == interior
    y = ts.scaled_targets
    x = ts.inputs
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    ones = np.ones(ts.n)

    def audit_ll(sl):
        c = np.exp(-0.5 * d2 / sl) + 1e-10 * np.eye(ts.n)
        ci = np.linalg.inv(c)
        hch = ones @ ci @ ones
        mu = (ones @ ci @ y) / hch
        quad = (y - mu) @ ci @ (y - mu)
        sign, logdet = np.linalg.slogdet(c)
        return (-0.5 * (ts.n - 1) * math.log(quad)
                - 0.5 * logdet - 0.5 * math.log(hch))

    sweep = max(audit_ll(sl) for sl in np.geomspace(1e-2, 1e2, 50))
    assert audit_ll(g.sigma_l) >= sweep - 1e-9


def test_gp_constant_targets():
    x = np.random.default_rng(2).standard_normal((6, 2))
    ts = TrainingSet.from_samples(x, np.full(6, 0.77))
    g = gp_train(ts)
    assert g.sigma_f2 == pytest.approx(0.0, abs=1e-12)
    probe = np.array([[5.0, -3.0], [0.0, 0.0]])
    np.testing.assert_allclose(g.evaluate(probe), 0.77, rtol=1e-12)
    np.testing.assert_allclose(g.variance(probe), 0.0, atol=1e-12)


def test_gp_affine_target_equivariance():
    fn = lambda x: np.sin(x[:, 0]) - 0.4 * x[:, 1]
    ts = training_set_from(fn, n=10, seed=6)
    shifted = TrainingSet.from_samples(ts.inputs, 2.5 * ts.targets - 1.0)
    a, b = gp_train(ts), gp_train(shifted)
    pts = np.random.default_rng(8).standard_normal((30, 2))
    np.testing.assert_allclose(b.evaluate(pts), 2.5 * a.evaluate(pts) - 1.0,
                               rtol=1e-10, atol=1e-10)


def test_gp_rejects_coincident_points():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(TrainingError):
        gp_train(TrainingSet.from_samples(x, [1.0, 2.0, 3.0]))


def test_gp_variance_needs_dof():
    ts = training_set_from(lambda x: x[:, 0], n=3)
    g = gp_train(ts, sigma_l=1.0)
    g.evaluate(np.zeros((1, 2)))   # mean prediction still works
    with pytest.raises(TrainingError):
        g.variance(np.zeros((1, 2)))


# ------------------------------------------------------------------ network

def make_net(w1, b1, w2, b2, dim, scaler=None):
    lo, hi = -np.ones(dim), np.ones(dim)
    return NnSurrogate(w1, b1, w2, b2, lo, hi,
                       scaler or Scaler(0.0, 1.0), seed=0)


def test_nn_parameter_count(grid29):
    ts = TrainingSet.from_samples(grid29.nodes, np.sin(grid29.nodes[:, 0]))
    net = nn_train(ts, seed=0)
    assert net.w1.shape == (20, ts.dim)
    assert net.b1.shape == net.w2.shape == (20,)
    assert net.w1.size + net.b1.size + net.w2.size + 1 == 81


def test_nn_zero_weights_give_bias():
    net = make_net(np.zeros((20, 3)), np.zeros(20), np.zeros(20), 1.5, 3,
                   Scaler(2.0, 4.0))
    out = net.evaluate(np.random.default_rng(0).uniform(-1, 1, (7, 3)))
    np.testing.assert_allclose(out, 4.0 * 1.5 + 2.0)


def test_nn_single_active_unit_hand_value():
    w1 = np.zeros((20, 1))
    b1 = np.zeros(20)
    w2 = np.zeros(20)
    w1[4, 0], b1[4], w2[4] = 1.7, -0.3, 2.0
    net = make_net(w1, b1, w2, 0.25, 1)
    x = np.array([[0.6]])   # inputs already span [-1, 1], map is identity
    expect = 2.0 * math.tanh(1.7 * 0.6 - 0.3) + 0.25
    assert net.evaluate(x)[0] == pytest.approx(expect, rel=1e-14)


def test_nn_output_bound():
    rng = np.random.default_rng(5)
    net = make_net(rng.standard_normal((20, 2)), rng.standard_normal(20),
                   rng.standard_normal(20), 0.8, 2)
    vals = net.evaluate(rng.uniform(-1, 1, (200, 2)))
    bound = np.abs(net.w2).sum() + abs(net.b2)
    assert np.all(np.abs(vals) <= bound + 1e-12)


def test_nn_recovers_realizable_targets(grid29):
    rng = np.random.default_rng(12)
    teacher = make_net(0.8 * rng.standard_normal((20, 2)),
                       0.5 * rng.standard_normal(20),
                       0.5 * rng.standard_normal(20), 0.1, 2)
    # teacher's input map is identity only on [-1,1]^2; feed mapped nodes
    targets = teacher.evaluate(np.tanh(grid29.nodes))
    ts = TrainingSet.from_samples(np.tanh(grid29.nodes), targets)
    net = nn_train(ts, seed=1)
    assert net.info["mse_train"] <= 1e-8


def test_nn_constant_targets(grid29):
    ts = TrainingSet.from_samples(grid29.nodes, np.full(29, -0.375))
    net = nn_train(ts, seed=0)
    out = net.evaluate(np.random.default_rng(3).standard_normal((40, 2)))
    np.testing.assert_allclose(out, -0.375, atol=1e-6)


def test_nn_affine_target_equivariance(grid29):
    fn = lambda x: np.sin(x[:, 0]) + 0.2 * x[:, 1] ** 2
    ts = TrainingSet.from_samples(grid29.nodes, fn(grid29.nodes))
    shifted = TrainingSet.from_samples(grid29.nodes, 3.0 * ts.targets + 0.5)
    a = nn_train(ts, seed=7)
    b = nn_train(shifted, seed=7)
    pts = np.random.default_rng(2).standard_normal((50, 2))
    np.testing.assert_allclose(b.evaluate(pts), 3.0 * a.evaluate(pts) + 0.5,
                               atol=1e-6)


def test_nn_deterministic_given_seed(grid29):
    ts = TrainingSet.from_samples(grid29.nodes, np.cos(grid29.nodes[:, 1]))
    pts = np.random.default_rng(0).standard_normal((10, 2))
    first = nn_train(ts, seed=42).evaluate(pts)
    second = nn_train(ts, seed=42).evaluate(pts)
    np.testing.assert_array_equal(first, second)


def test_nn_needs_samples():
    ts = TrainingSet.from_samples(np.eye(3), [1.0, 2.0, 3.0])
    with pytest.raises(TrainingError):
        nn_train(ts)


# ------------------------------------------------------------- persistence

def test_serialization_round_trips(grid29, tmp_path):
    rng = np.random.default_rng(20)
    pts = rng.standard_normal((25, 2))
    fn = lambda x: np.sin(x[:, 0]) + x[:, 1]
    ts = TrainingSet.from_samples(grid29.nodes, fn(grid29.nodes))

    sc = sc_train(grid29, fn(grid29.nodes), 3)
    gp = gp_train(ts)
    nn = nn_train(ts, seed=3)
    for tag, s in (("sc", sc), ("gp", gp), ("nn", nn)):
        path = tmp_path / f"{tag}.json"
        save_surrogate(s, path, provenance={"note": "round-trip"})
        loaded = load_surrogate(path, 2)
        assert type(loaded) is type(s)
        np.testing.assert_allclose(loaded.evaluate(pts), s.evaluate(pts),
                                   rtol=1e-12, atol=1e-12)
        # the file is the surrogate: saving what was loaded writes it again
        again = tmp_path / f"{tag}_again.json"
        save_surrogate(loaded, again, provenance={"note": "round-trip"})
        assert again.read_bytes() == path.read_bytes()
    reloaded = load_surrogate(tmp_path / "gp.json", 2)
    np.testing.assert_allclose(reloaded.variance(pts), gp.variance(pts),
                               rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("imag", [None, [0.5] * 10], ids=["null", "list"])
def test_sc_file_with_imaginary_channel_loads(grid29, tmp_path, imag):
    # collocation files once carried an unused "imag_coeffs" entry
    sc = sc_train(grid29, np.sin(grid29.nodes[:, 0]), 3)
    path = tmp_path / "sc.json"
    save_surrogate(sc, path)
    doc = json.loads(path.read_text())
    assert "imag_coeffs" not in doc["params"]
    doc["params"]["imag_coeffs"] = imag
    path.write_text(json.dumps(doc))
    np.testing.assert_array_equal(load_surrogate(path, 2).coeffs, sc.coeffs)


def test_load_rejects_foreign_and_corrupt_files(grid29, tmp_path):
    path = tmp_path / "sc.json"
    save_surrogate(sc_train(grid29, np.ones(29), 1), path)
    text = path.read_text()
    doc = json.loads(text)
    cases = {
        "truncated": text[:len(text) // 2],
        "foreign": json.dumps({"format": "other", "version": 1}),
        "version": json.dumps({**doc, "version": 99}),
        "kind": json.dumps({**doc, "kind": "rbf"}),
        "fields": json.dumps({**doc, "params": {}}),
    }
    for name, body in cases.items():
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_surrogate(path, 2)


@pytest.mark.parametrize("kind,name,cut", [
    ("sc", "coeffs", lambda v: v[:3]),
    ("gp", "inputs", lambda v: [row[0] for row in v]),
    ("gp", "alpha", lambda v: v[:-1]),
    ("nn", "w1", lambda v: v[:19]),
    ("nn", "b1", lambda v: v + [0.0]),
    ("nn", "in_hi", lambda v: v[:1]),
])
def test_load_rejects_arrays_of_the_wrong_shape(grid29, tmp_path, kind, name,
                                               cut):
    ts = TrainingSet.from_samples(grid29.nodes, np.sin(grid29.nodes[:, 0]))
    fitted = {"sc": lambda: sc_train(grid29, ts.targets, 3),
              "gp": lambda: gp_train(ts), "nn": lambda: nn_train(ts, seed=0)}
    path = tmp_path / f"{kind}.json"
    save_surrogate(fitted[kind](), path)
    doc = json.loads(path.read_text())
    doc["params"][name] = cut(doc["params"][name])
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"{name} has shape"):
        load_surrogate(path, 2)


def test_load_rejects_a_surrogate_of_another_germ_dimension(grid29, tmp_path):
    ts = TrainingSet.from_samples(grid29.nodes, np.sin(grid29.nodes[:, 0]))
    fitted = {"sc": sc_train(grid29, ts.targets, 3), "gp": gp_train(ts),
              "nn": nn_train(ts, seed=0)}
    for kind, surrogate in fitted.items():
        path = tmp_path / f"{kind}.json"
        save_surrogate(surrogate, path)
        load_surrogate(path, 2)
        with pytest.raises(ConfigError, match="not .*3"):
            load_surrogate(path, 3)
    # GP inputs cut to one column still agree with alpha, but not with m
    doc = json.loads((tmp_path / "gp.json").read_text())
    doc["params"]["inputs"] = [row[:1] for row in doc["params"]["inputs"]]
    (tmp_path / "gp.json").write_text(json.dumps(doc))
    load_surrogate(tmp_path / "gp.json", 1)
    with pytest.raises(ConfigError, match=r"inputs has shape \(29, 1\)"):
        load_surrogate(tmp_path / "gp.json", 2)
