"""Stochastic viscosity model checks.

The mesh is odd-by-odd so the middle Gauss point of the central cell
coincides with the bounding-box center; CoV calibration statements can
then be tested at the probe itself instead of a nearby point.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from flowstab.assembly import quad_data
from flowstab.errors import FieldError, PositivityError
from flowstab.gpc import GpcBasis
from flowstab.meshes import channel_mesh
from flowstab.randomfield import kl_decompose
from flowstab.viscosity import build_affine, build_lognormal, hermite_lognormal_coeffs

NU1 = 0.007


@pytest.fixture(scope="module")
def mesh():
    return channel_mesh(5, 5, length=2.5)


@pytest.fixture(scope="module")
def kl(mesh):
    return kl_decompose(mesh, m=2, lx=0.625, ly=0.5)


@pytest.fixture(scope="module")
def probe_index(mesh):
    qd = quad_data(mesh)
    ci = int(np.argmin(np.hypot(qd.centers[:, 0] - 1.25, qd.centers[:, 1])))
    assert qd.qx[ci, 4] == pytest.approx(1.25, abs=1e-12)
    assert qd.qy[ci, 4] == pytest.approx(0.0, abs=1e-12)
    return ci, 4


def test_affine_mean_and_deterministic_limit(kl):
    model = build_affine(NU1, 0.1, kl)
    assert model.basis.family == "legendre"
    assert model.n_terms == 3
    np.testing.assert_allclose(model.coeffs[0], NU1)
    field = model.evaluate(np.zeros(2))
    np.testing.assert_allclose(field, NU1, rtol=1e-14)
    frozen = build_affine(NU1, 0.0, kl)
    field = frozen.evaluate(np.array([0.83, -0.41]))
    np.testing.assert_allclose(field, NU1, rtol=1e-14)


def test_affine_single_mode_realization(kl):
    cov = 0.1
    model = build_affine(NU1, cov, kl)
    got = model.evaluate(np.array([1.0, 0.0]))
    # raw form: nu1 + sigma_nu * sqrt(3 lam_1) v_1 / probe scale, at xi_1 = 1
    s2 = np.sum(kl.eigenvalues * kl.probe_values**2)
    expect = NU1 + cov * NU1 * np.sqrt(3.0 * kl.eigenvalues[0] / s2) * kl.quad_values[0]
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_affine_pointwise_variance(kl, probe_index):
    ci, qi = probe_index
    model = build_affine(NU1, 0.1, kl)
    linear = model.coeffs[1:, ci, qi]
    # orthonormal basis: variance is the sum of squared non-mean coefficients
    analytic = np.sum(linear**2)
    assert analytic == pytest.approx((0.1 * NU1) ** 2, rel=1e-12)
    rng = np.random.default_rng(11)
    xi = rng.uniform(-1.0, 1.0, size=(1_000_000, 2))
    vals = NU1 + xi @ (np.sqrt(3.0) * linear)
    assert np.var(vals) == pytest.approx(analytic, rel=1e-2)
    # off-probe point: same identity, different value
    other = model.coeffs[1:, 0, 7]
    vals = NU1 + xi @ (np.sqrt(3.0) * other)
    assert np.var(vals) == pytest.approx(np.sum(other**2), rel=1e-2)


def test_cov_accounting_at_probe(kl, probe_index):
    ci, qi = probe_index
    cov = 0.1
    rng = np.random.default_rng(5)

    affine = build_affine(NU1, cov, kl)
    xi = rng.uniform(-1.0, 1.0, size=(100_000, 2))
    vals = affine.basis.evaluate(xi) @ affine.coeffs[:, ci, qi]
    assert np.std(vals) / np.mean(vals) == pytest.approx(cov, rel=0.02)

    lognormal = build_lognormal(NU1, cov, kl, 3)
    xi = rng.standard_normal(size=(100_000, 2))
    vals = lognormal.basis.evaluate(xi) @ lognormal.coeffs[:, ci, qi]
    assert np.std(vals) / np.mean(vals) == pytest.approx(cov, rel=0.02)
    # the orthonormal-coefficient identity gives the model's exact std
    exact = np.sqrt(np.sum(lognormal.coeffs[1:, ci, qi] ** 2))
    assert exact / NU1 == pytest.approx(cov, rel=1e-6)


@pytest.mark.parametrize("cov", [0.01, 0.1])
def test_lognormal_mean_exact(kl, cov):
    model = build_lognormal(NU1, cov, kl, 3)
    np.testing.assert_allclose(model.coeffs[0], NU1, rtol=1e-12)


def test_lognormal_term_count(kl):
    model = build_lognormal(NU1, 0.1, kl, 3)
    assert model.basis.degree == 6
    assert model.n_terms == math.comb(2 + 6, 6) == 28


def test_lognormal_matches_exact_field(kl):
    cov = 0.1
    model = build_lognormal(NU1, cov, kl, 3)
    scale = math.sqrt(math.log1p(cov**2) / np.sum(kl.eigenvalues * kl.probe_values**2))
    gs = scale * np.sqrt(kl.eigenvalues)[:, None, None] * kl.quad_values
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        xi = rng.standard_normal(2)
        exact = NU1 * np.exp(np.tensordot(xi, gs, axes=1) - 0.5 * np.sum(gs**2, axis=0))
        got = model.evaluate(xi)
        worst = max(worst, float(np.max(np.abs(got - exact) / exact)))
    assert worst <= 1e-3


def test_constant_exponent_is_deterministic():
    g0 = np.full((4, 9), math.log(0.004))
    gs = np.zeros((2, 4, 9))
    basis, coeffs = hermite_lognormal_coeffs(g0, gs, 4)
    assert basis.n_terms == 15
    np.testing.assert_allclose(coeffs[0], 0.004, rtol=1e-15)
    np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-18)


def test_affine_higher_order_projections_vanish(kl, probe_index):
    ci, qi = probe_index
    model = build_affine(NU1, 0.1, kl)
    big = GpcBasis.total_degree("legendre", 2, 3)
    pts, wts = leggauss(8)
    xi = np.array([[a, b] for a in pts for b in pts])
    w2 = np.array([wa * wb for wa in wts for wb in wts]) / 4.0
    vals = model.basis.evaluate(xi) @ model.coeffs[:, ci, qi]
    proj = (w2 * vals) @ big.evaluate(xi)
    # the antisymmetric mode vanishes at the probe, hence the absolute floor
    np.testing.assert_allclose(proj[:3], model.coeffs[:3, ci, qi],
                               rtol=1e-12, atol=1e-16)
    np.testing.assert_allclose(proj[3:], 0.0, atol=1e-14 * NU1)


def test_positivity_guard(kl):
    model = build_affine(NU1, 5.0, kl)
    flat = model.coeffs[1].ravel()
    worst = flat[np.argmax(np.abs(flat))]
    with pytest.raises(PositivityError):
        model.evaluate(np.array([-math.copysign(1.0, worst), 0.0]))
    # a NaN germ gives a NaN field, which is not positive either
    with pytest.raises(PositivityError):
        model.evaluate(np.array([np.nan, 0.0]))


def test_negative_cov_is_a_field_error(kl):
    with pytest.raises(FieldError):
        build_affine(NU1, -0.1, kl)
    with pytest.raises(FieldError):
        build_lognormal(NU1, -0.1, kl, 2)
