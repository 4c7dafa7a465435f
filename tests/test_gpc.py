"""Orthonormal basis checks against explicit closed-form polynomials."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from flowstab.gpc import (GpcBasis, hermite_normalized, hermite_normalized_derivative,
                          legendre_normalized, legendre_normalized_derivative,
                          multi_indices)

# Oracle: first few probabilists' Hermite polynomials, written out by hand,
# and their norms sqrt(n!).
_HERMITE_RAW = [
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: x**2 - 1,
    lambda x: x**3 - 3 * x,
    lambda x: x**4 - 6 * x**2 + 3,
    lambda x: x**5 - 10 * x**3 + 15 * x,
]
_HERMITE_NORM = [1.0, 1.0, np.sqrt(2.0), np.sqrt(6.0), np.sqrt(24.0), np.sqrt(120.0)]

# Oracle: Legendre polynomials and norms 1/sqrt(2n+1) under density 1/2.
_LEGENDRE_RAW = [
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: (3 * x**2 - 1) / 2,
    lambda x: (5 * x**3 - 3 * x) / 2,
    lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
    lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
]

# Oracles: their derivatives, written out by hand.
_HERMITE_RAW_D = [
    lambda x: np.zeros_like(x),
    lambda x: np.ones_like(x),
    lambda x: 2 * x,
    lambda x: 3 * x**2 - 3,
    lambda x: 4 * x**3 - 12 * x,
    lambda x: 5 * x**4 - 30 * x**2 + 15,
]
_LEGENDRE_RAW_D = [
    lambda x: np.zeros_like(x),
    lambda x: np.ones_like(x),
    lambda x: 3 * x,
    lambda x: (15 * x**2 - 3) / 2,
    lambda x: (140 * x**3 - 60 * x) / 8,
    lambda x: (315 * x**4 - 210 * x**2 + 15) / 8,
]


@given(st.floats(-8, 8), st.integers(0, 5))
def test_hermite_matches_explicit_formulas(x, n):
    got = hermite_normalized(np.array([x]), 5)[0, n]
    want = _HERMITE_RAW[n](np.array([x]))[0] / _HERMITE_NORM[n]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.floats(-1, 1), st.integers(0, 5))
def test_legendre_matches_explicit_formulas(x, n):
    got = legendre_normalized(np.array([x]), 5)[0, n]
    want = _LEGENDRE_RAW[n](np.array([x]))[0] * np.sqrt(2 * n + 1)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.floats(-8, 8), st.integers(0, 5))
def test_hermite_derivative_matches_explicit_formulas(x, n):
    got = hermite_normalized_derivative(np.array([x]), 5)[0, n]
    want = _HERMITE_RAW_D[n](np.array([x]))[0] / _HERMITE_NORM[n]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.floats(-1, 1), st.integers(0, 5))
def test_legendre_derivative_matches_explicit_formulas(x, n):
    got = legendre_normalized_derivative(np.array([x]), 5)[0, n]
    want = _LEGENDRE_RAW_D[n](np.array([x]))[0] * np.sqrt(2 * n + 1)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family,rule", [("hermite", hermegauss), ("legendre", leggauss)])
def test_one_dimensional_orthonormality(family, rule):
    # High-order Gauss rule integrates the degree-16 products exactly.
    x, w = rule(30)
    w = w / w.sum()
    fn = hermite_normalized if family == "hermite" else legendre_normalized
    vals = fn(x, 8)
    gram = (vals * w[:, None]).T @ vals
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_multi_index_table_small_case():
    want = [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    np.testing.assert_array_equal(multi_indices(2, 2), want)


@pytest.mark.parametrize("dim,expected", [(1, 4), (2, 10), (3, 20), (4, 35), (5, 56)])
def test_term_counts_total_degree_three(dim, expected):
    basis = GpcBasis.total_degree("hermite", dim, 3)
    assert basis.n_terms == expected


def test_first_basis_function_is_one():
    basis = GpcBasis.total_degree("legendre", 3, 4)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(40, 3))
    vals = basis.evaluate(pts)
    np.testing.assert_array_equal(vals[:, 0], np.ones(40))


@pytest.mark.parametrize("family", ["hermite", "legendre"])
def test_multivariate_values_are_products(family):
    basis = GpcBasis.total_degree(family, 3, 3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(25, 3))
    fn = hermite_normalized if family == "hermite" else legendre_normalized
    one_d = fn(pts, 3)
    vals = basis.evaluate(pts)
    for t, alpha in enumerate(basis.indices):
        want = one_d[:, 0, alpha[0]] * one_d[:, 1, alpha[1]] * one_d[:, 2, alpha[2]]
        np.testing.assert_allclose(vals[:, t], want, rtol=1e-13)


@pytest.mark.parametrize("family", ["hermite", "legendre"])
def test_gradient_matches_central_differences(family):
    # degree 6 in 3 variables, as the lognormal chaos of p = 3; a central
    # difference of step h is off by O(h^2) plus roundoff
    basis = GpcBasis.total_degree(family, 3, 6)
    pts = np.random.default_rng(2).uniform(-1, 1, size=(20, 3))
    grad = basis.gradient(pts)
    assert grad.shape == (20, 3, basis.n_terms)
    h = 1e-5
    for j, step in enumerate(h * np.eye(3)):
        want = (basis.evaluate(pts + step) - basis.evaluate(pts - step)) / (2 * h)
        np.testing.assert_allclose(grad[:, j], want, rtol=1e-6, atol=1e-6)
    # constants have no slope; the degree-1 terms have the slope of their factor
    np.testing.assert_array_equal(grad[:, :, 0], 0.0)
    slope = 1.0 if family == "hermite" else np.sqrt(3.0)
    np.testing.assert_allclose(grad[:, :, 1:4], slope * np.broadcast_to(np.eye(3), (20, 3, 3)),
                               rtol=1e-15)


@pytest.mark.parametrize("family,rule", [("hermite", hermegauss), ("legendre", leggauss)])
def test_multivariate_gram_is_identity(family, rule):
    # Full tensor Gauss oracle in two variables, order 12 each direction.
    x, w = rule(12)
    w = w / w.sum()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    wts = np.outer(w, w).ravel()
    basis = GpcBasis.total_degree(family, 2, 4)
    vals = basis.evaluate(pts)
    gram = (vals * wts[:, None]).T @ vals
    np.testing.assert_allclose(gram, np.eye(basis.n_terms), atol=1e-10)


def test_dimension_mismatch_rejected():
    basis = GpcBasis.total_degree("hermite", 2, 3)
    with pytest.raises(ValueError):
        basis.evaluate(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        GpcBasis.total_degree("laguerre", 2, 3)
