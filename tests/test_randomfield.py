"""Covariance kernel and KL decomposition checks.

The separable kernel gives an exact cross-check: on a full rectangle the
Nystrom matrix is a Kronecker product of two 1D Nystrom matrices, so the
2D eigenvalues must be products of independently computed 1D ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstab.assembly import quad_data
from flowstab.errors import RankDeficiencyError
from flowstab.meshes import channel_mesh, obstacle_mesh
from flowstab.randomfield import covariance_matrix, kl_decompose


def nystrom_1d_eigvals(breaks, length):
    """All eigenvalues of the 1D midpoint-rule Nystrom problem, descending."""
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    w = np.diff(breaks)
    c = np.exp(-np.abs(mids[:, None] - mids[None, :]) / length)
    root = np.sqrt(w)
    k = root[:, None] * c * root[None, :]
    return np.linalg.eigvalsh(0.5 * (k + k.T))[::-1]


def kernel(p1, p2, lx, ly):
    """Covariance of two points, through the 1-row case of the matrix."""
    return covariance_matrix(np.atleast_2d(np.asarray(p1, dtype=float)),
                             np.atleast_2d(np.asarray(p2, dtype=float)),
                             lx, ly)[0, 0]


def test_kernel_point_values():
    p = (0.3, -0.2)
    assert kernel(p, p, 1.0, 2.0) == 1.0
    a, b = np.array([0.0, 0.0]), np.array([1.0, -2.0])
    expect = np.exp(-1.0 / 1.5 - 2.0 / 0.5)
    assert kernel(a, b, 1.5, 0.5) == pytest.approx(expect, rel=1e-14)
    # infinite correlation lengths flatten the kernel
    assert kernel(a, b, np.inf, np.inf) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(-10, 10), y1=st.floats(-10, 10),
    x2=st.floats(-10, 10), y2=st.floats(-10, 10),
    lx=st.floats(0.1, 10.0), ly=st.floats(0.1, 10.0),
)
def test_kernel_symmetry_bounds_separability(x1, y1, x2, y2, lx, ly):
    a, b = np.array([x1, y1]), np.array([x2, y2])
    cab = kernel(a, b, lx, ly)
    assert cab == kernel(b, a, lx, ly)
    assert 0.0 < cab <= 1.0
    split = kernel(a, b, lx, np.inf) * kernel(a, b, np.inf, ly)
    assert cab == pytest.approx(split, rel=1e-14)


def test_eigenvalues_match_1d_products():
    mesh = channel_mesh(6, 4, length=3.0)
    lx, ly = 0.75, 0.5
    kl = kl_decompose(mesh, m=8, lx=lx, ly=ly)
    vx = nystrom_1d_eigvals(mesh.xs, lx)
    vy = nystrom_1d_eigvals(mesh.ys, ly)
    products = np.sort(np.outer(vx, vy).ravel())[::-1]
    np.testing.assert_allclose(kl.eigenvalues, products[:8], rtol=1e-10)


def test_trace_bound_and_saturation():
    mesh = channel_mesh(6, 4, length=3.0)
    trace = mesh.area()
    ratios = []
    for m in (2, 6, 12, 22):
        kl = kl_decompose(mesh, m=m, lx=0.75, ly=0.5)
        total = kl.eigenvalues.sum()
        assert total <= trace * (1 + 1e-12)
        ratios.append(total / trace)
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] > 0.95


def test_modes_orthonormal_and_ordered():
    mesh = channel_mesh(5, 4, length=2.5)
    kl = kl_decompose(mesh, m=6, lx=0.6, ly=0.4)
    gram = (kl.modes * kl.weights) @ kl.modes.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
    assert np.all(np.diff(kl.eigenvalues) <= 0)
    assert kl.eigenvalues[-1] > 0


def test_extension_reproduces_node_values():
    mesh = channel_mesh(5, 4, length=2.5)
    kl = kl_decompose(mesh, m=5, lx=0.6, ly=0.4)
    at_nodes = kl.extend(kl.nodes)
    np.testing.assert_allclose(at_nodes, kl.modes, rtol=1e-9, atol=1e-12)


def test_quad_values_shape_and_probe():
    mesh = obstacle_mesh(refine=1)
    kl = kl_decompose(mesh, m=3, lx=2.0, ly=0.5)
    qd = quad_data(mesh)
    assert kl.quad_values.shape == (3,) + qd.qx.shape
    np.testing.assert_allclose(kl.probe, [4.0, 0.0])
    # the probe sits inside the flow domain, so mode values are finite there
    assert np.all(np.isfinite(kl.probe_values))


def test_probe_variance_is_the_retained_part_of_one():
    # sum_j lambda_j v_j(x)^2 is the part of the unit point variance that
    # the leading modes carry: it grows with m and never exceeds 1
    mesh = channel_mesh(5, 4, length=2.5)
    retained = []
    for m in (1, 3, 8, 20):
        kl = kl_decompose(mesh, m=m, lx=0.6, ly=0.4)
        assert kl.probe_variance == pytest.approx(
            np.sum(kl.eigenvalues * kl.probe_values**2), rel=1e-14)
        retained.append(kl.probe_variance)
    assert np.all(np.diff(retained) > 0)
    assert 0.0 < retained[0] and retained[-1] <= 1.0 + 1e-12


def test_rank_errors():
    mesh = channel_mesh(2, 2, length=1.0)
    with pytest.raises(RankDeficiencyError):
        kl_decompose(mesh, m=5, lx=0.5, ly=0.5)
    # near-constant kernel: numerically rank one
    with pytest.raises(RankDeficiencyError):
        kl_decompose(mesh, m=2, lx=1e15, ly=1e15)


def test_covariance_matrix_agrees_with_kernel():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(4, 2))
    b = rng.uniform(-1, 1, size=(5, 2))
    mat = covariance_matrix(a, b, 0.7, 0.9)
    assert mat.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert mat[i, j] == pytest.approx(
                kernel(a[i], b[j], 0.7, 0.9), rel=1e-14)
            dx, dy = np.abs(a[i] - b[j])
            assert mat[i, j] == pytest.approx(
                np.exp(-(dx / 0.7 + dy / 0.9)), rel=1e-14)
