"""Assembly checks against hand-built element matrices.

Two kinds of oracle are used: closed-form 1D mass/stiffness tensor
products for constant coefficients (true integrals), and an explicit
scalar loop over the same 3x3 Gauss points with independently written
physical shape functions for variable coefficients.  The kernels return
element matrices; a test-side scatter builds the full-size matrices the
oracles are stated on.
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import constant_field, divergence_matrix, velocity_matrix
from flowstab.assembly import (assemble_convection, assemble_diffusion,
                               assemble_divergence, assemble_newton_derivative,
                               assemble_velocity_mass, quad_data)
from flowstab.meshes import build_space, channel_mesh, obstacle_mesh

# closed-form 1D matrices for quadratic Lagrange on an interval of length h
def mass_1d(h):
    return h / 30.0 * np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]])


def stiffness_1d(h):
    return 1.0 / (3.0 * h) * np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0], [1.0, -8.0, 7.0]])


def single_cell():
    """One-element mesh spanning [0, 0.7] x [-1, 1]."""
    mesh = channel_mesh(nx=1, ny=1, length=0.7)
    return mesh, build_space(mesh, "q1")


class ScalarOracle:
    """Physical-coordinate shape functions on one rectangle, written from
    scratch: 1D quadratic Lagrange factors and their derivatives."""

    def __init__(self, x0, x1, y0, y1):
        self.bounds = (x0, x1, y0, y1)
        g, w = leggauss(3)
        self.px = x0 + (x1 - x0) * (g + 1) / 2
        self.py = y0 + (y1 - y0) * (g + 1) / 2
        self.wx = w * (x1 - x0) / 2
        self.wy = w * (y1 - y0) / 2

    @staticmethod
    def lag(t, n):
        return [0.5 * t * (t - 1), 1 - t * t, 0.5 * t * (t + 1)][n]

    @staticmethod
    def dlag(t, n):
        return [t - 0.5, -2 * t, t + 0.5][n]

    def chi(self, a, x, y):
        x0, x1, y0, y1 = self.bounds
        s = 2 * (x - x0) / (x1 - x0) - 1
        t = 2 * (y - y0) / (y1 - y0) - 1
        return self.lag(s, a // 3) * self.lag(t, a % 3)

    def dchi(self, a, x, y):
        x0, x1, y0, y1 = self.bounds
        s = 2 * (x - x0) / (x1 - x0) - 1
        t = 2 * (y - y0) / (y1 - y0) - 1
        dx = self.dlag(s, a // 3) * self.lag(t, a % 3) * 2 / (x1 - x0)
        dy = self.lag(s, a // 3) * self.dlag(t, a % 3) * 2 / (y1 - y0)
        return dx, dy

    def integrate(self, f):
        total = 0.0
        for xi, wi in zip(self.px, self.wx):
            for yj, wj in zip(self.py, self.wy):
                total += wi * wj * f(xi, yj)
        return total


@pytest.fixture(scope="module")
def oracle():
    return ScalarOracle(0.0, 0.7, -1.0, 1.0)


def scalar_block(mat, nv):
    return mat[:nv, :nv].toarray()


def test_mass_matches_tensor_closed_form():
    mesh = single_cell()[0]
    G = velocity_matrix(mesh, assemble_velocity_mass(mesh))
    want = np.kron(mass_1d(0.7), mass_1d(2.0))
    np.testing.assert_allclose(scalar_block(G, 9), want, atol=1e-14)
    # identical second diagonal block, zero coupling
    np.testing.assert_allclose(G[9:, 9:].toarray(), want, atol=1e-14)
    np.testing.assert_allclose(G[:9, 9:].toarray(), 0.0)


def test_diffusion_constant_viscosity_closed_form():
    mesh = single_cell()[0]
    A = velocity_matrix(mesh, assemble_diffusion(
        mesh, constant_field(mesh, 3.25)))
    want = 3.25 * (np.kron(stiffness_1d(0.7), mass_1d(2.0))
                   + np.kron(mass_1d(0.7), stiffness_1d(2.0)))
    np.testing.assert_allclose(scalar_block(A, 9), want, atol=1e-12)


def test_diffusion_variable_viscosity_against_loop(oracle):
    mesh = single_cell()[0]
    nu = lambda x, y: 1.0 + x + y**2
    qd = quad_data(mesh)
    A = velocity_matrix(mesh, assemble_diffusion(
        mesh, nu(qd.qx, qd.qy)))
    want = np.empty((9, 9))
    for a in range(9):
        for b in range(9):
            def f(x, y, a=a, b=b):
                dax, day = oracle.dchi(a, x, y)
                dbx, dby = oracle.dchi(b, x, y)
                return nu(x, y) * (dax * dbx + day * dby)
            want[a, b] = oracle.integrate(f)
    np.testing.assert_allclose(scalar_block(A, 9), want, atol=1e-13)


def test_diffusion_linear_in_viscosity():
    mesh = single_cell()[0]
    a1 = assemble_diffusion(mesh, constant_field(mesh, 1.0))
    a2 = assemble_diffusion(mesh, constant_field(mesh, 2.0))
    np.testing.assert_allclose(a2, 2.0 * a1, atol=1e-14)
    # a coefficient that changes sign across the cell, like a viscosity
    # derivative: diffusion stays additive and odd in it
    signed = quad_data(mesh).qx - 0.35
    assert signed.min() < 0.0 < signed.max()
    np.testing.assert_allclose(assemble_diffusion(mesh, 1.0 + signed),
                               a1 + assemble_diffusion(mesh, signed),
                               atol=1e-13)
    np.testing.assert_allclose(assemble_diffusion(mesh, -signed),
                               -assemble_diffusion(mesh, signed), atol=0.0)


def test_convection_against_loop(oracle):
    mesh, space = single_cell()
    rng = np.random.default_rng(5)
    wind = rng.standard_normal(space.n_u)
    N = velocity_matrix(mesh, assemble_convection(mesh, wind))

    def wind_at(x, y):
        wx = sum(wind[a] * oracle.chi(a, x, y) for a in range(9))
        wy = sum(wind[9 + a] * oracle.chi(a, x, y) for a in range(9))
        return wx, wy

    want = np.empty((9, 9))
    for a in range(9):
        for b in range(9):
            def f(x, y, a=a, b=b):
                wx, wy = wind_at(x, y)
                dbx, dby = oracle.dchi(b, x, y)
                return (wx * dbx + wy * dby) * oracle.chi(a, x, y)
            want[a, b] = oracle.integrate(f)
    np.testing.assert_allclose(scalar_block(N, 9), want, atol=1e-13)
    np.testing.assert_allclose(N[9:, 9:].toarray(), want, atol=1e-13)


def interpolate(mesh, fn):
    """Nodal interpolant of an analytic velocity field."""
    x, y = mesh.vnode_xy.T
    ux, uy = fn(x, y)
    return np.concatenate([np.broadcast_to(ux, x.shape), np.broadcast_to(uy, y.shape)])


def test_newton_derivative_of_linear_field_is_signed_mass():
    # wind (x, -y) has gradient diag(1, -1), so the coupling is +/- mass
    mesh = single_cell()[0]
    wind = interpolate(mesh, lambda x, y: (x, -y))
    W = velocity_matrix(mesh, assemble_newton_derivative(mesh, wind))
    M = np.kron(mass_1d(0.7), mass_1d(2.0))
    np.testing.assert_allclose(W[:9, :9].toarray(), M, atol=1e-13)
    np.testing.assert_allclose(W[9:, 9:].toarray(), -M, atol=1e-13)
    np.testing.assert_allclose(W[:9, 9:].toarray(), 0.0, atol=1e-14)
    np.testing.assert_allclose(W[9:, :9].toarray(), 0.0, atol=1e-14)


def test_newton_derivative_constant_wind_vanishes():
    mesh = obstacle_mesh(refine=1)
    wind = interpolate(mesh, lambda x, y: (np.full_like(x, 2.0), np.full_like(y, -1.0)))
    W = assemble_newton_derivative(mesh, wind)
    assert abs(W).max() < 1e-14


def test_newton_derivative_cross_blocks(oracle):
    # wind (y, 0): only the xy block survives and equals the mass matrix
    mesh = single_cell()[0]
    wind = interpolate(mesh, lambda x, y: (y, np.zeros_like(y)))
    W = velocity_matrix(mesh, assemble_newton_derivative(mesh, wind))
    M = np.kron(mass_1d(0.7), mass_1d(2.0))
    np.testing.assert_allclose(W[:9, 9:].toarray(), M, atol=1e-13)
    np.testing.assert_allclose(W[:9, :9].toarray(), 0.0, atol=1e-14)


@pytest.mark.parametrize("pressure", ["q1", "pm1"])
def test_divergence_against_loop(oracle, pressure):
    mesh = channel_mesh(nx=1, ny=1, length=0.7)
    space = build_space(mesh, pressure)
    B = divergence_matrix(mesh, space,
                          assemble_divergence(mesh, space)).toarray()
    if pressure == "q1":
        lin = lambda t, n: [0.5 * (1 - t), 0.5 * (1 + t)][n]
        psi = [lambda x, y, c=c: lin(2 * x / 0.7 - 1, c // 2) * lin(y, c % 2)
               for c in range(4)]
    else:
        psi = [lambda x, y: 1.0, lambda x, y: x - 0.35, lambda x, y: y - 0.0]
    for c, pc in enumerate(psi):
        for d in range(18):
            def f(x, y, c=c, d=d):
                comp, a = divmod(d, 9)
                dbx, dby = oracle.dchi(a, x, y)
                return -pc(x, y) * (dbx if comp == 0 else dby)
            assert B[c, d] == pytest.approx(oracle.integrate(f), abs=1e-13)


@pytest.mark.parametrize("pressure", ["q1", "pm1"])
def test_divergence_annihilates_divergence_free_interpolants(pressure):
    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, pressure)
    B = divergence_matrix(mesh, space, assemble_divergence(mesh, space))
    for fn in [lambda x, y: (1.0 - y**2, np.zeros_like(x)),
               lambda x, y: (x, -y)]:
        u = interpolate(mesh, fn)
        assert np.abs(B @ u).max() < 1e-13


def test_divergence_of_expanding_field_is_mean_pressure():
    # div (x, 0) = 1, so B u must equal minus the pressure-space averages
    mesh, space = single_cell()
    B = divergence_matrix(mesh, space, assemble_divergence(mesh, space))
    u = interpolate(mesh, lambda x, y: (x, np.zeros_like(y)))
    # integral of each bilinear pressure function over the cell: area/4
    np.testing.assert_allclose(B @ u, -0.35 * np.ones(4), atol=1e-13)


def test_total_mass_is_twice_area():
    mesh = obstacle_mesh(refine=1, stretch=1.25)
    space = build_space(mesh, "q1")
    G = velocity_matrix(mesh, assemble_velocity_mass(mesh))
    ones = np.ones(space.n_u)
    assert ones @ (G @ ones) == pytest.approx(2.0 * 15.75, rel=1e-13)


def test_assembly_independent_of_cell_order():
    mesh = obstacle_mesh(refine=1)
    qd = quad_data(mesh)
    A = velocity_matrix(mesh, assemble_diffusion(
        mesh, 1.0 + 0.1 * qd.qx * qd.qy))

    shuffled = obstacle_mesh(refine=1)
    rng = np.random.default_rng(11)
    perm = rng.permutation(shuffled.n_cells)
    shuffled.cells = shuffled.cells[perm]
    shuffled.cell_vnodes = shuffled.cell_vnodes[perm]
    shuffled.cell_pnodes = shuffled.cell_pnodes[perm]
    qd2 = quad_data(shuffled)
    A2 = velocity_matrix(shuffled, assemble_diffusion(
        shuffled, 1.0 + 0.1 * qd2.qx * qd2.qy))
    assert abs(A - A2).max() < 1e-13


def test_quadrature_geometry_tables():
    mesh = channel_mesh(nx=2, ny=2, length=2.0)
    qd = quad_data(mesh)
    assert qd.qw.shape == (4, 9)
    assert qd.qw.sum() == pytest.approx(mesh.area(), rel=1e-14)
    assert (qd.qw > 0).all()
    assert quad_data(mesh) is qd  # cached
