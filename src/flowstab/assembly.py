"""Sparse matrix assembly for the mixed biquadratic/linear discretization.

All element integrals use the 3x3 tensor Gauss rule, which is exact for
every bilinear form appearing here on rectangular cells with constant
coefficients.  Cells are axis-aligned rectangles, so Jacobians are
diagonal and reference derivative tables only need per-cell scale factors
``2/hx`` and ``2/hy``.

Element loops are expressed as einsum contractions over per-cell tensors
followed by one duplicate-summing COO scatter; the summation order is
fixed by the row-major cell ordering, so repeated assembly of the same
mesh is bitwise reproducible.

Conventions: velocity DOFs stack x-components then y-components; the
divergence matrix has one row per pressure DOF and carries the sign
``B[c, d] = -integral( psi_c * div(phi_d) )``, so the saddle system reads
``[[F, B^T], [B, 0]]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import sparse

from .errors import PositivityError
from .meshes import Mesh, MixedSpace

_GPTS, _GWTS = leggauss(3)


def _lagrange2(t: np.ndarray) -> np.ndarray:
    """Quadratic Lagrange values on nodes {-1, 0, 1}; shape (3,) + t.shape."""
    return np.stack([0.5 * t * (t - 1.0), 1.0 - t**2, 0.5 * t * (t + 1.0)])


def _lagrange2_d(t: np.ndarray) -> np.ndarray:
    return np.stack([t - 0.5, -2.0 * t, t + 0.5])


def _lagrange1(t: np.ndarray) -> np.ndarray:
    """Linear Lagrange values on nodes {-1, 1}."""
    return np.stack([0.5 * (1.0 - t), 0.5 * (1.0 + t)])


class QuadData:
    """Reference-element tables and per-cell quadrature geometry.

    Quadrature points are tensor ordered like the nodes: ``q = 3*qi + qj``
    with ``qi`` the x-direction index.  ``phi`` etc. are indexed
    ``[local_node, point]``.
    """

    def __init__(self, mesh: Mesh):
        ls = _lagrange2(_GPTS)    # (3, 3) [i, qi]
        ld = _lagrange2_d(_GPTS)
        lin = _lagrange1(_GPTS)
        # tensor products, local node a = 3i+j against point q = 3qi+qj
        self.phi = np.einsum("iq,jr->ijqr", ls, ls).reshape(9, 9)
        self.dphi_ds = np.einsum("iq,jr->ijqr", ld, ls).reshape(9, 9)
        self.dphi_dt = np.einsum("iq,jr->ijqr", ls, ld).reshape(9, 9)
        self.psi_q1 = np.einsum("iq,jr->ijqr", lin, lin).reshape(4, 9)
        wref = np.outer(_GWTS, _GWTS).reshape(9)

        hx, hy = mesh.cell_sizes()
        self.sx = 2.0 / hx                          # (n_cells,)
        self.sy = 2.0 / hy
        self.qw = np.outer(hx * hy / 4.0, wref)     # (n_cells, 9)
        x0 = mesh.xs[mesh.cells[:, 0]]
        y0 = mesh.ys[mesh.cells[:, 1]]
        sq = 0.5 * (_GPTS + 1.0)
        grid_x = np.repeat(sq, 3)                   # x offset of point q
        grid_y = np.tile(sq, 3)
        self.qx = x0[:, None] + np.outer(hx, grid_x)
        self.qy = y0[:, None] + np.outer(hy, grid_y)
        self.centers = np.column_stack([x0 + 0.5 * hx, y0 + 0.5 * hy])


def quad_data(mesh: Mesh) -> QuadData:
    """Quadrature tables for a mesh, built once and cached on it."""
    cached = getattr(mesh, "_quad_data", None)
    if cached is None:
        cached = QuadData(mesh)
        mesh._quad_data = cached
    return cached


@dataclass
class SpatialField:
    """Scalar coefficient sampled at every quadrature point, (n_cells, 9)."""

    values: np.ndarray

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "SpatialField":
        qd = quad_data(mesh)
        return cls(np.full_like(qd.qw, float(value)))

    def min(self) -> float:
        return float(self.values.min())


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             shape: tuple[int, int]) -> sparse.csr_matrix:
    """Sum (n_cells, nr, nc) element blocks into a global sparse matrix."""
    r = np.broadcast_to(rows[:, :, None], local.shape)
    c = np.broadcast_to(cols[:, None, :], local.shape)
    mat = sparse.coo_matrix((local.ravel(), (r.ravel(), c.ravel())), shape=shape)
    return mat.tocsr()


def _velocity_at_quadrature(mesh: Mesh, velocity: np.ndarray):
    """Both velocity components and the scale-ready tables at the points."""
    qd = quad_data(mesh)
    nv = mesh.n_vnodes
    ux = velocity[:nv][mesh.cell_vnodes]      # (n_cells, 9) nodal
    uy = velocity[nv:][mesh.cell_vnodes]
    return qd, ux @ qd.phi, uy @ qd.phi       # values at points


def assemble_diffusion(mesh: Mesh, viscosity: SpatialField) -> sparse.csr_matrix:
    """Viscosity-weighted vector Laplacian, ``integral( nu grad u : grad v )``."""
    qd = quad_data(mesh)
    nu = viscosity.values
    if nu.shape != qd.qw.shape:
        raise ValueError("viscosity field does not match the mesh quadrature")
    if not nu.min() > 0.0:
        raise PositivityError(f"viscosity must be positive, min is {nu.min():.3e}")
    wnu = qd.qw * nu
    sxx = np.einsum("e,eq,aq,bq->eab", qd.sx**2, wnu, qd.dphi_ds, qd.dphi_ds)
    syy = np.einsum("e,eq,aq,bq->eab", qd.sy**2, wnu, qd.dphi_dt, qd.dphi_dt)
    scalar = _scatter(sxx + syy, mesh.cell_vnodes, mesh.cell_vnodes,
                      (mesh.n_vnodes, mesh.n_vnodes))
    return sparse.block_diag([scalar, scalar], format="csr")


def assemble_velocity_mass(mesh: Mesh) -> sparse.csr_matrix:
    """Vector mass matrix of the velocity space."""
    qd = quad_data(mesh)
    local = np.einsum("eq,aq,bq->eab", qd.qw, qd.phi, qd.phi)
    scalar = _scatter(local, mesh.cell_vnodes, mesh.cell_vnodes,
                      (mesh.n_vnodes, mesh.n_vnodes))
    return sparse.block_diag([scalar, scalar], format="csr")


def assemble_convection(mesh: Mesh, wind: np.ndarray) -> sparse.csr_matrix:
    """Convection by a given discrete velocity, ``integral( (w . grad u) . v )``.

    `wind` is a full velocity vector; it is interpolated through the
    biquadratic basis at the quadrature points.
    """
    qd, wx, wy = _velocity_at_quadrature(mesh, wind)
    advect = (wx[:, None, :] * qd.sx[:, None, None] * qd.dphi_ds[None, :, :]
              + wy[:, None, :] * qd.sy[:, None, None] * qd.dphi_dt[None, :, :])
    local = np.einsum("eq,aq,ebq->eab", qd.qw, qd.phi, advect)
    scalar = _scatter(local, mesh.cell_vnodes, mesh.cell_vnodes,
                      (mesh.n_vnodes, mesh.n_vnodes))
    return sparse.block_diag([scalar, scalar], format="csr")


def assemble_newton_derivative(mesh: Mesh, wind: np.ndarray) -> sparse.csr_matrix:
    """Reaction-type coupling ``integral( (u . grad w) . v )`` at the state `wind`.

    Produces the full 2x2 block structure with the four velocity-gradient
    components as weights.
    """
    qd = quad_data(mesh)
    nv = mesh.n_vnodes
    ux = wind[:nv][mesh.cell_vnodes]
    uy = wind[nv:][mesh.cell_vnodes]
    dphix = qd.sx[:, None, None] * qd.dphi_ds[None, :, :]
    dphiy = qd.sy[:, None, None] * qd.dphi_dt[None, :, :]
    grads = {
        "xx": np.einsum("ea,eaq->eq", ux, dphix),
        "xy": np.einsum("ea,eaq->eq", ux, dphiy),
        "yx": np.einsum("ea,eaq->eq", uy, dphix),
        "yy": np.einsum("ea,eaq->eq", uy, dphiy),
    }
    blocks = {}
    for key, g in grads.items():
        local = np.einsum("eq,aq,bq->eab", qd.qw * g, qd.phi, qd.phi)
        blocks[key] = _scatter(local, mesh.cell_vnodes, mesh.cell_vnodes, (nv, nv))
    return sparse.bmat([[blocks["xx"], blocks["xy"]],
                        [blocks["yx"], blocks["yy"]]], format="csr")


def assemble_divergence(mesh: Mesh, space: MixedSpace) -> sparse.csr_matrix:
    """Pressure-velocity coupling ``B[c, d] = -integral( psi_c div(phi_d) )``."""
    qd = quad_data(mesh)
    if space.pressure == "q1":
        psi = np.broadcast_to(qd.psi_q1[None, :, :], (mesh.n_cells, 4, 9))
    else:
        ones = np.ones_like(qd.qx)
        psi = np.stack([ones,
                        qd.qx - qd.centers[:, 0:1],
                        qd.qy - qd.centers[:, 1:2]], axis=1)
    dphix = qd.sx[:, None, None] * qd.dphi_ds[None, :, :]
    dphiy = qd.sy[:, None, None] * qd.dphi_dt[None, :, :]
    bx = -np.einsum("eq,ecq,edq->ecd", qd.qw, psi, dphix)
    by = -np.einsum("eq,ecq,edq->ecd", qd.qw, psi, dphiy)
    shape = (space.n_p, mesh.n_vnodes)
    return sparse.hstack([
        _scatter(bx, space.cell_pdofs, mesh.cell_vnodes, shape),
        _scatter(by, space.cell_pdofs, mesh.cell_vnodes, shape),
    ], format="csr")


def assemble_forcing(mesh: Mesh, space: MixedSpace) -> np.ndarray:
    """Momentum right-hand side: no body force, and the rows of
    Dirichlet-constrained DOFs carry the boundary values so that reduced
    systems can lift them."""
    f = np.zeros(space.n_u)
    f[space.dirichlet] = space.dirichlet_values
    return f
