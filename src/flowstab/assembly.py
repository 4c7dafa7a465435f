"""Element matrices and the saddle-point pattern they are filled into.

All element integrals use the 3x3 tensor Gauss rule, which is exact for
every bilinear form appearing here on rectangular cells with constant
coefficients.  Cells are axis-aligned rectangles, so Jacobians are
diagonal and reference derivative tables only need per-cell scale factors
``2/hx`` and ``2/hy``.

Element kernels contract per-cell tensors and scatter nothing; a saddle
matrix is one ``np.bincount`` of element matrices into the fixed pattern
of a :class:`SaddlePlan`.  The summation order is fixed by the row-major
cell ordering, so repeated assembly is bitwise reproducible.

Conventions: velocity DOFs stack x-components then y-components; the
divergence has one row per pressure DOF and carries the sign
``B[c, d] = -integral( psi_c * div(phi_d) )``, so the saddle system reads
``[[F, B^T], [B, 0]]``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import sparse

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
    with ``qi`` the x-direction index.  ``phi`` is indexed
    ``[local_node, point]``, ``dphi`` ``[cell, direction, local_node, point]``.
    """

    def __init__(self, mesh: Mesh):
        ls = _lagrange2(_GPTS)    # (3, 3) [i, qi]
        ld = _lagrange2_d(_GPTS)
        lin = _lagrange1(_GPTS)
        # tensor products, local node a = 3i+j against point q = 3qi+qj
        self.phi = np.einsum("iq,jr->ijqr", ls, ls).reshape(9, 9)
        # phi_a * phi_b at each point, [point, 9a + b]
        self.phi_phi = np.einsum("aq,bq->qab", self.phi, self.phi).reshape(9, 81)
        dphi_ds = np.einsum("iq,jr->ijqr", ld, ls).reshape(9, 9)
        dphi_dt = np.einsum("iq,jr->ijqr", ls, ld).reshape(9, 9)
        self.psi_q1 = np.einsum("iq,jr->ijqr", lin, lin).reshape(4, 9)
        wref = np.outer(_GWTS, _GWTS).reshape(9)

        hx, hy = mesh.cell_sizes()
        self.dphi = np.stack([(2.0 / hx)[:, None, None] * dphi_ds,
                              (2.0 / hy)[:, None, None] * dphi_dt], axis=1)
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


def _cell_velocity(mesh: Mesh, velocity: np.ndarray) -> np.ndarray:
    """Nodal values of both velocity components per cell, (n_cells, 2, 9)."""
    return velocity.reshape(2, -1)[:, mesh.cell_vnodes].swapaxes(0, 1)


def assemble_diffusion(mesh: Mesh, coefficient: np.ndarray) -> np.ndarray:
    """Element matrices of ``integral( nu grad u : grad v )``, (n_cells, 9, 9),
    the same for both velocity components, with ``nu`` the `coefficient`
    at the quadrature points, (n_cells, 9), signed ones included."""
    qd = quad_data(mesh)
    if coefficient.shape != qd.qw.shape:
        raise ValueError("viscosity field does not match the mesh quadrature")
    return np.einsum("eq,ekaq,ekbq->eab", qd.qw * coefficient, qd.dphi, qd.dphi)


def assemble_velocity_mass(mesh: Mesh) -> np.ndarray:
    """Element mass matrices, (n_cells, 9, 9), the same for both components."""
    qd = quad_data(mesh)
    return (qd.qw @ qd.phi_phi).reshape(-1, 9, 9)


def assemble_convection(mesh: Mesh, wind: np.ndarray) -> np.ndarray:
    """Element matrices of ``integral( (w . grad u) . v )``, (n_cells, 9, 9),
    the same for both components; `wind` is a full velocity vector,
    interpolated through the biquadratic basis at the quadrature points."""
    qd = quad_data(mesh)
    w = _cell_velocity(mesh, wind) @ qd.phi
    advect = (w[:, :, None] * qd.dphi).sum(axis=1)      # [cell, b, point]
    return (qd.qw[:, None] * qd.phi) @ advect.swapaxes(1, 2)


def assemble_newton_derivative(mesh: Mesh, wind: np.ndarray) -> np.ndarray:
    """Element matrices of ``integral( (u . grad w) . v )`` at the state
    `wind`, (n_cells, 2, 2, 9, 9): block ``[c, d]`` is weighted by
    ``d w_c / d x_d``."""
    qd = quad_data(mesh)
    grad = np.einsum("eca,edaq->ecdq", _cell_velocity(mesh, wind), qd.dphi)
    return (grad * qd.qw[:, None, None] @ qd.phi_phi).reshape(-1, 2, 2, 9, 9)


def assemble_divergence(mesh: Mesh, space: MixedSpace) -> np.ndarray:
    """Element blocks of ``B[c, d] = -integral( psi_c div(phi_d) )``,
    (n_cells, 2, n_local_p, 9): velocity component, pressure function,
    velocity node."""
    qd = quad_data(mesh)
    if space.pressure == "q1":
        psi = np.broadcast_to(qd.psi_q1[None, :, :], (mesh.n_cells, 4, 9))
    else:
        ones = np.ones_like(qd.qx)
        psi = np.stack([ones,
                        qd.qx - qd.centers[:, 0:1],
                        qd.qy - qd.centers[:, 1:2]], axis=1)
    return -np.einsum("eq,ecq,ekdq->ekcd", qd.qw, psi, qd.dphi)


class SaddlePlan:
    """The fixed sparsity of one mixed space's saddle matrices
    ``[[F, B^T], [B, 0]]``: rows are the interior velocity DOFs, then the
    pressure DOFs; columns the same, then the Dirichlet velocity DOFs.  So
    a filled matrix times ``(u_i, p, u_d)`` applies the operator to a
    state, and its first `n` columns, a prefix of the CSC arrays, are the
    square system.  Each element-matrix entry has one data slot; entries in
    Dirichlet rows go to a last slot that is dropped.  Momentum without x-y
    blocks (Stokes, Picard, mass) fills one pattern, Newton a second.
    """

    def __init__(self, space: MixedSpace):
        n_i = space.interior.size
        self.n = n_i + space.n_p
        self.n_cols = self.n + space.dirichlet.size
        position = np.empty(space.n_u, dtype=np.int64)
        position[space.interior] = np.arange(n_i)
        position[space.dirichlet] = self.n + np.arange(space.dirichlet.size)
        vel = _cell_velocity(space.mesh, position)
        # divergence entries [e, k, c, a]: pressure c, velocity (k, a)
        p_side, v_side = np.broadcast_arrays(
            (n_i + space.cell_pdofs)[:, None, :, None], vel[:, :, None, :])
        self.picard = self._pattern(vel[:, :, :, None], vel[:, :, None, :],
                                    p_side, v_side)
        self.newton = self._pattern(vel[:, :, None, :, None],
                                    vel[:, None, :, None, :], p_side, v_side)

    def _pattern(self, rows, cols, p_side, v_side):
        """Slots, CSC indices and pointers of momentum entries
        ``(rows, cols)`` followed by the blocks ``B`` and ``B^T``."""
        rows, cols = np.broadcast_arrays(rows, cols)
        rows = np.concatenate([rows.ravel(), p_side.ravel(), v_side.ravel()])
        cols = np.concatenate([cols.ravel(), v_side.ravel(), p_side.ravel()])
        kept = rows < self.n
        keys, slot = np.unique(cols[kept] * self.n + rows[kept],
                               return_inverse=True)
        slots = np.full(rows.size, keys.size)
        slots[kept] = slot
        indptr = np.searchsorted(keys, self.n * np.arange(self.n_cols + 1))
        return slots, (keys % self.n).astype(np.int32), indptr.astype(np.int32)

    def fill(self, momentum: np.ndarray,
             divergence: np.ndarray) -> sparse.csc_matrix:
        """The saddle matrix of element matrices `momentum` and
        `divergence` (see :func:`assemble_divergence`).  `momentum` is
        (n_cells, 9, 9), the same for both velocity components, or
        (n_cells, 2, 2, 9, 9) per pair of components (Newton pattern)."""
        if momentum.ndim == 3:
            slots, indices, indptr = self.picard
            momentum = np.stack([momentum, momentum], axis=1)
        else:
            slots, indices, indptr = self.newton
        values = np.concatenate([momentum.ravel(), divergence.ravel(),
                                 divergence.ravel()])
        data = np.bincount(slots, values, minlength=indices.size + 1)[:-1]
        return sparse.csc_matrix((data, indices, indptr),
                                 shape=(self.n, self.n_cols))

    def square(self, matrix: sparse.csc_matrix) -> sparse.csc_matrix:
        """The first `n` columns of a filled matrix: the system on ``(u_i, p)``."""
        end = matrix.indptr[self.n]
        return sparse.csc_matrix((matrix.data[:end], matrix.indices[:end],
                                  matrix.indptr[:self.n + 1]),
                                 shape=(self.n, self.n))


def saddle_plan(space: MixedSpace) -> SaddlePlan:
    """The saddle pattern of a mixed space, built once and cached on it."""
    cached = getattr(space, "_saddle_plan", None)
    if cached is None:
        cached = SaddlePlan(space)
        space._saddle_plan = cached
    return cached
