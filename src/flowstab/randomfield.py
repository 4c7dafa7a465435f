"""Karhunen-Loeve machinery for the separable exponential covariance.

The covariance has unit variance, since the viscosity models rescale the
modes to their CoV at a probe point anyway.  The operator is discretized
with a Nystrom method on the element midpoints, using cell areas as
quadrature weights.  The symmetrized problem
``D^{1/2} C D^{1/2} u = lambda u`` (``D`` the weight diagonal) is solved
densely and mapped back through ``v = D^{-1/2} u``, so the discrete modes
are orthonormal in the area-weighted inner product.  Values anywhere else,
in particular at the 3x3 Gauss points consumed by matrix assembly, come
from the Nystrom extension

    v(x) = (1/lambda) sum_i w_i C(x, x_i) v(x_i),

which agrees with the node values at the nodes themselves.  The extension
forms the covariance between points and nodes in equal chunks of points,
each at most ``_BLOCK`` entries (8 MB), so evaluating the modes at every
quadrature point of a production mesh never holds the whole
(points x nodes) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg

from .assembly import quad_data
from .errors import RankDeficiencyError
from .meshes import Mesh

# eigenvalues below this fraction of the largest count as numerically zero
_RANK_RTOL = 1e-12
# covariance entries per chunk of points in ``KlExpansion.extend``
_BLOCK = 2**20


def covariance_matrix(a: np.ndarray, b: np.ndarray,
                      lx: float, ly: float) -> np.ndarray:
    """Unit-variance separable exponential covariance for every pair of
    rows of ``a`` (na, 2) and ``b`` (nb, 2); an infinite correlation
    length flattens that direction."""
    return np.exp(-(np.abs(a[:, None, 0] - b[None, :, 0]) / lx
                    + np.abs(a[:, None, 1] - b[None, :, 1]) / ly))


@dataclass(frozen=True)
class KlExpansion:
    """Leading eigenpairs of the discretized covariance operator."""

    mesh: Mesh
    lx: float
    ly: float
    nodes: np.ndarray        # (n, 2) element midpoints
    weights: np.ndarray      # (n,) cell areas
    eigenvalues: np.ndarray  # (m,) positive, nonincreasing
    modes: np.ndarray        # (m, n) node values, orthonormal under weights

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def extend(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every mode at ``points`` (n_pts, 2); returns (m, n_pts).

        The points go in equal chunks whose covariance with the nodes has
        at most ``_BLOCK`` entries.  Chunks of equal size keep every
        product on one BLAS kernel, so the values match the one-shot
        product bit for bit on the shipped meshes.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = max(1, math.ceil(pts.shape[0] * self.nodes.shape[0] / _BLOCK))
        wm = self.modes * self.weights
        vals = np.concatenate(
            [wm @ covariance_matrix(chunk, self.nodes, self.lx, self.ly).T
             for chunk in np.array_split(pts, n)], axis=1)
        return vals / self.eigenvalues[:, None]

    @cached_property
    def quad_values(self) -> np.ndarray:
        """Modes at the assembly quadrature points, shape (m, n_cells, 9)."""
        qd = quad_data(self.mesh)
        pts = np.column_stack([qd.qx.ravel(), qd.qy.ravel()])
        return self.extend(pts).reshape((self.n_modes,) + qd.qx.shape)

    @cached_property
    def probe(self) -> np.ndarray:
        """Bounding-box center of the domain, used to calibrate amplitudes."""
        xs, ys = self.mesh.xs, self.mesh.ys
        return np.array([0.5 * (xs[0] + xs[-1]), 0.5 * (ys[0] + ys[-1])])

    @cached_property
    def probe_values(self) -> np.ndarray:
        """Mode values at the probe point, shape (m,)."""
        return self.extend(self.probe[None, :])[:, 0]

    @property
    def probe_variance(self) -> float:
        """Variance of the truncated expansion at the probe point,
        ``sum_j lambda_j v_j(probe)^2``."""
        return float(np.sum(self.eigenvalues * self.probe_values**2))


def kl_decompose(mesh: Mesh, m: int, lx: float, ly: float) -> KlExpansion:
    """Top-``m`` KL eigenpairs of the kernel on the mesh domain.

    Raises ``RankDeficiencyError`` when fewer than ``m`` numerically
    positive eigenvalues exist (near-degenerate kernels, or ``m`` larger
    than the node count).
    """
    if m < 1:
        raise ValueError("need at least one mode")
    if lx <= 0 or ly <= 0:
        raise ValueError("correlation lengths must be positive")
    qd = quad_data(mesh)
    nodes = qd.centers
    weights = qd.qw.sum(axis=1)
    if m > nodes.shape[0]:
        raise RankDeficiencyError(
            f"{m} modes requested from {nodes.shape[0]} discretization nodes")
    c = covariance_matrix(nodes, nodes, lx, ly)
    root = np.sqrt(weights)
    k = root[:, None] * c * root[None, :]
    vals, vecs = linalg.eigh(0.5 * (k + k.T))
    vals = vals[::-1][:m].copy()
    vecs = vecs[:, ::-1][:, :m]
    if vals[0] <= 0.0 or vals[-1] <= _RANK_RTOL * vals[0]:
        raise RankDeficiencyError(
            f"covariance has fewer than {m} numerically positive modes")
    modes = np.ascontiguousarray((vecs / root[:, None]).T)
    # orient deterministically: the largest-magnitude node value is positive
    flip = modes[np.arange(m), np.abs(modes).argmax(axis=1)] < 0
    modes[flip] *= -1.0
    return KlExpansion(mesh, float(lx), float(ly), nodes, weights, vals, modes)
