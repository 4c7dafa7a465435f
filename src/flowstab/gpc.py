"""Orthonormal polynomial chaos bases in several variables.

Two families are supported, each orthonormal with respect to the
probability measure of the underlying random vector:

* ``hermite``  : probabilists' Hermite polynomials ``He_n`` divided by
  ``sqrt(n!)``, orthonormal under the standard Gaussian measure;
* ``legendre`` : Legendre polynomials scaled by ``sqrt(2n+1)``,
  orthonormal under the uniform measure on ``[-1, 1]`` (density 1/2).

Multivariate basis functions are tensor products indexed by multi-indices
of bounded total degree.  The index table is graded: degree blocks appear
in increasing order, and inside a block indices are listed so that degree
moves from the leading variable to the trailing one, e.g. for two
variables ``(0,0); (1,0), (0,1); (2,0), (1,1), (0,2); ...``.  The first
basis function is therefore the constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

#: basis family -> law of the germ it is orthonormal under
FAMILIES = {"hermite": "normal", "legendre": "uniform"}


def compositions(total: int, parts: int):
    """All tuples of `parts` integers >= 1 summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for lead in range(1, total - parts + 2):
        for rest in compositions(total - lead, parts - 1):
            yield (lead,) + rest


def multi_indices(dim: int, degree: int) -> np.ndarray:
    """Table of all multi-indices in `dim` variables of total degree <= `degree`.

    Returns an integer array of shape ``(comb(dim+degree, degree), dim)``
    in graded order as described in the module docstring: degree ``t`` is
    the compositions of ``t + dim``, reverse lexicographic, less one.
    """
    if dim < 1 or degree < 0:
        raise ValueError("need dim >= 1 and degree >= 0")
    rows = [index for total in range(dim, dim + degree + 1)
            for index in reversed(list(compositions(total, dim)))]
    table = np.array(rows, dtype=np.int64) - 1
    assert table.shape == (comb(dim + degree, degree), dim)
    return table


def hermite_normalized(x: np.ndarray, nmax: int) -> np.ndarray:
    """Evaluate normalized probabilists' Hermite polynomials 0..nmax.

    Returns shape ``x.shape + (nmax+1,)``.  The three-term recurrence is
    run in normalized form, ``h_{n+1} = (x h_n - sqrt(n) h_{n-1}) / sqrt(n+1)``,
    which keeps values well scaled for moderate degrees.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (nmax + 1,))
    out[..., 0] = 1.0
    if nmax >= 1:
        out[..., 1] = x
    for n in range(1, nmax):
        out[..., n + 1] = (x * out[..., n] - np.sqrt(n) * out[..., n - 1]) / np.sqrt(n + 1)
    return out


def hermite_normalized_derivative(x: np.ndarray, nmax: int) -> np.ndarray:
    """Derivatives of :func:`hermite_normalized`, from ``h_n' = sqrt(n) h_{n-1}``."""
    vals = hermite_normalized(x, nmax)
    out = np.zeros_like(vals)
    out[..., 1:] = np.sqrt(np.arange(1.0, nmax + 1)) * vals[..., :-1]
    return out


def _legendre(x: np.ndarray, nmax: int) -> np.ndarray:
    """Legendre polynomials P_0..P_nmax by the standard recurrence."""
    x = np.asarray(x, dtype=float)
    raw = np.empty(x.shape + (nmax + 1,))
    raw[..., 0] = 1.0
    if nmax >= 1:
        raw[..., 1] = x
    for n in range(1, nmax):
        raw[..., n + 1] = ((2 * n + 1) * x * raw[..., n] - n * raw[..., n - 1]) / (n + 1)
    return raw


def legendre_normalized(x: np.ndarray, nmax: int) -> np.ndarray:
    """Evaluate Legendre polynomials 0..nmax, orthonormal for density 1/2 on [-1,1].

    Standard recurrence for P_n, then each degree is scaled by sqrt(2n+1).
    """
    return _legendre(x, nmax) * np.sqrt(2.0 * np.arange(nmax + 1) + 1.0)


def legendre_normalized_derivative(x: np.ndarray, nmax: int) -> np.ndarray:
    """Derivatives of :func:`legendre_normalized`, from the differentiated
    recurrence ``P'_{n+1} = P'_{n-1} + (2n+1) P_n``."""
    raw = _legendre(x, nmax)
    out = np.zeros_like(raw)
    if nmax >= 1:
        out[..., 1] = 1.0
    for n in range(1, nmax):
        out[..., n + 1] = out[..., n - 1] + (2 * n + 1) * raw[..., n]
    return out * np.sqrt(2.0 * np.arange(nmax + 1) + 1.0)


#: family -> (values, derivatives) of the orthonormal polynomials 0..nmax
_EVAL_1D = {"hermite": (hermite_normalized, hermite_normalized_derivative),
            "legendre": (legendre_normalized, legendre_normalized_derivative)}


@dataclass(frozen=True)
class GpcBasis:
    """Orthonormal total-degree polynomial basis in ``dim`` variables.

    Attributes
    ----------
    family : str
        ``"hermite"`` (Gaussian germ) or ``"legendre"`` (uniform germ).
    dim : int
        Number of stochastic variables.
    degree : int
        Maximal total degree retained.
    indices : np.ndarray
        ``(n_terms, dim)`` multi-index table in graded order.
    """

    family: str
    dim: int
    degree: int
    indices: np.ndarray = field(repr=False)

    @classmethod
    def total_degree(cls, family: str, dim: int, degree: int) -> "GpcBasis":
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
        return cls(family, dim, degree, multi_indices(dim, degree))

    @property
    def n_terms(self) -> int:
        return self.indices.shape[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every basis function at the given points.

        Parameters
        ----------
        points : array, shape (n_pts, dim) or (dim,)

        Returns
        -------
        array, shape (n_pts, n_terms); row ``i`` holds all basis values at
        point ``i``.  Column 0 is identically 1.
        """
        factors = self._factors(points, 0)
        vals = np.ones(factors.shape[:1] + factors.shape[2:])
        for j in range(self.dim):
            vals *= factors[:, j]
        return vals

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Exact partial derivatives of every basis function.

        Returns an array of shape (n_pts, dim, n_terms): entry ``[i, j, k]``
        is ``d psi_k / d xi_j`` at point ``i``.
        """
        vals, ders = self._factors(points, 0), self._factors(points, 1)
        grad = np.empty(vals.shape[:1] + (self.dim,) + vals.shape[2:])
        for j in range(self.dim):
            grad[:, j] = np.prod(np.delete(vals, j, axis=1), axis=1) * ders[:, j]
        return grad

    def _factors(self, points: np.ndarray, order: int) -> np.ndarray:
        """One-variable factors of every basis function, (n_pts, dim,
        n_terms): values (`order` 0) or derivatives (`order` 1)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have {pts.shape[1]} columns, basis has dim {self.dim}")
        one_d = _EVAL_1D[self.family][order](pts, self.degree)  # (n_pts, dim, degree+1)
        return one_d[:, np.arange(self.dim), self.indices].swapaxes(1, 2)
