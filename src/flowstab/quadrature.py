"""Probability-weighted Gauss rules and Smolyak sparse grids.

One-dimensional rules integrate against probability densities (weights sum
to one): Gauss-Hermite against the standard normal, Gauss-Legendre against
the uniform density on ``[-1, 1]``.  Sparse grids combine them with the
Smolyak difference formula under linear growth, meaning the rule of index
``i`` is plain Gauss with ``i`` points.

With ``d`` variables and level ``L`` the combination uses ``q = L + d - 1``
and sums over index vectors ``i`` (all entries >= 1) with
``max(d, q-d+1) <= |i| <= q``, each tensor rule entering with coefficient
``(-1)^(q-|i|) * C(d-1, q-|i|)``.  Nodes shared between tensor rules are
merged, summing their weights; merged weights may be negative.  The grid
integrates every polynomial of total degree up to ``2L - 1`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from .gpc import FAMILIES

#: rounding used to identify coincident nodes across tensor rules
_MERGE_DECIMALS = 12


def gauss_1d(family: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule with `order` points for the given probability density.

    Returns ``(nodes, weights)`` with ``weights.sum() == 1``.  The rule is
    exact for polynomials of degree ``2*order - 1``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if family == "hermite":
        nodes, weights = hermegauss(order)
        weights = weights / np.sqrt(2.0 * np.pi)
    else:
        nodes, weights = leggauss(order)
        weights = weights / 2.0
    return nodes, weights


@dataclass(frozen=True)
class SparseGrid:
    """Smolyak quadrature grid.

    Attributes
    ----------
    family : str
        1D rule family, ``"hermite"`` or ``"legendre"``.
    dim : int
        Number of variables.
    level : int
        Smolyak level; polynomial exactness is ``2*level - 1``.
    nodes : np.ndarray, shape (n_nodes, dim)
    weights : np.ndarray, shape (n_nodes,)
        May contain negative entries; sums to one.
    """

    family: str
    dim: int
    level: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _compositions(total: int, parts: int):
    """All tuples of `parts` integers >= 1 summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for lead in range(1, total - parts + 2):
        for rest in _compositions(total - lead, parts - 1):
            yield (lead,) + rest


def smolyak(family: str, dim: int, level: int) -> SparseGrid:
    """Build the Smolyak sparse grid for `dim` variables at `level`.

    Non-nested Gauss rules are combined, so coincident nodes are detected
    by rounding coordinates to 1e-12 and their weights merged.
    """
    if dim < 1 or level < 1:
        raise ValueError("need dim >= 1 and level >= 1")
    rules = {order: gauss_1d(family, order) for order in range(1, level + 1)}
    q = level + dim - 1
    merged: dict[tuple, tuple[np.ndarray, float]] = {}
    for total in range(max(dim, q - dim + 1), q + 1):
        coeff = (-1.0) ** (q - total) * comb(dim - 1, q - total)
        for index in _compositions(total, dim):
            axes = [rules[i] for i in index]
            for combo in product(*(range(i) for i in index)):
                point = np.array([axes[k][0][combo[k]] for k in range(dim)])
                wt = coeff * np.prod([axes[k][1][combo[k]] for k in range(dim)])
                key = tuple(np.round(point, _MERGE_DECIMALS))
                if key in merged:
                    merged[key] = (merged[key][0], merged[key][1] + wt)
                else:
                    merged[key] = (point, wt)
    items = sorted(merged.items(), key=lambda kv: kv[0])
    nodes = np.array([pt for _, (pt, _) in items]).reshape(len(items), dim)
    weights = np.array([w for _, (_, w) in items])
    return SparseGrid(family, dim, level, nodes, weights)
