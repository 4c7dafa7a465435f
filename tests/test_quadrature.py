"""Quadrature checks against analytic moments of the germ distributions."""

from itertools import product

import numpy as np
import pytest

from flowstab.gpc import GpcBasis
from flowstab.quadrature import SparseGrid, gauss_1d, smolyak


def normal_moment(k):
    """E[xi^k] for standard normal xi: (k-1)!! for even k, 0 for odd."""
    if k % 2 == 1:
        return 0.0
    return float(np.prod(np.arange(k - 1, 0, -2))) if k else 1.0


def uniform_moment(k):
    """E[xi^k] for xi uniform on [-1, 1]."""
    return 0.0 if k % 2 == 1 else 1.0 / (k + 1)


_MOMENT = {"hermite": normal_moment, "legendre": uniform_moment}


@pytest.mark.parametrize("family", ["hermite", "legendre"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8])
def test_gauss_rule_moments(family, order):
    x, w = gauss_1d(family, order)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    for k in range(2 * order):
        # Odd moments cancel large summands, so tolerate roundoff on their scale.
        scale = max(1.0, w @ np.abs(x) ** k)
        assert w @ x**k == pytest.approx(_MOMENT[family](k), rel=1e-12, abs=1e-12 * scale), k


# Node counts for total-degree-3 studies at level 4, one to five variables.
_NODE_COUNTS = {1: 4, 2: 29, 3: 69, 4: 137, 5: 241}


@pytest.mark.parametrize("family", ["hermite", "legendre"])
@pytest.mark.parametrize("dim,count", sorted(_NODE_COUNTS.items()))
def test_sparse_grid_node_counts(family, dim, count):
    grid = smolyak(family, dim, 4)
    assert grid.n_nodes == count


@pytest.mark.parametrize("family", ["hermite", "legendre"])
@pytest.mark.parametrize("dim,level", [(1, 4), (2, 3), (2, 4), (3, 2), (3, 4), (5, 4)])
def test_sparse_grid_weights_sum_to_one(family, dim, level):
    grid = smolyak(family, dim, level)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_sparse_grid_symmetry_under_negation():
    grid = smolyak("hermite", 2, 4)
    table = {tuple(np.round(p, 12)): w for p, w in zip(grid.nodes, grid.weights)}
    for point, weight in table.items():
        mirrored = tuple(np.round(-np.asarray(point), 12))
        assert mirrored in table
        assert table[mirrored] == pytest.approx(weight, rel=1e-12, abs=1e-15)


def test_sparse_grid_has_negative_weights():
    # Known property of the combination formula; documents that downstream
    # code must not assume positivity.
    grid = smolyak("hermite", 2, 4)
    assert (grid.weights < 0).any()


def test_nodes_are_distinct_after_merging():
    for family, dim in [("hermite", 2), ("legendre", 3)]:
        grid = smolyak(family, dim, 4)
        diffs = grid.nodes[:, None, :] - grid.nodes[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        dist[np.diag_indices_from(dist)] = np.inf
        assert dist.min() > 1e-9


@pytest.mark.parametrize("family", ["hermite", "legendre"])
@pytest.mark.parametrize("dim,level", [(1, 3), (2, 2), (2, 4), (3, 3)])
def test_polynomial_exactness_to_degree_two_level_minus_one(family, dim, level):
    # Oracle: the integral of a monomial factorizes into 1D moments.
    grid = smolyak(family, dim, level)
    top = 2 * level - 1
    for alpha in product(range(top + 1), repeat=dim):
        if sum(alpha) > top:
            continue
        values = np.prod(grid.nodes ** np.array(alpha), axis=1)
        want = np.prod([_MOMENT[family](a) for a in alpha])
        assert grid.weights @ values == pytest.approx(want, abs=5e-13), alpha


@pytest.mark.parametrize("family,dim", [("hermite", 2), ("legendre", 2), ("hermite", 5)])
def test_discrete_orthonormality_of_degree_three_basis(family, dim):
    # Level 4 integrates degree-6 products exactly, so the level-4 grid sees
    # the degree-3 basis as exactly orthonormal.
    grid = smolyak(family, dim, 4)
    basis = GpcBasis.total_degree(family, dim, 3)
    vals = basis.evaluate(grid.nodes)
    gram = (vals * grid.weights[:, None]).T @ vals
    np.testing.assert_allclose(gram, np.eye(basis.n_terms), atol=1e-11)


def test_integrate_vector_valued():
    grid = smolyak("legendre", 2, 3)
    x = grid.nodes
    out = grid.weights @ np.column_stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]])
    np.testing.assert_allclose(out, [1.0 / 3.0, 0.0], atol=1e-13)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        gauss_1d("hermite", 0)
    with pytest.raises(ValueError):
        smolyak("cauchy", 2, 3)
    with pytest.raises(ValueError):
        smolyak("hermite", 0, 3)


def test_grid_is_dataclass_with_counts():
    grid = smolyak("hermite", 3, 4)
    assert isinstance(grid, SparseGrid)
    assert grid.nodes.shape == (grid.n_nodes, 3)
    assert grid.weights.shape == (grid.n_nodes,)
