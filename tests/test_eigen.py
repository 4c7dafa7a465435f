"""Eigensolver checks: planted spectra, dense QZ agreement, regularization."""

import numpy as np
import pytest
from scipy import linalg, sparse

from conftest import channel_flow_pencil, planted_pencil
from flowstab.eigen import (EigenProblem, _select, build_problem,
                            dense_rightmost, rightmost, ritz_to_csv)
from flowstab.errors import EigenError


def test_tiny_diagonal_pencil_uses_dense_path():
    J = sparse.diags([-1.0, -2.0, 3.0]).tocsr()
    M = sparse.eye(3, format="csr")
    result = rightmost(EigenProblem(J, M))
    assert result.method == "dense"
    assert result.eigenvalue == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_pencil_rightmost_found(seed):
    J, M, truth = planted_pencil(90, seed)
    got = rightmost(EigenProblem(J, M), k=24, seed=seed)
    assert got.method == "arnoldi"
    assert abs(got.eigenvalue.real - truth.real) < 1e-9
    assert abs(abs(got.eigenvalue.imag) - truth.imag) < 1e-9


def test_arnoldi_agrees_with_dense_qz():
    J, M, _ = planted_pencil(120, 7)
    problem = EigenProblem(J, M)
    iterative = rightmost(problem, k=24, seed=3)
    dense = dense_rightmost(problem)
    assert abs(iterative.eigenvalue.real - dense.eigenvalue.real) < 1e-9
    assert abs(abs(iterative.eigenvalue.imag) - abs(dense.eigenvalue.imag)) < 1e-9


def small_saddle_blocks():
    F = np.array([[-2.0, 1.0], [0.5, -3.0]])
    B = np.array([[1.0, 0.4]])
    G = np.eye(2)
    J = np.block([[F, B.T], [B, np.zeros((1, 1))]])
    M = np.block([[-G, np.zeros((2, 1))], [np.zeros((1, 2)), np.zeros((1, 1))]])
    return J, B, G, M


@pytest.mark.parametrize("delta", [-1e-2, -1e-3])
def test_regularization_preserves_finite_spectrum(delta):
    # QZ oracle on the singular pencil vs the regularized substitute.  The
    # singular pencil has n_u - n_p finite eigenvalues; the substitution
    # turns every infinite mode into a defective pair at 1/delta (two per
    # pressure DOF, split only by roundoff).
    J, B, G, M = small_saddle_blocks()
    M_d = np.block([[-G, delta * B.T], [delta * B, np.zeros((1, 1))]])
    finite = np.sort_complex(
        [v for v in linalg.eig(J, M, right=False) if np.isfinite(v)])
    assert finite.size == 1  # n_u - n_p
    values = linalg.eig(J, M_d, right=False)
    spurious = np.isclose(values, 1.0 / delta, rtol=1e-6)
    assert spurious.sum() == 2  # 2 * n_p
    kept = np.sort_complex(values[~spurious])
    np.testing.assert_allclose(kept.real, finite.real, atol=1e-9)
    np.testing.assert_allclose(kept.imag, finite.imag, atol=1e-9)


def test_dense_path_excludes_shift_cluster():
    problem = channel_flow_pencil(3, 3, "q1", 0.05)
    result = dense_rightmost(problem)
    n_p = 16
    assert result.excluded.size == 2 * n_p
    np.testing.assert_allclose(result.excluded, 1.0 / problem.delta, rtol=1e-4)
    spur = 1.0 / problem.delta
    assert np.all(np.abs(result.candidates - spur) >= 0.01 * abs(spur))


@pytest.mark.parametrize("nx,ny,pressure,nu", [
    (3, 3, "q1", 0.05),
    (5, 4, "q1", 0.02),
    (4, 3, "pm1", 0.05),
])
def test_flow_pencils_arnoldi_equals_dense(nx, ny, pressure, nu):
    problem = channel_flow_pencil(nx, ny, pressure, nu)
    assert problem.dim <= 400
    iterative = rightmost(problem, k=24)
    dense = dense_rightmost(problem)
    assert abs(iterative.eigenvalue.real - dense.eigenvalue.real) < 1e-8
    assert abs(abs(iterative.eigenvalue.imag) - abs(dense.eigenvalue.imag)) < 1e-8


def test_delta_choice_does_not_move_rightmost():
    a = rightmost(channel_flow_pencil(4, 3, "q1", 0.03, delta=-1e-2))
    b = rightmost(channel_flow_pencil(4, 3, "q1", 0.03, delta=-1e-3))
    assert abs(a.eigenvalue - b.eigenvalue) < 1e-8


def test_candidates_closed_under_conjugation():
    J, M, _ = planted_pencil(90, 11)
    result = rightmost(EigenProblem(J, M), k=24)
    complex_vals = result.candidates[np.abs(result.candidates.imag) > 1e-10]
    for v in complex_vals:
        assert np.min(np.abs(result.candidates - np.conj(v))) < 1e-8


def test_select_returns_upper_member_of_a_pair():
    # a rotation block has eigenvalues a -+ bi; hand over a - bi first
    a, b = -0.3, 1.7
    problem = EigenProblem(sparse.csr_matrix([[a, b], [-b, a]]),
                           sparse.eye(2, format="csr"))
    values, vecs = np.linalg.eig(problem.lhs.toarray())
    order = np.argsort(values.imag)
    assert values[order[0]].imag < 0
    result = _select(problem, values[order], vecs[:, order], 2, "dense",
                     "nothing left")
    assert result.eigenvalue == pytest.approx(complex(a, b), abs=1e-14)
    # the eigenvector is conjugated along with the value
    assert result.residual < 1e-14


def test_residual_certificate():
    problem = channel_flow_pencil(5, 4, "q1", 0.02)
    result = rightmost(problem, k=24)
    assert result.residual < 1e-8
    # recompute independently from the returned pair
    v = result.eigenvector
    res = problem.lhs @ v - result.eigenvalue * (problem.rhs @ v)
    assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(v)


def test_deterministic_given_seed():
    problem = channel_flow_pencil(4, 3, "q1", 0.03)
    a = rightmost(problem, k=16, seed=5)
    b = rightmost(problem, k=16, seed=5)
    assert a.eigenvalue == b.eigenvalue
    np.testing.assert_array_equal(a.candidates, b.candidates)


def test_zero_delta_rejected():
    from conftest import constant_field
    from flowstab.meshes import build_space, channel_mesh
    from flowstab.steady import build_operators, solve_steady
    mesh = channel_mesh(nx=3, ny=3, length=1.5)
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, constant_field(mesh, 0.05))
    steady = solve_steady(ops)
    with pytest.raises(EigenError):
        build_problem(ops, steady, delta=0.0)


def test_singular_jacobian_raises():
    J = sparse.csr_matrix((40, 40))
    M = sparse.eye(40, format="csr")
    with pytest.raises(EigenError, match="factorization"):
        rightmost(EigenProblem(J, M), k=4)


def test_factors_the_assembled_jacobian(monkeypatch):
    # the LU is taken of lhs as assembled: its explicit structural zeros
    # stay in the pattern the fill-reducing ordering sees
    import flowstab.eigen as eigen
    from conftest import constant_field
    from flowstab.meshes import build_space, obstacle_mesh
    from flowstab.steady import build_operators, solve_steady

    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, constant_field(mesh, 5.36193e-3))
    problem = build_problem(ops, solve_steady(ops))
    assert np.count_nonzero(problem.lhs.data) < problem.lhs.nnz
    factored = []
    original = eigen.splu
    monkeypatch.setattr(eigen, "splu",
                        lambda matrix: factored.append(matrix) or original(matrix))
    rightmost(problem, k=24)
    assert len(factored) == 1
    assert factored[0].nnz == problem.lhs.nnz


def test_edge_guard_retry_reuses_the_factorization(monkeypatch):
    # with k=2 the planted pair sits at the edge of the first window, so a
    # second window of 2k runs, on the one LU of the Jacobian
    import flowstab.eigen as eigen

    J, M, truth = planted_pencil(60, 1, rightmost_re=-1.5)
    problem = EigenProblem(J, M)
    factored = []
    original = eigen.splu
    monkeypatch.setattr(eigen, "splu",
                        lambda matrix: factored.append(1) or original(matrix))
    result = rightmost(problem, k=2)
    assert len(factored) == 1
    assert result.k == 4
    # the same value as the 2k window on its own
    assert result.eigenvalue == rightmost(problem, k=4).eigenvalue
    assert abs(result.eigenvalue - truth) < 1e-9


def planted_problem(n, seed, rightmost_re=None):
    """A planted pencil, whose two dense matrices share one pattern as
    tracking needs, and its rightmost eigenvalue."""
    J, M, truth = planted_pencil(n, seed, rightmost_re)
    return EigenProblem(J, M), truth


def test_pencil_matrices_share_one_pattern():
    problem = channel_flow_pencil(5, 4, "q1", 0.02)
    np.testing.assert_array_equal(problem.lhs.indices, problem.rhs.indices)
    np.testing.assert_array_equal(problem.lhs.indptr, problem.rhs.indptr)


def test_tracking_falls_back_to_the_sweep_when_the_value_drops(monkeypatch):
    import flowstab.eigen as eigen

    # the same planted spectrum moved left by 1: the pair nearest the
    # nominal one drops by 1, far more than half its gap of 0.2-2.2 to the
    # next value, so something else could be rightmost
    nominal, _ = planted_problem(90, 4, rightmost_re=0.5)
    problem, truth = planted_problem(90, 4, rightmost_re=-0.5)
    near = rightmost(nominal, k=24, seed=0)
    asked = []
    original = eigen.eigs
    monkeypatch.setattr(eigen, "eigs", lambda op, **kwargs:
                        asked.append(kwargs["k"]) or original(op, **kwargs))
    got = rightmost(problem, k=24, seed=0, near=near)
    # one tracked Arnoldi run, then the sweep
    assert asked[:2] == [1, 24]
    want = rightmost(problem, k=24, seed=0)
    assert (got.method, got.k) == (want.method, want.k) == ("arnoldi", 24)
    assert got.eigenvalue == want.eigenvalue
    np.testing.assert_array_equal(got.candidates, want.candidates)
    assert abs(got.eigenvalue - truth) < 1e-9


def test_tracking_from_a_complex_pair_returns_its_upper_member():
    problem, truth = planted_problem(90, 5)
    perturbation = 1e-3 * np.random.default_rng(0).standard_normal((90, 90))
    nominal = EigenProblem(sparse.csr_matrix(problem.lhs.toarray()
                                             + perturbation), problem.rhs)
    near = rightmost(nominal, k=24, seed=0)
    assert near.eigenvalue.imag > 0
    got = rightmost(problem, k=24, seed=0, near=near)
    assert (got.method, got.k) == ("tracked", 1)
    assert got.eigenvalue.imag > 0
    assert abs(got.eigenvalue - rightmost(problem, k=24, seed=0).eigenvalue) <= 1e-9
    assert abs(got.eigenvalue - truth) <= 1e-9
    assert got.residual <= 1e-8


def test_real_values_read_a_positive_zero_imaginary_part():
    # 1/mu of ARPACK's complex output gives -0.0 for a real mu; every path
    # reports a real value with +0.0, as printed and written
    problem = channel_flow_pencil(5, 4, "q1", 0.02)
    sweep = rightmost(problem)
    for result in (sweep, dense_rightmost(problem),
                   rightmost(problem, near=sweep)):
        assert result.eigenvalue.imag == 0.0
        values = np.concatenate([[result.eigenvalue], result.candidates,
                                 result.excluded])
        real = values[values.imag == 0.0]
        assert (np.copysign(1.0, real.imag) == 1.0).all(), result.method
    assert [sweep.method, rightmost(problem, near=sweep).method] == [
        "arnoldi", "tracked"]


def test_dense_size_limit():
    J = sparse.eye(450, format="csr")
    with pytest.raises(EigenError):
        dense_rightmost(EigenProblem(J, J))


def test_ritz_csv_export(tmp_path):
    result = dense_rightmost(channel_flow_pencil(3, 3, "q1", 0.05))
    path = tmp_path / "ritz.csv"
    ritz_to_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,role"
    roles = {line.split(",")[2] for line in lines[1:]}
    assert "rightmost" in roles and "shift-cluster" in roles
    assert len(lines) == 1 + result.candidates.size + result.excluded.size
