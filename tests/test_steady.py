"""Steady solver checks: analytic channel flow, contraction behaviour,
failure modes."""

from pathlib import Path

import numpy as np
import pytest

from scipy import sparse
from scipy.sparse.linalg import spsolve

from conftest import constant_field, divergence_matrix, velocity_matrix
from flowstab.assembly import (assemble_convection, assemble_newton_derivative,
                               saddle_plan)
from flowstab.eigen import build_problem
from flowstab.errors import ConvergenceError
from flowstab.meshes import build_space, channel_mesh, obstacle_mesh
from flowstab.randomfield import kl_decompose
from flowstab.steady import (FlowState, SolverSettings, build_operators,
                             factor, newton_operator, nonlinear_step,
                             picard_operator, residual, solve_steady, tangent)
from flowstab.viscosity import build_affine, build_lognormal

NU = 0.1

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def poiseuille_setup(pressure="q1", nx=6, ny=4, length=3.0):
    mesh = channel_mesh(nx=nx, ny=ny, length=length)
    space = build_space(mesh, pressure)
    ops = build_operators(mesh, space, constant_field(mesh, NU))
    x, y = mesh.vnode_xy.T
    exact_u = np.concatenate([1.0 - y**2, np.zeros_like(y)])
    return mesh, space, ops, exact_u


@pytest.mark.parametrize("pressure", ["q1", "pm1"])
def test_poiseuille_flow_is_reproduced_exactly(pressure):
    # Parabolic channel flow lies in the discrete space and its convection
    # term vanishes, so the solver must return it to roundoff in one
    # Stokes solve with no nonlinear corrections.
    mesh, space, ops, exact_u = poiseuille_setup(pressure)
    result = solve_steady(ops)
    assert len(result.trace) == 1 and result.trace[0]["kind"] == "stokes"
    np.testing.assert_allclose(result.state.velocity, exact_u, atol=1e-12)
    if pressure == "q1":
        exact_p = 2.0 * NU * (3.0 - mesh.pnode_xy[:, 0])
        np.testing.assert_allclose(result.state.pressure, exact_p, atol=1e-11)
    else:
        # discontinuous representation: per cell (value at center, -2 nu, 0)
        p = result.state.pressure.reshape(-1, 3)
        np.testing.assert_allclose(p[:, 1], -2.0 * NU, atol=1e-11)
        np.testing.assert_allclose(p[:, 2], 0.0, atol=1e-11)


def test_zero_inflow_gives_zero_state():
    mesh = channel_mesh(nx=4, ny=4, length=2.0, profile=lambda x, y: (0.0, 0.0))
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, constant_field(mesh, 0.05))
    result = solve_steady(ops)
    np.testing.assert_allclose(result.state.velocity, 0.0, atol=1e-14)
    np.testing.assert_allclose(result.state.pressure, 0.0, atol=1e-13)


def test_residual_matches_manual_assembly():
    mesh, space, ops, _ = poiseuille_setup()
    rng = np.random.default_rng(3)
    state = FlowState(rng.standard_normal(space.n_u), rng.standard_normal(space.n_p))
    matrix = saddle_plan(space).fill(picard_operator(ops, state.velocity),
                                     ops.divergence)
    res = residual(ops, state, matrix)
    momentum = (velocity_matrix(mesh, ops.diffusion)
                + velocity_matrix(mesh, assemble_convection(mesh, state.velocity)))
    div = divergence_matrix(mesh, space, ops.divergence)
    full = -(momentum @ state.velocity) - div.T @ state.pressure
    want = np.concatenate([full[space.interior], -(div @ state.velocity)])
    np.testing.assert_allclose(res, want, atol=1e-13)


def test_newton_step_from_solution_stays_put():
    _, space, ops, _ = poiseuille_setup()
    state = solve_steady(ops).state
    plan = saddle_plan(space)
    picard = picard_operator(ops, state.velocity)
    jacobian = newton_operator(ops, state.velocity, picard)
    moved = nonlinear_step(ops, state, plan.fill(jacobian, ops.divergence),
                           residual(ops, state, plan.fill(picard, ops.divergence)))
    assert np.abs(moved.velocity - state.velocity).max() < 1e-10
    assert np.abs(moved.pressure - state.pressure).max() < 1e-9


@pytest.fixture(scope="module")
def obstacle_result():
    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, constant_field(mesh, 5.36193e-3))
    return mesh, space, solve_steady(ops)


def test_obstacle_hybrid_convergence(obstacle_result):
    mesh, space, result = obstacle_result
    assert result.residual <= 1e-8 * result.reference
    kinds = [t["kind"] for t in result.trace]
    assert kinds[0] == "stokes"
    assert "picard" in kinds and "newton" in kinds
    # Picard phase comes before the Newton phase
    assert kinds.index("newton") > kinds.index("picard")


def test_one_convection_assembly_per_iterate(monkeypatch):
    # each iterate's convection matrix serves its residual and the
    # correction that follows it, and the converged one also the
    # eigenvalue pencil, so it is assembled exactly once
    import flowstab.steady as steady
    from flowstab.config import build_simulator, load_config

    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, constant_field(mesh, 5.36193e-3))
    calls = []
    original = steady.assemble_convection
    monkeypatch.setattr(steady, "assemble_convection",
                        lambda *args: calls.append(1) or original(*args))
    result = solve_steady(ops)
    assert len(result.trace) > 2
    assert len(calls) == len(result.trace)

    sim = build_simulator(load_config(CONFIG_DIR / "obstacle_desk.yaml"), 0.1,
                          use_cache=False)
    # the one-time nominal solve is its own steady solve; count the sample's
    assert sim.nominal is not None
    calls.clear()
    result, _ = sim.solve([0.3, -0.5])
    assert len(calls) == len(result.trace)


def test_obstacle_newton_contraction_is_superlinear(obstacle_result):
    _, _, result = obstacle_result
    newton = [t["residual"] for t in result.trace if t["kind"] == "newton"]
    assert len(newton) >= 2
    drops = [newton[i + 1] / newton[i] for i in range(len(newton) - 1)]
    # each Newton step cuts the residual much harder than the one before
    assert drops[-1] < 1e-3
    assert all(d < 0.05 for d in drops)


def test_obstacle_base_flow_is_mirror_symmetric(obstacle_result):
    # geometry and data are symmetric about the channel axis, and the
    # steady solve preserves that symmetry to solver tolerance
    mesh, space, result = obstacle_result
    nv = mesh.n_vnodes
    lookup = {(round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(mesh.vnode_xy)}
    mirror = np.array([lookup[(round(x, 9), round(-y, 9))] for x, y in mesh.vnode_xy])
    ux, uy = result.state.velocity[:nv], result.state.velocity[nv:]
    scale = np.abs(ux).max()
    np.testing.assert_allclose(ux[mirror], ux, atol=1e-6 * scale)
    np.testing.assert_allclose(uy[mirror], -uy, atol=1e-6 * scale)


def test_budget_exhaustion_raises_with_trace():
    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, constant_field(mesh, 5.36193e-3))
    with pytest.raises(ConvergenceError) as info:
        solve_steady(ops, SolverSettings(picard_steps=1, newton_steps=0))
    assert len(info.value.trace) == 2
    assert info.value.trace[-1]["residual"] > 0


def reference_saddle(space, momentum, div, scale=1.0):
    """``[[A_ii, s B_i^T], [s B_i, 0]]`` by scipy slicing and ``bmat``."""
    iu = space.interior
    div_i = scale * div[:, iu]
    return sparse.bmat([[momentum[iu][:, iu], div_i.T], [div_i, None]],
                       format="csc")


def test_stokes_initial_iterate_satisfies_boundary_data():
    # the Stokes start is the first correction from the lift state; it
    # keeps the boundary values and solves the lifted Stokes system
    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, constant_field(mesh, 0.05))
    lift = FlowState(np.zeros(space.n_u), np.zeros(space.n_p))
    lift.velocity[space.dirichlet] = space.dirichlet_values
    stokes = saddle_plan(space).fill(ops.diffusion, ops.divergence)
    state = nonlinear_step(ops, lift, stokes, residual(ops, lift, stokes))
    np.testing.assert_array_equal(state.velocity[space.dirichlet],
                                  space.dirichlet_values)

    diffusion = velocity_matrix(mesh, ops.diffusion)
    div = divergence_matrix(mesh, space, ops.divergence)
    dr, u_d = space.dirichlet, space.dirichlet_values
    rhs = np.concatenate([-(diffusion[space.interior][:, dr] @ u_d),
                          -(div[:, dr] @ u_d)])
    want = spsolve(reference_saddle(space, diffusion, div), rhs)
    n_i = space.interior.size
    np.testing.assert_allclose(state.velocity[space.interior], want[:n_i],
                               atol=1e-11)
    np.testing.assert_allclose(state.pressure, want[n_i:], atol=1e-10)


def entries(matrix):
    coo = matrix.tocoo()
    return dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))


@pytest.mark.parametrize("pressure", ["q1", "pm1"])
def test_plan_square_part_is_the_sliced_saddle_matrix(pressure):
    # the square prefix of every filled pattern equals the saddle matrix
    # built from full-size matrices by slicing and bmat: same values, the
    # same structure for Stokes and Picard, and for Newton and M_delta (the
    # Newton pattern too, so a shift needs no new pattern) a superset whose
    # extra entries are zero (exact cancellations and x-y blocks that a
    # sparse sum drops)
    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, pressure)
    ops = build_operators(mesh, space, constant_field(mesh, 5.36193e-3))
    result = solve_steady(ops)
    u = result.state.velocity
    plan = saddle_plan(space)
    div = divergence_matrix(mesh, space, ops.divergence)
    diffusion = velocity_matrix(mesh, ops.diffusion)
    picard = diffusion + velocity_matrix(mesh, assemble_convection(mesh, u))
    newton = picard + velocity_matrix(mesh, assemble_newton_derivative(mesh, u))
    problem = build_problem(ops, result, delta=-1e-2)

    def square(momentum):
        return plan.square(plan.fill(momentum, ops.divergence))

    cases = [
        (square(ops.diffusion), diffusion, 1.0, True),
        (square(picard_operator(ops, u)), picard, 1.0, True),
        (problem.rhs, -velocity_matrix(mesh, ops.mass), -1e-2, False),
        (square(newton_operator(ops, u, result.picard)), newton, 1.0, False),
        (problem.lhs, newton, 1.0, False),
    ]
    for got, momentum, scale, same in cases:
        want = reference_saddle(space, momentum, div, scale)
        assert got.shape == want.shape == (plan.n, plan.n)
        assert abs(got - want).max() <= 1e-14 * abs(want).max()
        mine, theirs = entries(got), entries(want)
        if same:
            assert mine.keys() == theirs.keys()
        else:
            assert mine.keys() >= theirs.keys()
            assert all(mine[k] == 0.0 for k in mine.keys() - theirs.keys())


def test_settings_defaults_and_step_budget():
    s = SolverSettings()
    assert (s.picard_steps, s.newton_steps) == (6, 15)
    wide = SolverSettings(picard_steps=20, newton_steps=20)
    assert wide.picard_steps == 20 and wide.newton_steps == 20


@pytest.mark.parametrize("kind", ["affine", "lognormal"])
def test_tangent_matches_central_differences_of_steady_states(kind):
    mesh = channel_mesh(8, 4, length=2.0)
    space = build_space(mesh, "q1")
    kl = kl_decompose(mesh, 2, 1.0, 0.5, 0.5)
    if kind == "affine":
        model = build_affine(0.01, 0.1, kl, 2)
    else:
        model = build_lognormal(0.01, 0.1, kl, 2, 3)

    def ops_at(xi):
        return build_operators(mesh, space, model.evaluate(xi))

    origin = np.zeros(2)
    ops = ops_at(origin)
    result = solve_steady(ops)
    slope = tangent(ops, result, factor(build_problem(ops, result).lhs),
                    model.gradient(origin))
    assert slope.velocity.shape == (2, space.n_u)
    assert slope.pressure.shape == (2, space.n_p)
    # boundary values do not depend on the viscosity
    assert not slope.velocity[:, space.dirichlet].any()
    h = 1e-2
    for i, step in enumerate(h * np.eye(2)):
        plus = solve_steady(ops_at(step)).state
        minus = solve_steady(ops_at(-step)).state
        for got, hi, lo in ((slope.velocity[i], plus.velocity, minus.velocity),
                            (slope.pressure[i], plus.pressure, minus.pressure)):
            want = (hi - lo) / (2 * h)
            # measured within 6e-7 of the largest entry
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
