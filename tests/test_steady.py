"""Steady solver checks: analytic channel flow, contraction behaviour,
failure modes."""

from pathlib import Path

import numpy as np
import pytest

from flowstab.assembly import SpatialField
from flowstab.errors import ConvergenceError
from flowstab.meshes import build_space, channel_mesh, obstacle_mesh
from flowstab.steady import (FlowState, SolverSettings, build_operators,
                             lifted_stokes_rhs, newton_operator, nonlinear_step,
                             picard_operator, residual, solve_steady,
                             solve_stokes)

NU = 0.1

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def poiseuille_setup(pressure="q1", nx=6, ny=4, length=3.0):
    mesh = channel_mesh(nx=nx, ny=ny, length=length)
    space = build_space(mesh, pressure)
    ops = build_operators(mesh, space, SpatialField.constant(mesh, NU))
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
    ops = build_operators(mesh, space, SpatialField.constant(mesh, 0.05))
    result = solve_steady(ops)
    np.testing.assert_allclose(result.state.velocity, 0.0, atol=1e-14)
    np.testing.assert_allclose(result.state.pressure, 0.0, atol=1e-13)


def test_residual_matches_manual_assembly():
    from flowstab.assembly import assemble_convection

    mesh, space, ops, _ = poiseuille_setup()
    rng = np.random.default_rng(3)
    state = FlowState(rng.standard_normal(space.n_u), rng.standard_normal(space.n_p))
    res = residual(ops, state, picard_operator(ops, state.velocity))
    conv = assemble_convection(mesh, state.velocity)
    full = ops.forcing_u - (ops.diffusion + conv) @ state.velocity \
        - ops.divergence.T @ state.pressure
    want = np.concatenate([full[space.interior],
                           -(ops.divergence @ state.velocity)])
    np.testing.assert_allclose(res, want, atol=1e-13)


def test_newton_step_from_solution_stays_put():
    _, _, ops, _ = poiseuille_setup()
    state = solve_steady(ops).state
    picard = picard_operator(ops, state.velocity)
    moved = nonlinear_step(ops, state,
                           newton_operator(ops, state.velocity, picard),
                           residual(ops, state, picard))
    assert np.abs(moved.velocity - state.velocity).max() < 1e-10
    assert np.abs(moved.pressure - state.pressure).max() < 1e-9


@pytest.fixture(scope="module")
def obstacle_result():
    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, "q1")
    ops = build_operators(mesh, space, SpatialField.constant(mesh, 5.36193e-3))
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
    ops = build_operators(mesh, space, SpatialField.constant(mesh, 5.36193e-3))
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
    result, _ = sim.solve(sim.model.evaluate(np.array([0.3, -0.5])))
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
    ops = build_operators(mesh, space, SpatialField.constant(mesh, 5.36193e-3))
    with pytest.raises(ConvergenceError) as info:
        solve_steady(ops, SolverSettings(picard_steps=1, newton_steps=0))
    assert len(info.value.trace) == 2
    assert info.value.trace[-1]["residual"] > 0


def test_stokes_initial_iterate_satisfies_boundary_data():
    mesh, space, ops, _ = poiseuille_setup(nx=4, ny=2, length=2.0)
    state = solve_stokes(ops, lifted_stokes_rhs(ops))
    np.testing.assert_array_equal(state.velocity[space.dirichlet],
                                  space.dirichlet_values)


def test_settings_defaults_and_step_budget():
    s = SolverSettings()
    assert (s.picard_steps, s.newton_steps) == (6, 15)
    wide = SolverSettings(picard_steps=20, newton_steps=20)
    assert wide.picard_steps == 20 and wide.newton_steps == 20
