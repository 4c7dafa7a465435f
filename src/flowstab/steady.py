"""Steady Navier-Stokes solves with the hybrid Picard/Newton iteration.

The nonlinear saddle-point system is solved in correction form.  Each
iterate is evaluated once: the convection element matrices at its
velocity are assembled once, and ``diffusion + convection``, filled into
the space's saddle pattern, gives the residual and is the Picard matrix;
the Newton Jacobian adds the velocity-gradient coupling to the same
element matrices.  The residual is the right-hand side of the correction
that leads to the next iterate.  The initial iterate is the Stokes
solution, the first correction from the lift state (boundary values, zero
pressure) with diffusion alone; or, when the caller hands in a start state
(the steady state of a nearby viscosity field, or its first-order
prediction from :func:`tangent`), that state, from which only Newton steps
are taken; a start that fails falls back to the Stokes path.

Convergence is measured by the Euclidean norm of the reduced residual
(interior velocity and all pressure rows) relative to the Stokes residual
at the lift state, formed once per solve.  Linear systems use a sparse
direct factorization; there is no line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import (assemble_convection, assemble_diffusion,
                       assemble_divergence, assemble_newton_derivative,
                       assemble_velocity_mass, saddle_plan)
from .errors import ConvergenceError, RankDeficiencyError, SolverError
from .meshes import Mesh, MixedSpace


#: stop once the residual falls below this fraction of the Stokes reference;
#: tight enough that a Newton solve from a nearby state lands as close to
#: the solution as the Stokes -> Picard -> Newton path does
_REL_TOL = 1e-10

#: abort after this many consecutive residual increases in the Newton phase
_DIVERGENCE_PATIENCE = 5


@dataclass
class SolverSettings:
    """Iteration budgets of the hybrid solve."""

    picard_steps: int = 6
    newton_steps: int = 15


@dataclass
class FlowState:
    """Full-length velocity (boundary values included) and pressure."""

    velocity: np.ndarray
    pressure: np.ndarray


@dataclass
class Operators:
    """State-independent element matrices for one viscosity realization."""

    mesh: Mesh
    space: MixedSpace
    diffusion: np.ndarray
    divergence: np.ndarray
    mass: np.ndarray


@dataclass
class SteadyResult:
    state: FlowState
    residual: float
    reference: float
    trace: list
    #: :func:`picard_operator` at the converged velocity
    picard: np.ndarray = field(repr=False)


def build_operators(mesh: Mesh, space: MixedSpace,
                    viscosity: np.ndarray) -> Operators:
    """Assemble everything that does not depend on the flow state, for a
    viscosity sampled at the quadrature points, (n_cells, 9): diffusion
    and mass (n_cells, 9, 9) and divergence (n_cells, 2, n_local_p, 9)."""
    return Operators(mesh, space, assemble_diffusion(mesh, viscosity),
                     assemble_divergence(mesh, space),
                     assemble_velocity_mass(mesh))


def factor(matrix: sparse.csc_matrix):
    """The LU of a square saddle matrix; raises
    :class:`RankDeficiencyError` when it is singular."""
    try:
        return splu(matrix)
    except RuntimeError as exc:
        raise RankDeficiencyError(f"saddle-point factorization failed: {exc}") from exc


def picard_operator(ops: Operators, velocity: np.ndarray) -> np.ndarray:
    """Element matrices of ``diffusion + convection(velocity)``: the
    residual's momentum, the Picard operator and the Newton base."""
    return ops.diffusion + assemble_convection(ops.mesh, velocity)


def newton_operator(ops: Operators, velocity: np.ndarray,
                    picard: np.ndarray) -> np.ndarray:
    """Element matrices of the Newton Jacobian, (n_cells, 2, 2, 9, 9): the
    Picard operator at `velocity` on both components plus the
    velocity-gradient coupling."""
    jacobian = assemble_newton_derivative(ops.mesh, velocity)
    jacobian[:, [0, 1], [0, 1]] += picard[:, None]
    return jacobian


def residual(ops: Operators, state: FlowState,
             matrix: sparse.csc_matrix) -> np.ndarray:
    """Reduced nonlinear residual ``0 - S (u_i, p, u_d)`` at a state with
    correct boundary values, `matrix` being the filled saddle matrix ``S``
    of the momentum operator at the state's velocity."""
    space = ops.space
    x = np.concatenate([state.velocity[space.interior], state.pressure,
                        state.velocity[space.dirichlet]])
    # 0.0 - x, not -x: the problem holds no forcing, and exact zeros stay
    # +0.0 rather than turning into -0.0
    return 0.0 - matrix @ x


def nonlinear_step(ops: Operators, state: FlowState,
                   matrix: sparse.csc_matrix, res: np.ndarray) -> FlowState:
    """One correction from `state`: the square part of the filled saddle
    matrix `matrix` solved for `res`, the residual at `state`."""
    iu = ops.space.interior
    delta = factor(saddle_plan(ops.space).square(matrix)).solve(res)
    velocity = state.velocity.copy()
    velocity[iu] += delta[:iu.size]
    return FlowState(velocity, state.pressure + delta[iu.size:])


def tangent(ops: Operators, result: SteadyResult, lu,
            fields: np.ndarray) -> FlowState:
    """Derivatives of the steady state `result` of `ops` along viscosity
    directions `fields`, (m, n_cells, 9) at the quadrature points: one
    solve for all m right-hand sides with `lu`, the :func:`factor` of the
    square Newton Jacobian at the state.

    Diffusion is linear in the viscosity, so direction ``i`` moves the
    residual by ``-D_i (u_i, p, u_d)`` with ``D_i`` the diffusion of
    ``fields[i]``.  Returns a state whose rows are the m derivatives,
    velocity (m, n_u) with zero Dirichlet entries and pressure (m, n_p).
    """
    space, plan, state = ops.space, saddle_plan(ops.space), result.state
    zero = np.zeros_like(ops.divergence)
    rhs = np.column_stack([
        residual(ops, state, plan.fill(assemble_diffusion(ops.mesh, nu), zero))
        for nu in fields])
    delta = lu.solve(rhs).T
    iu = space.interior
    velocity = np.zeros((len(fields), space.n_u))
    velocity[:, iu] = delta[:, :iu.size]
    return FlowState(velocity, delta[:, iu.size:].copy())


def solve_steady(ops: Operators, settings: SolverSettings | None = None,
                 start: FlowState | None = None) -> SteadyResult:
    """Steady state for `ops`.

    With a `start` state (which must hold the boundary values of `ops`),
    the `newton_steps` budget of Newton steps is taken from it.  Without
    one, or when that attempt raises any :class:`SolverError`, the hybrid
    continuation runs: Stokes start, Picard steps, then Newton; its result
    does not depend on `start`.

    Raises :class:`ConvergenceError` (with the residual trace attached)
    when the budget is exhausted above tolerance or the Newton phase
    diverges; the caller decides whether that realization is skipped.
    """
    settings = settings or SolverSettings()
    space = ops.space
    lift = FlowState(np.zeros(space.n_u), np.zeros(space.n_p))
    lift.velocity[space.dirichlet] = space.dirichlet_values
    stokes = saddle_plan(space).fill(ops.diffusion, ops.divergence)
    rhs = residual(ops, lift, stokes)
    reference = float(np.linalg.norm(rhs))
    if start is not None:
        try:
            return _iterate(ops, reference, start, "warm",
                            ["newton"] * settings.newton_steps)
        except SolverError:
            pass
    return _iterate(ops, reference, nonlinear_step(ops, lift, stokes, rhs),
                    "stokes", ["picard"] * settings.picard_steps
                    + ["newton"] * settings.newton_steps)


def _iterate(ops: Operators, reference: float, state: FlowState, kind: str,
             steps: list) -> SteadyResult:
    """Corrections from `state` (produced by `kind`), one per entry of
    `steps`, until the residual meets the target."""
    target = _REL_TOL * reference
    plan = saddle_plan(ops.space)
    steps = iter(steps)
    trace, growth = [], 0
    while True:
        picard = picard_operator(ops, state.velocity)
        matrix = plan.fill(picard, ops.divergence)
        res = residual(ops, state, matrix)
        res_norm = float(np.linalg.norm(res))
        trace.append({"step": len(trace), "kind": kind, "residual": res_norm})
        if not np.isfinite(res_norm):
            what = "Stokes solve" if kind == "stokes" else f"{kind} step"
            raise ConvergenceError(f"{what} produced non-finite residual", trace)
        if kind == "newton":
            growth = growth + 1 if res_norm >= trace[-2]["residual"] else 0
            if growth >= _DIVERGENCE_PATIENCE:
                raise ConvergenceError(
                    f"Newton phase diverged for {growth} consecutive steps", trace)
        kind = next(steps, None)
        if res_norm <= target or kind is None:
            break
        if kind == "newton":
            matrix = plan.fill(newton_operator(ops, state.velocity, picard),
                               ops.divergence)
        state = nonlinear_step(ops, state, matrix, res)

    if res_norm > target:
        raise ConvergenceError(
            f"residual {res_norm:.3e} above target {target:.3e} "
            f"after {len(trace) - 1} steps", trace)
    return SteadyResult(state, res_norm, reference, trace, picard)
