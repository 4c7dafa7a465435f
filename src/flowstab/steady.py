"""Steady Navier-Stokes solves with the hybrid Picard/Newton iteration.

The nonlinear saddle-point system is solved in correction form.  Each
iterate is evaluated once: the convection matrix at its velocity is
assembled once, and ``diffusion + convection`` serves as the residual's
momentum matrix, as the Picard operator and as the base of the Newton
Jacobian (which adds the velocity-gradient coupling).  The residual
computed there is the right-hand side of the correction that leads to
the next iterate.  The initial iterate is the Stokes solution for the
same viscosity field, or, when the caller hands in a start state (the
steady state of a nearby viscosity field), that state, from which only
Newton steps are taken; a start that fails falls back to the Stokes path.

Dirichlet data enters through lifting: assembled matrices keep full size,
the reduced system runs on interior velocity DOFs plus all pressure DOFs,
and convergence is measured by the Euclidean norm of the reduced residual
relative to the lifted Stokes right-hand side, which is formed once per
solve.  Linear systems use a sparse direct factorization; there is no
line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import (SpatialField, assemble_convection, assemble_diffusion,
                       assemble_divergence, assemble_forcing,
                       assemble_newton_derivative, assemble_velocity_mass)
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
    """State-independent discrete operators for one viscosity realization."""

    mesh: Mesh
    space: MixedSpace
    diffusion: sparse.csr_matrix
    divergence: sparse.csr_matrix
    mass: sparse.csr_matrix
    forcing_u: np.ndarray


@dataclass
class SteadyResult:
    state: FlowState
    residual: float
    reference: float
    trace: list
    #: :func:`picard_operator` at the converged velocity
    picard: sparse.csr_matrix = field(repr=False)


def build_operators(mesh: Mesh, space: MixedSpace,
                    viscosity: SpatialField) -> Operators:
    """Assemble everything that does not depend on the flow state."""
    return Operators(
        mesh, space,
        assemble_diffusion(mesh, viscosity),
        assemble_divergence(mesh, space),
        assemble_velocity_mass(mesh),
        assemble_forcing(mesh, space),
    )


def _factor(matrix: sparse.spmatrix):
    try:
        return splu(matrix.tocsc())
    except RuntimeError as exc:
        raise RankDeficiencyError(f"saddle-point factorization failed: {exc}") from exc


def saddle_matrix(ops: Operators, momentum: sparse.spmatrix) -> sparse.csc_matrix:
    """``[[A_ii, B_i^T], [B_i, 0]]`` on the interior velocity DOFs and all
    pressure DOFs, `momentum` being ``A``; explicit zeros are kept."""
    iu = ops.space.interior
    mom_ii = momentum[iu][:, iu]
    div_i = ops.divergence[:, iu]
    return sparse.bmat([[mom_ii, div_i.T], [div_i, None]], format="csc")


def lifted_stokes_rhs(ops: Operators) -> np.ndarray:
    """Reduced Stokes right-hand side including the Dirichlet lift."""
    iu, dr = ops.space.interior, ops.space.dirichlet
    u_d = ops.space.dirichlet_values
    rhs_u = ops.forcing_u[iu] - ops.diffusion[iu][:, dr] @ u_d
    # 0.0 - x, not -x: the continuity rows hold no forcing, and exact zeros
    # stay +0.0 rather than turning into -0.0
    rhs_p = 0.0 - ops.divergence[:, dr] @ u_d
    return np.concatenate([rhs_u, rhs_p])


def solve_stokes(ops: Operators, rhs: np.ndarray) -> FlowState:
    """Stokes flow for the lifted right-hand side `rhs`; the nonlinear
    initial iterate."""
    iu = ops.space.interior
    sol = _factor(saddle_matrix(ops, ops.diffusion)).solve(rhs)
    velocity = np.zeros(ops.space.n_u)
    velocity[ops.space.dirichlet] = ops.space.dirichlet_values
    velocity[iu] = sol[:iu.size]
    return FlowState(velocity, sol[iu.size:])


def picard_operator(ops: Operators, velocity: np.ndarray) -> sparse.csr_matrix:
    """``diffusion + convection(velocity)``: the residual's momentum matrix,
    the Picard operator and the base of the Newton Jacobian."""
    return ops.diffusion + assemble_convection(ops.mesh, velocity)


def newton_operator(ops: Operators, velocity: np.ndarray,
                    picard: sparse.csr_matrix) -> sparse.csr_matrix:
    """Newton Jacobian: the Picard operator at `velocity` plus the
    velocity-gradient coupling."""
    return picard + assemble_newton_derivative(ops.mesh, velocity)


def residual(ops: Operators, state: FlowState,
             picard: sparse.csr_matrix) -> np.ndarray:
    """Reduced nonlinear residual at a state with correct boundary values;
    `picard` is :func:`picard_operator` at the state's velocity."""
    iu = ops.space.interior
    momentum = (ops.forcing_u - picard @ state.velocity
                - ops.divergence.T @ state.pressure)
    continuity = 0.0 - ops.divergence @ state.velocity   # +0.0, see above
    return np.concatenate([momentum[iu], continuity])


def nonlinear_step(ops: Operators, state: FlowState,
                   momentum: sparse.spmatrix, res: np.ndarray) -> FlowState:
    """One correction from `state`: the saddle system with momentum block
    `momentum` solved for `res`, the residual at `state`."""
    iu = ops.space.interior
    delta = _factor(saddle_matrix(ops, momentum)).solve(res)
    velocity = state.velocity.copy()
    velocity[iu] += delta[:iu.size]
    return FlowState(velocity, state.pressure + delta[iu.size:])


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
    rhs = lifted_stokes_rhs(ops)
    if start is not None:
        try:
            return _iterate(ops, rhs, start, "warm",
                            ["newton"] * settings.newton_steps)
        except SolverError:
            pass
    return _iterate(ops, rhs, solve_stokes(ops, rhs), "stokes",
                    ["picard"] * settings.picard_steps
                    + ["newton"] * settings.newton_steps)


def _iterate(ops: Operators, rhs: np.ndarray, state: FlowState, kind: str,
             steps: list) -> SteadyResult:
    """Corrections from `state` (produced by `kind`), one per entry of
    `steps`, until the residual meets the target."""
    reference = float(np.linalg.norm(rhs))
    target = _REL_TOL * reference
    plan = iter(steps)
    trace, growth = [], 0
    while True:
        picard = picard_operator(ops, state.velocity)
        res = residual(ops, state, picard)
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
        kind = next(plan, None)
        if res_norm <= target or kind is None:
            break
        momentum = (picard if kind == "picard"
                    else newton_operator(ops, state.velocity, picard))
        state = nonlinear_step(ops, state, momentum, res)

    if res_norm > target:
        raise ConvergenceError(
            f"residual {res_norm:.3e} above target {target:.3e} "
            f"after {len(trace) - 1} steps", trace)
    return SteadyResult(state, res_norm, reference, trace, picard)
