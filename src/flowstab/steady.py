"""Steady Navier-Stokes solves with the hybrid Picard/Newton iteration.

The nonlinear saddle-point system is solved in correction form: every
step factors the linearized operator (convection only for Picard steps,
convection plus the velocity-gradient coupling for Newton steps) and adds
the resulting update to the current state.  The initial iterate is the
Stokes solution for the same viscosity field.

Dirichlet data enters through lifting: assembled matrices keep full size,
the reduced system runs on interior velocity DOFs plus all pressure DOFs,
and convergence is measured by the Euclidean norm of the reduced residual
relative to the lifted Stokes right-hand side.  Linear systems use a
sparse direct factorization; there is no line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import (SpatialField, assemble_convection, assemble_diffusion,
                       assemble_divergence, assemble_forcing,
                       assemble_newton_derivative, assemble_velocity_mass)
from .errors import ConvergenceError, RankDeficiencyError
from .meshes import Mesh, MixedSpace


@dataclass
class SolverSettings:
    """Iteration budgets and stopping control for the hybrid solve."""

    picard_steps: int = 6
    newton_steps: int = 15
    rel_tol: float = 1e-8
    #: abort after this many consecutive residual increases in the Newton phase
    divergence_patience: int = 5


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
    forcing_p: np.ndarray


@dataclass
class SteadyResult:
    state: FlowState
    residual: float
    reference: float
    trace: list = field(default_factory=list)


def build_operators(mesh: Mesh, space: MixedSpace, viscosity: SpatialField,
                    body_force=None) -> Operators:
    """Assemble everything that does not depend on the flow state."""
    f, g = assemble_forcing(mesh, space, body_force)
    return Operators(
        mesh, space,
        assemble_diffusion(mesh, space, viscosity),
        assemble_divergence(mesh, space),
        assemble_velocity_mass(mesh, space),
        f, g,
    )


def _factor(matrix: sparse.spmatrix):
    try:
        return splu(matrix.tocsc())
    except RuntimeError as exc:
        raise RankDeficiencyError(f"saddle-point factorization failed: {exc}") from exc


def _saddle(ops: Operators, momentum: sparse.spmatrix) -> sparse.csc_matrix:
    iu = ops.space.interior
    mom_ii = momentum[iu][:, iu]
    div_i = ops.divergence[:, iu]
    return sparse.bmat([[mom_ii, div_i.T], [div_i, None]], format="csc")


def lifted_stokes_rhs(ops: Operators) -> np.ndarray:
    """Reduced Stokes right-hand side including the Dirichlet lift."""
    iu, dr = ops.space.interior, ops.space.dirichlet
    u_d = ops.space.dirichlet_values
    rhs_u = ops.forcing_u[iu] - ops.diffusion[iu][:, dr] @ u_d
    rhs_p = ops.forcing_p - ops.divergence[:, dr] @ u_d
    return np.concatenate([rhs_u, rhs_p])


def solve_stokes(ops: Operators) -> FlowState:
    """Stokes flow for the same data; the nonlinear initial iterate."""
    iu = ops.space.interior
    rhs = lifted_stokes_rhs(ops)
    sol = _factor(_saddle(ops, ops.diffusion)).solve(rhs)
    velocity = np.zeros(ops.space.n_u)
    velocity[ops.space.dirichlet] = ops.space.dirichlet_values
    velocity[iu] = sol[:iu.size]
    return FlowState(velocity, sol[iu.size:])


def momentum_operator(ops: Operators, state: FlowState, kind: str) -> sparse.csr_matrix:
    """Linearized momentum block at `state`: Picard keeps convection only,
    Newton adds the velocity-gradient coupling."""
    mom = ops.diffusion + assemble_convection(ops.mesh, ops.space, state.velocity)
    if kind == "newton":
        mom = mom + assemble_newton_derivative(ops.mesh, ops.space, state.velocity)
    elif kind != "picard":
        raise ValueError(f"unknown step kind {kind!r}")
    return mom


def residual(ops: Operators, state: FlowState) -> np.ndarray:
    """Reduced nonlinear residual at a state with correct boundary values."""
    iu = ops.space.interior
    conv = assemble_convection(ops.mesh, ops.space, state.velocity)
    momentum = (ops.forcing_u - (ops.diffusion + conv) @ state.velocity
                - ops.divergence.T @ state.pressure)
    continuity = ops.forcing_p - ops.divergence @ state.velocity
    return np.concatenate([momentum[iu], continuity])


def nonlinear_step(ops: Operators, state: FlowState, kind: str) -> FlowState:
    """One Picard or Newton correction from `state`."""
    iu = ops.space.interior
    res = residual(ops, state)
    delta = _factor(_saddle(ops, momentum_operator(ops, state, kind))).solve(res)
    velocity = state.velocity.copy()
    velocity[iu] += delta[:iu.size]
    return FlowState(velocity, state.pressure + delta[iu.size:])


def solve_steady(ops: Operators, settings: SolverSettings | None = None) -> SteadyResult:
    """Hybrid continuation: Stokes start, Picard steps, then Newton.

    Raises :class:`ConvergenceError` (with the residual trace attached)
    when the budget is exhausted above tolerance or the Newton phase
    diverges; the caller decides whether that realization is skipped.
    """
    settings = settings or SolverSettings()
    reference = float(np.linalg.norm(lifted_stokes_rhs(ops)))
    target = settings.rel_tol * reference
    state = solve_stokes(ops)
    trace = []

    def record(kind, res_norm):
        trace.append({"step": len(trace), "kind": kind, "residual": float(res_norm)})

    res_norm = float(np.linalg.norm(residual(ops, state)))
    record("stokes", res_norm)
    if not np.isfinite(res_norm):
        raise ConvergenceError("Stokes solve produced non-finite residual", trace)

    plan = ["picard"] * settings.picard_steps + ["newton"] * settings.newton_steps
    growth = 0
    for kind in plan:
        if res_norm <= target:
            break
        state = nonlinear_step(ops, state, kind)
        new_norm = float(np.linalg.norm(residual(ops, state)))
        record(kind, new_norm)
        if not np.isfinite(new_norm):
            raise ConvergenceError(f"{kind} step produced non-finite residual", trace)
        if kind == "newton":
            growth = growth + 1 if new_norm >= res_norm else 0
            if growth >= settings.divergence_patience:
                raise ConvergenceError(
                    f"Newton phase diverged for {growth} consecutive steps", trace)
        res_norm = new_norm

    if res_norm > target:
        raise ConvergenceError(
            f"residual {res_norm:.3e} above target {target:.3e} "
            f"after {len(trace) - 1} steps", trace)
    return SteadyResult(state, res_norm, reference, trace)
