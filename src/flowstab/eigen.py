"""Rightmost eigenvalues of the linearized flow operator.

Perturbing a steady state by ``exp(lambda t) (v, q)`` leads to the
generalized problem ``J z = lambda M z`` with the Jacobian saddle matrix
``J = [[F, B^T], [B, 0]]`` and the singular mass block
``M = [[-G, 0], [0, 0]]``.  The singular pencil is regularized by the
nonsingular substitute ``M_delta = [[-G, delta B^T], [delta B, 0]]`` with
a small negative ``delta``; the substitution leaves the finite spectrum
unchanged and turns every infinite mode into a defective pair at
``1/delta`` (two eigenvalues per pressure DOF, split only by roundoff),
far in the left half plane.  Candidates within one percent of
``1/delta`` are therefore discarded before selecting the rightmost
value.

The iterative path factors ``J`` once, as assembled (explicit zeros and
all), and hands ``J^{-1} M_delta`` to ARPACK in ordinary largest-magnitude
mode, whose largest ``mu`` give the ``1/mu`` nearest the origin; this
sidesteps the definiteness restrictions of the built-in generalized mode,
which ``M_delta`` (symmetric but indefinite) does not meet.  A dense QZ
path over the same pencil serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import csv
import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from .errors import EigenError
from .assembly import saddle_plan
from .steady import Operators, SteadyResult, newton_operator

#: exclusion radius around 1/delta, relative to |1/delta|
_CLUSTER_RTOL = 0.01

#: problems smaller than this go straight to the dense path
_DENSE_FALLBACK = 30

#: relative accuracy ARPACK asks of its Ritz values; 0 (machine precision)
#: took 1.3-6x the operator applies on the desk obstacle and the refine-2
#: step flows, for a selected eigenvalue that moved by less than 1e-15
_ARPACK_TOL = 1e-8


@dataclass
class EigenProblem:
    """Regularized generalized eigenvalue pencil ``(lhs, rhs)``.

    `delta` records the regularization parameter so spurious candidates at
    ``1/delta`` can be recognized; ``None`` means the right-hand matrix is
    genuinely nonsingular and nothing is excluded.
    """

    lhs: sparse.spmatrix
    rhs: sparse.spmatrix
    delta: float | None = None

    @property
    def dim(self) -> int:
        return self.lhs.shape[0]


@dataclass
class EigenResult:
    eigenvalue: complex
    eigenvector: np.ndarray = field(repr=False)
    candidates: np.ndarray = field(repr=False)   # retained finite Ritz values
    excluded: np.ndarray = field(repr=False)     # dropped 1/delta-cluster values
    residual: float = 0.0                        # ||J v - lambda M v|| / ||v||
    k: int = 0
    method: str = "arnoldi"


def build_problem(ops: Operators, steady: SteadyResult,
                  delta: float = -1e-2) -> EigenProblem:
    """Assemble the pencil at a converged steady state, interior DOFs only:
    ``lhs`` is the Newton pattern filled at that state, building on the
    solve's Picard element matrices, ``rhs`` the Picard pattern filled with
    ``-G`` and ``delta B``."""
    if delta == 0.0:
        raise EigenError("delta must be nonzero; the plain mass pencil is singular")
    plan = saddle_plan(ops.space)
    jacobian = newton_operator(ops, steady.state.velocity, steady.picard)
    lhs = plan.square(plan.fill(jacobian, ops.divergence))
    rhs = plan.square(plan.fill(-ops.mass, delta * ops.divergence))
    return EigenProblem(lhs, rhs, delta)


def _select(problem: EigenProblem, values: np.ndarray, vecs: np.ndarray,
            k: int, method: str, empty: str) -> EigenResult:
    """The rightmost of `values` outside the ``1/delta`` cluster; raises
    :class:`EigenError` with message `empty` when nothing is left.

    The two members of a complex pair tie on the real part, so the solver's
    ordering would pick one; the member with positive imaginary part is
    returned, with its eigenvector to match."""
    drop = np.zeros(values.shape, dtype=bool)
    if problem.delta is not None:
        spur = 1.0 / problem.delta
        drop = np.abs(values - spur) < _CLUSTER_RTOL * abs(spur)
    if drop.all():
        raise EigenError(empty)
    keep = np.flatnonzero(~drop)
    best = keep[np.argmax(values[keep].real)]
    value, vec = values[best], vecs[:, best]
    if value.imag < 0:
        value, vec = value.conjugate(), vec.conjugate()
    residual = (np.linalg.norm(problem.lhs @ vec - value * (problem.rhs @ vec))
                / np.linalg.norm(vec))
    return EigenResult(complex(value), vec, np.sort_complex(values[keep]),
                       np.sort_complex(values[drop]), float(residual), k, method)


def dense_rightmost(problem: EigenProblem) -> EigenResult:
    """QZ on the full pencil; reference path for cross-checking, n <= 400."""
    n = problem.dim
    if n > 400:
        raise EigenError(f"dense path limited to n <= 400, got {n}")
    values, vecs = linalg.eig(problem.lhs.toarray(), problem.rhs.toarray())
    finite = np.isfinite(values)
    return _select(problem, values[finite], vecs[:, finite], n, "dense",
                   "no finite eigenvalues outside the 1/delta cluster")


def rightmost(problem: EigenProblem, k: int = 24, seed: int = 0) -> EigenResult:
    """Rightmost finite eigenvalue via shift-invert Arnoldi at the origin.

    The `k` Ritz values nearest the origin are computed; if the selected
    value sits at the outer edge of that window the computation is
    repeated once with ``2k``, on the same factorization, to make sure
    nothing further right was missed.  Problems with fewer than a handful
    of DOFs fall back to the dense path.
    """
    n = problem.dim
    if n < _DENSE_FALLBACK:
        return dense_rightmost(problem)
    try:
        lu = splu(problem.lhs.tocsc())
    except RuntimeError as exc:
        raise EigenError(f"factorization of the Jacobian failed: {exc}") from exc
    op = LinearOperator((n, n), matvec=lambda x: lu.solve(problem.rhs @ x))
    k_eff = min(k, n - 2)
    result, edge = _window(problem, op, k_eff, seed)
    if edge and k_eff < n - 2:
        result = _window(problem, op, min(2 * k, n - 2), seed)[0]
    return result


def _window(problem: EigenProblem, op: LinearOperator, k: int,
            seed: int) -> tuple[EigenResult, bool]:
    """The selection among the `k` Ritz values of `op` of largest
    magnitude, and whether it sits at the outer edge of that window."""
    v0 = np.random.default_rng(seed).standard_normal(problem.dim)
    try:
        mu, vecs = eigs(op, k=k, which="LM", v0=v0, tol=_ARPACK_TOL)
    except ArpackNoConvergence as exc:
        mu, vecs = exc.eigenvalues, exc.eigenvectors
        if mu.size == 0:
            raise EigenError("Arnoldi iteration returned no converged values") from exc
    values = 1.0 / mu
    result = _select(problem, values, vecs, k, "arnoldi",
                     "all converged Ritz values sit in the 1/delta cluster; "
                     "increase k")
    # window-edge guard: smallest |mu| are the least converged directions
    return result, bool(np.abs(result.eigenvalue) >= 0.9 * np.abs(values).max())


def ritz_to_csv(result: EigenResult, path) -> None:
    """Dump retained and excluded Ritz values with their roles."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "role"])
        for v in result.candidates:
            role = "rightmost" if v == result.eigenvalue else "candidate"
            writer.writerow([f"{v.real:.16e}", f"{v.imag:.16e}", role])
        for v in result.excluded:
            writer.writerow([f"{v.real:.16e}", f"{v.imag:.16e}", "shift-cluster"])
