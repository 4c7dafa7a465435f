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

The iterative path runs shift-invert Arnoldi around a target (default 0)
by factorizing ``J - shift M_delta`` once and handing the composed solve
to ARPACK in ordinary largest-magnitude mode; this sidesteps the
definiteness restrictions of the built-in generalized mode, which
``M_delta`` (symmetric but indefinite) does not meet.  A dense QZ path
over the same pencil serves as an independent cross-check for small
problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import csv
import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from .errors import EigenError, ShiftError
from .steady import FlowState, Operators, newton_operator, picard_operator

#: exclusion radius around 1/delta, relative to |1/delta|
_CLUSTER_RTOL = 0.01

#: problems smaller than this go straight to the dense path
_DENSE_FALLBACK = 30


@dataclass
class EigenProblem:
    """Regularized generalized eigenvalue pencil ``(lhs, rhs)``.

    `delta` records the regularization parameter so spurious candidates at
    ``1/delta`` can be recognized; ``None`` means the right-hand matrix is
    genuinely nonsingular and nothing is excluded.
    """

    lhs: sparse.csr_matrix
    rhs: sparse.csr_matrix
    delta: float | None = None

    @property
    def dim(self) -> int:
        return self.lhs.shape[0]


@dataclass
class EigenResult:
    eigenvalue: complex
    eigenvector: np.ndarray = field(repr=False)
    candidates: np.ndarray = field(repr=False)   # retained finite Ritz values
    excluded: np.ndarray = field(repr=False)     # dropped shift-cluster values
    residual: float = 0.0                        # ||J v - lambda M v|| / ||v||
    shift: complex = 0.0
    k: int = 0
    method: str = "arnoldi"


def build_problem(ops: Operators, state: FlowState,
                  delta: float = -1e-2) -> EigenProblem:
    """Assemble the pencil at a steady state, interior DOFs only."""
    if delta == 0.0:
        raise EigenError("delta must be nonzero; the plain mass pencil is singular")
    iu, u = ops.space.interior, state.velocity
    jacobian = newton_operator(ops, u, picard_operator(ops, u))
    j_ii = jacobian[iu][:, iu]
    div_i = ops.divergence[:, iu]
    mass_ii = ops.mass[iu][:, iu]
    lhs = sparse.bmat([[j_ii, div_i.T], [div_i, None]], format="csr")
    rhs = sparse.bmat([[-mass_ii, delta * div_i.T],
                       [delta * div_i, None]], format="csr")
    return EigenProblem(lhs, rhs, delta)


def _select(problem: EigenProblem, values: np.ndarray, vecs: np.ndarray,
            shift: complex, k: int, method: str, empty: str) -> EigenResult:
    """The rightmost of `values` outside the ``1/delta`` cluster; raises
    :class:`EigenError` with message `empty` when nothing is left."""
    drop = np.zeros(values.shape, dtype=bool)
    if problem.delta is not None:
        spur = 1.0 / problem.delta
        drop = np.abs(values - spur) < _CLUSTER_RTOL * abs(spur)
    if drop.all():
        raise EigenError(empty)
    keep = np.flatnonzero(~drop)
    best = keep[np.argmax(values[keep].real)]
    value, vec = values[best], vecs[:, best]
    residual = (np.linalg.norm(problem.lhs @ vec - value * (problem.rhs @ vec))
                / np.linalg.norm(vec))
    return EigenResult(complex(value), vec, np.sort_complex(values[keep]),
                       np.sort_complex(values[drop]), float(residual),
                       shift, k, method)


def dense_rightmost(problem: EigenProblem) -> EigenResult:
    """QZ on the full pencil; reference path for cross-checking, n <= 400."""
    n = problem.dim
    if n > 400:
        raise EigenError(f"dense path limited to n <= 400, got {n}")
    values, vecs = linalg.eig(problem.lhs.toarray(), problem.rhs.toarray())
    finite = np.isfinite(values)
    return _select(problem, values[finite], vecs[:, finite], 0.0, n, "dense",
                   "no finite eigenvalues outside the shift cluster")


def rightmost(problem: EigenProblem, k: int = 24, shift: float = 0.0,
              seed: int = 0, tol: float = 0.0) -> EigenResult:
    """Rightmost finite eigenvalue via shift-invert Arnoldi.

    `k` Ritz values around `shift` are computed; if the selected value
    sits at the outer edge of that window the computation is repeated once
    with ``2k`` to make sure nothing further right was missed.  Problems
    with fewer than a handful of DOFs fall back to the dense path.
    """
    n = problem.dim
    if n < _DENSE_FALLBACK:
        return dense_rightmost(problem)
    k_eff = min(k, n - 2)
    try:
        lu = splu((problem.lhs - shift * problem.rhs).tocsc())
    except RuntimeError as exc:
        raise ShiftError(f"factorization at shift {shift} failed: {exc}") from exc
    op = LinearOperator((n, n), matvec=lambda x: lu.solve(problem.rhs @ x))
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        mu, vecs = eigs(op, k=k_eff, which="LM", v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        mu, vecs = exc.eigenvalues, exc.eigenvectors
        if mu.size == 0:
            raise EigenError("Arnoldi iteration returned no converged values") from exc
    values = shift + 1.0 / mu
    result = _select(problem, values, vecs, shift, k_eff, "arnoldi",
                     "all converged Ritz values sit in the shift cluster; "
                     "increase k or move the shift")
    # window-edge guard: smallest |mu| are the least converged directions
    edge = np.abs(shift - result.eigenvalue) >= 0.9 * np.abs(shift - values).max()
    if edge and k_eff < n - 2:
        return rightmost(problem, min(2 * k, n - 2), shift, seed, tol)
    return result


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
