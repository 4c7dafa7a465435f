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

The origin sweep factors ``J`` once, as assembled (explicit zeros and
all), and hands ``J^{-1} M_delta`` to ARPACK in ordinary largest-magnitude
mode, whose largest ``mu`` give the ``1/mu`` nearest the origin; this
sidesteps the definiteness restrictions of the built-in generalized mode,
which ``M_delta`` (symmetric but indefinite) does not meet.  A dense QZ
path over the same pencil serves as an independent cross-check.

Given the rightmost eigenpair of a nearby pencil, as a study has for its
nominal germ, the eigenvalue is tracked from it instead (inverse iteration
about a known eigenvalue), with the origin sweep as the fallback.
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

#: Krylov size and tolerance of the tracked solve: with these, desk and
#: refine-2 germs took 7-13 operator applies; ARPACK's default ncv (20)
#: took 21, and asking for 3-4 neighbours 35-82
_TRACK_NCV = 6
_TRACK_TOL = 1e-10

#: largest relative residual of a kept tracked pair; on desk germs at CoV
#: 0.10 and 0.30 and on refine-2 Hopf germs the largest was 1.3e-12
_TRACK_RESIDUAL = 1e-8

#: share of the nominal gap that Re lambda may fall below Re lambda0; the
#: gaps are 0.21 (obstacle desk), 0.083 (step, refine 2) and 0.28
#: (obstacle, refine 2), the largest move measured 0.115 (obstacle,
#: refine 2, xi = (2.5, -2))
_TRACK_DROP = 0.5


@dataclass
class EigenProblem:
    """Regularized generalized eigenvalue pencil ``(lhs, rhs)``.

    Tracking (see :func:`rightmost`) needs the two on one pattern, as
    :func:`build_problem` makes them; other pencils are swept.

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
    solve's Picard element matrices, ``rhs`` the same pattern filled with
    ``-G`` on both components, explicit zeros between them, and
    ``delta B``.  So the two share `indices` and `indptr`, and a shifted
    matrix ``lhs - sigma rhs`` is one subtraction of their data."""
    if delta == 0.0:
        raise EigenError("delta must be nonzero; the plain mass pencil is singular")
    plan = saddle_plan(ops.space)
    jacobian = newton_operator(ops, steady.state.velocity, steady.picard)
    mass = np.zeros_like(jacobian)
    mass[:, [0, 1], [0, 1]] = -ops.mass[:, None]
    lhs = plan.square(plan.fill(jacobian, ops.divergence))
    rhs = plan.square(plan.fill(mass, delta * ops.divergence))
    return EigenProblem(lhs, rhs, delta)


def _select(problem: EigenProblem, values: np.ndarray, vecs: np.ndarray,
            k: int, method: str, empty: str) -> EigenResult:
    """The rightmost of `values` outside the ``1/delta`` cluster; raises
    :class:`EigenError` with message `empty` when nothing is left.

    The two members of a complex pair tie on the real part, so the solver's
    ordering would pick one; the member with positive imaginary part is
    returned, with its eigenvector to match."""
    values = _positive_zero(values)
    drop = _in_cluster(problem, values)
    if drop.all():
        raise EigenError(empty)
    keep = np.flatnonzero(~drop)
    best = keep[np.argmax(values[keep].real)]
    value, vec = values[best], vecs[:, best]
    value, vec = _upper(value, vec)
    return EigenResult(complex(value), vec, np.sort_complex(values[keep]),
                       np.sort_complex(values[drop]),
                       _residual(problem, value, vec), k, method)


def _positive_zero(values: np.ndarray) -> np.ndarray:
    """`values` with every zero imaginary part +0.0: ``1/mu`` of a real
    ``mu`` in complex arithmetic can give -0.0, which would be reported."""
    return np.where(values.imag == 0.0, values.real + 0j, values)


def _in_cluster(problem: EigenProblem, values) -> np.ndarray:
    """Which of `values` sit in the ``1/delta`` cluster."""
    if problem.delta is None:
        return np.zeros(np.shape(values), dtype=bool)
    spur = 1.0 / problem.delta
    return np.abs(values - spur) < _CLUSTER_RTOL * abs(spur)


def _upper(value, vec):
    """Of a conjugate pair, the member with positive imaginary part."""
    if value.imag < 0:
        return value.conjugate(), vec.conjugate()
    return value, vec


def _residual(problem: EigenProblem, value, vec) -> float:
    """``||J v - lambda M v|| / ||v||``."""
    return float(np.linalg.norm(problem.lhs @ vec - value * (problem.rhs @ vec))
                 / np.linalg.norm(vec))


def dense_rightmost(problem: EigenProblem) -> EigenResult:
    """QZ on the full pencil; reference path for cross-checking, n <= 400."""
    n = problem.dim
    if n > 400:
        raise EigenError(f"dense path limited to n <= 400, got {n}")
    values, vecs = linalg.eig(problem.lhs.toarray(), problem.rhs.toarray())
    finite = np.isfinite(values)
    return _select(problem, values[finite], vecs[:, finite], n, "dense",
                   "no finite eigenvalues outside the 1/delta cluster")


def rightmost(problem: EigenProblem, k: int = 24, seed: int = 0,
              near: EigenResult | None = None, lu=None) -> EigenResult:
    """Rightmost finite eigenvalue.

    Given `near`, the rightmost eigenpair of a nearby pencil, the value is
    tracked from it (see :func:`_tracked`).  Without it, or when tracking
    gives no trusted value, shift-invert Arnoldi sweeps the origin: the
    `k` Ritz values nearest the origin are computed; if the selected value
    sits at the outer edge of that window the computation is repeated once
    with ``2k``, on the same factorization, to make sure nothing further
    right was missed; `lu`, when given, is the LU of ``problem.lhs`` it
    uses.  Problems with fewer than a handful of DOFs fall back to the
    dense path.
    """
    n = problem.dim
    if n < _DENSE_FALLBACK:
        return dense_rightmost(problem)
    if near is not None:
        tracked = _tracked(problem, near)
        if tracked is not None:
            return tracked
    if lu is None:
        try:
            lu = splu(problem.lhs.tocsc())
        except RuntimeError as exc:
            raise EigenError(
                f"factorization of the Jacobian failed: {exc}") from exc
    op = LinearOperator((n, n), matvec=lambda x: lu.solve(problem.rhs @ x))
    k_eff = min(k, n - 2)
    result, edge = _window(problem, op, k_eff, seed)
    if edge and k_eff < n - 2:
        result = _window(problem, op, min(2 * k, n - 2), seed)[0]
    return result


def _tracked(problem: EigenProblem, near: EigenResult) -> EigenResult | None:
    """The eigenvalue of `problem` nearest ``lambda0``, the eigenvalue of
    `near`: ``lambda = sigma + 1/theta`` for the largest ``theta`` of
    ``(J - sigma M)^-1 M``, found from near's eigenvector, with ``sigma =
    lambda0`` (real when ``lambda0`` is).

    ``None``, so that the origin sweep runs, when near's other candidates
    give no gap below ``Re lambda0``, the two matrices do not share a
    pattern, the LU or ARPACK fails, or ``lambda`` is suspect: its residual
    is large, it sits in the ``1/delta`` cluster, or its real part fell
    more than :data:`_TRACK_DROP` of the gap, so another eigenvalue could
    be the rightmost one.
    """
    lam0 = near.eigenvalue
    others = near.candidates[(near.candidates != lam0)
                             & (near.candidates != lam0.conjugate())]
    lhs, rhs = problem.lhs.tocsc(), problem.rhs.tocsc()
    if (others.size == 0 or not np.array_equal(lhs.indptr, rhs.indptr)
            or not np.array_equal(lhs.indices, rhs.indices)):
        return None
    gap = lam0.real - others.real.max()
    if lam0.imag == 0.0:
        sigma, v0 = lam0.real, near.eigenvector.real
    else:
        sigma, v0 = lam0, near.eigenvector
    # on the shared pattern, explicit zeros and all: the LU has J's fill
    shifted = sparse.csc_matrix((lhs.data - sigma * rhs.data, lhs.indices,
                                 lhs.indptr), shape=lhs.shape)
    try:
        lu = splu(shifted)
    except RuntimeError:
        return None
    op = LinearOperator(shifted.shape, matvec=lambda x: lu.solve(rhs @ x),
                        dtype=shifted.dtype)
    try:
        theta, vecs = eigs(op, k=1, ncv=_TRACK_NCV, which="LM", v0=v0,
                           tol=_TRACK_TOL)
    except ArpackNoConvergence:
        return None
    # sigma's imaginary part is +0.0 or nonzero, so the sum's is never -0.0
    value, vec = _upper(sigma + 1.0 / theta[0], vecs[:, 0])
    residual = _residual(problem, value, vec)
    if (residual > _TRACK_RESIDUAL or _in_cluster(problem, value)
            or value.real < lam0.real - _TRACK_DROP * gap):
        return None
    return EigenResult(complex(value), vec, np.array([complex(value)]),
                       np.empty(0, dtype=complex), residual, 1, "tracked")


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
