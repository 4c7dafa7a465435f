"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the command line front end:

* :class:`ConfigError`            -> 2 (bad or inconsistent configuration)
* :class:`SolverError` subclasses -> 3 (steady solve failed)
* :class:`EigenError` subclasses  -> 4 (eigenvalue computation failed)
"""


class FlowstabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(FlowstabError):
    """Malformed, unknown, or mutually inconsistent configuration input."""


class GeometryError(FlowstabError):
    """Mesh or space construction request that cannot be honoured
    (misaligned features, non-positive sizes, an unknown grading mode or
    pressure space, a boundary edge that no tag covers)."""


class SolverError(FlowstabError):
    """Base class for steady-state solve failures."""


class ConvergenceError(SolverError):
    """Nonlinear iteration stopped without meeting the residual target.

    Carries the residual trace so callers can log or inspect it.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class RankDeficiencyError(SolverError):
    """Singular saddle-point system (for instance an un-pinned pressure
    nullspace when every boundary segment is Dirichlet)."""


class EigenError(FlowstabError):
    """Base class for eigensolver failures."""


class PositivityError(FlowstabError):
    """A viscosity realization was not strictly positive at every
    quadrature point."""


class FieldError(FlowstabError):
    """Viscosity model construction failure: a negative coefficient of
    variation."""


class TrainingError(FlowstabError):
    """Surrogate construction failure (degenerate design, ill-conditioned
    correlation matrix, invalid budget)."""
