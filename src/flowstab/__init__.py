"""Linear stability of steady incompressible flows under uncertain
viscosity.

The toolkit covers the full chain: mixed finite element discretization of
the steady Navier-Stokes equations on masked tensor-product grids, the
regularized eigenvalue problem for the rightmost mode, Karhunen-Loeve
random viscosity models, sparse-grid collocation, Gaussian-process and
neural-network surrogates, and the Monte Carlo machinery that validates
them.

The top level exports the six study entry points listed in the README's
Library section; everything else, the mesh and KL builders of
``flowstab.config`` among it, is imported from its submodule.
"""

from .config import build_simulator, config_from_dict, load_config
from .quadrature import smolyak
from .simulate import SampleSet, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "SampleSet",
    "build_simulator",
    "config_from_dict",
    "load_config",
    "monte_carlo",
    "smolyak",
]
