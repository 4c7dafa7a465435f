"""Stochastic viscosity fields driven by a few random variables.

Two parameterizations cover the benchmarks: a truncated lognormal
transform of a Gaussian random field, expanded in normalized
probabilists' Hermite chaos, and an affine expansion in uniform
variables paired with normalized Legendre polynomials.  Either way the
model stores one coefficient field per basis function, sampled at the
assembly quadrature points, so a realization is a single tensor
contraction.

Each model takes every mode of a unit-variance KL expansion and
calibrates the amplitudes at the domain-center probe: the coefficient
of variation of the field equals the configured CoV there exactly,
which absorbs the variance lost to KL truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, PositivityError
from .gpc import GpcBasis
from .randomfield import KlExpansion


@dataclass(frozen=True)
class ViscosityModel:
    """Expansion ``nu(x, xi) = sum_k coeffs[k](x) psi_k(xi)``.

    ``coeffs`` has shape (n_terms, n_cells, 9) over the assembly
    quadrature points; ``psi_k`` are the orthonormal basis functions of
    ``basis``.  Immutable; evaluation is pure.
    """

    kind: str            # "lognormal" | "affine"
    nu1: float
    cov: float
    basis: GpcBasis
    coeffs: np.ndarray
    sigma_g: float       # lognormal: scale of the KL modes in the exponent; affine: 1
    lx: float
    ly: float

    @property
    def n_terms(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.dim

    def evaluate(self, xi) -> np.ndarray:
        """Realize the field at one sample point ``xi``, (dim,): its values
        at the assembly quadrature points, (n_cells, 9).

        Raises ``PositivityError`` when the realization is not strictly
        positive at every quadrature point (a NaN is not); callers record
        such samples as failed rather than feeding them to the flow solver.
        """
        psi = self.basis.evaluate(np.asarray(xi, dtype=float))[0]
        field = np.tensordot(psi, self.coeffs, axes=1)
        low = field.min()
        if not low > 0.0:
            raise PositivityError(
                f"viscosity realization reaches {low:.3e} at a quadrature point")
        return field

    def gradient(self, xi) -> np.ndarray:
        """Exact derivatives ``d nu / d xi_j`` of the field at one sample
        point, (dim, n_cells, 9).  They are signed, so unlike a
        realization they are not checked for positivity."""
        grad = self.basis.gradient(np.asarray(xi, dtype=float))[0]
        return np.tensordot(grad, self.coeffs, axes=1)

    def describe(self) -> dict:
        """Provenance block serialized into result files."""
        return {
            "kind": self.kind,
            "nu1": self.nu1,
            "cov": self.cov,
            "family": self.basis.family,
            "dim": self.basis.dim,
            "degree": self.basis.degree,
            "n_terms": self.n_terms,
            "sigma_g": self.sigma_g,
            "lx": self.lx,
            "ly": self.ly,
        }


def hermite_lognormal_coeffs(g0: np.ndarray, gs: np.ndarray,
                             degree: int) -> tuple[GpcBasis, np.ndarray]:
    """Hermite chaos coefficients of ``exp(g0(x) + sum_j g_j(x) xi_j)``.

    For the normalized basis the coefficient attached to multi-index
    ``beta`` is ``exp(g0 + sum g_j^2 / 2) * prod_j g_j^beta_j / sqrt(beta_j!)``,
    exact in closed form.  ``gs`` stacks the coefficient fields along
    axis 0; any trailing shape is carried through.
    """
    g0 = np.asarray(g0, dtype=float)
    gs = np.asarray(gs, dtype=float)
    basis = GpcBasis.total_degree("hermite", gs.shape[0], degree)
    envelope = np.exp(g0 + 0.5 * np.sum(gs**2, axis=0))
    coeffs = np.empty((basis.n_terms,) + g0.shape)
    for k, beta in enumerate(basis.indices):
        term = envelope
        for j, b in enumerate(beta):
            if b:
                term = term * gs[j] ** int(b) / math.sqrt(math.factorial(int(b)))
        coeffs[k] = term
    return basis, coeffs


def build_lognormal(nu1: float, cov: float, kl: KlExpansion, p: int) -> ViscosityModel:
    """Truncated lognormal model on every mode of ``kl``, with mean ``nu1``
    everywhere.

    The Gaussian exponent is ``sum_j g_j(x) xi_j`` with
    ``g_j = c sqrt(lambda_j) v_j`` and ``c`` chosen so that the probe
    variance equals ``log(1 + cov^2)``; the constant part is then fixed
    pointwise by mean matching.  The chaos degree ``2p`` is twice the
    degree used for response surfaces built on top of the model, which
    keeps products of field and response representable.
    """
    if cov < 0:
        raise FieldError("CoV must be nonnegative")
    scale = math.sqrt(math.log1p(cov**2) / kl.probe_variance)
    gs = scale * np.sqrt(kl.eigenvalues)[:, None, None] * kl.quad_values
    g0 = math.log(nu1) - 0.5 * np.sum(gs**2, axis=0)
    basis, coeffs = hermite_lognormal_coeffs(g0, gs, 2 * p)
    return ViscosityModel("lognormal", float(nu1), float(cov), basis, coeffs,
                          scale, kl.lx, kl.ly)


def build_affine(nu1: float, cov: float, kl: KlExpansion) -> ViscosityModel:
    """Affine model: mean plus one linear term per mode of ``kl``.

    Mode amplitudes are rescaled so the standard deviation at the probe
    equals ``cov * nu1``; a degree-1 Legendre basis carries the terms,
    so the normalized coefficients are ``cov nu1 sqrt(lambda_l) v_l``
    up to the probe rescaling.
    """
    if cov < 0:
        raise FieldError("CoV must be nonnegative")
    basis = GpcBasis.total_degree("legendre", kl.n_modes, 1)
    coeffs = np.empty((basis.n_terms,) + kl.quad_values.shape[1:])
    coeffs[0] = nu1
    amp = cov * nu1 / math.sqrt(kl.probe_variance)
    coeffs[1:] = amp * np.sqrt(kl.eigenvalues)[:, None, None] * kl.quad_values
    return ViscosityModel("affine", float(nu1), float(cov), basis, coeffs,
                          1.0, kl.lx, kl.ly)
