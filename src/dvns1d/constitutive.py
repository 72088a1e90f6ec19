"""Model parameters, the density potential whose gradient turns u into the
effective velocity v, and the admissibility check.  The laws themselves are
one expression each in :mod:`dvns1d.kernels`; phi and dphi are checked forms
that reject a density outside their domain.  Both accept scalars or numpy
arrays and are pure (phi also a batch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigurationError, DomainError, integer

__all__ = [
    "Params",
    "TheoremReport",
    "phi",
    "dphi",
    "validate_params",
]


@dataclass(frozen=True)
class Params:
    """Physical parameters of the model.

    alpha:  exponent of the density-degenerate viscosity mu(rho) = mu0*rho^alpha
    gamma:  adiabatic exponent of the pressure law P(rho) = a*rho^gamma
    a:      pressure coefficient
    mu0:    viscosity coefficient
    eps:    admissibility margin entering the gamma >= alpha + 1/2 + eps check
    reg_n:  optional regularization index; when set, viscosity is floored at 1/n
    beta:   optional override for the velocity-weight exponent (default 1/2 + eps)
    """

    alpha: float
    gamma: float
    a: float = 1.0
    mu0: float = 1.0
    eps: float = 0.125
    reg_n: int | None = None
    beta: float | None = None

    def __post_init__(self):
        for name in ("gamma", "a", "mu0"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ConfigurationError(f"{name} must be finite and positive, got {v!r}")
        if not math.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ConfigurationError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not math.isfinite(self.eps) or self.eps <= 0.0:
            raise ConfigurationError(f"eps must be finite and positive, got {self.eps!r}")
        if self.reg_n is not None:
            integer(self.reg_n, "reg_n", 1)
        if self.beta is not None and (not math.isfinite(self.beta) or self.beta <= 0.0):
            raise ConfigurationError(f"beta must be finite and positive, got {self.beta!r}")

    @property
    def beta_eff(self) -> float:
        """Velocity-weight exponent: explicit override, else 1/2 + eps."""
        return self.beta if self.beta is not None else 0.5 + self.eps

    @property
    def visc_floor(self) -> float:
        """Viscosity floor 1/n, or 0.0 when regularization is off."""
        return 0.0 if self.reg_n is None else 1.0 / self.reg_n


def _density(rho):
    """DomainError unless every cell of rho is positive."""
    if np.any(np.asarray(rho, dtype=np.float64) <= 0.0):
        raise DomainError("non-positive density")


def phi(rho, p: Params):
    """Density potential with phi'(rho) = mu(rho)/rho^2.

    Antiderivative taken with zero integration constant:
    mu0 * rho^(alpha-1)/(alpha-1) for alpha != 1, mu0 * ln(rho) for alpha = 1.
    Only the gradient of phi enters the dynamics, so the constant is
    unobservable; the regularization floor is deliberately not applied here.
    """
    _density(rho)
    return kernels.per_value(kernels.potential, rho, p.alpha, p.mu0)


def dphi(rho, p: Params):
    """phi'(rho) = mu0 * rho^(alpha-2)."""
    _density(rho)
    return p.mu0 * np.power(rho, p.alpha - 2.0)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the admissibility check for (alpha, gamma, eps).

    conditions holds (label, passed) pairs; inside_theorem is their
    conjunction.  Out-of-range parameters are accepted for exploration runs
    and merely flagged here.
    """

    conditions: tuple[tuple[str, bool], ...]
    inside_theorem: bool

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(label for label, ok in self.conditions if not ok)

    def describe(self) -> str:
        lines = [
            f"  [{'pass' if ok else 'FAIL'}] {label}" for label, ok in self.conditions
        ]
        verdict = "inside" if self.inside_theorem else "OUTSIDE"
        lines.append(f"  admissible parameter region: {verdict}")
        return "\n".join(lines)


def validate_params(p: Params) -> TheoremReport:
    """Check (alpha, gamma, eps) against the admissible parameter region.

    Conditions: 1/2 < alpha <= 1; 0 < eps < 1/4; gamma >= alpha + 1/2 + eps;
    gamma > 1.  Hard errors for non-finite or non-positive gamma, a, mu0 are
    raised by the Params constructor itself.
    """
    conditions = (
        ("1/2 < alpha <= 1", 0.5 < p.alpha <= 1.0),
        ("0 < eps < 1/4", 0.0 < p.eps < 0.25),
        (
            f"gamma >= alpha + 1/2 + eps ({p.gamma:g} >= {p.alpha + 0.5 + p.eps:g})",
            p.gamma >= p.alpha + 0.5 + p.eps,
        ),
        ("gamma > 1", p.gamma > 1.0),
    )
    return TheoremReport(
        conditions=conditions,
        inside_theorem=all(ok for _, ok in conditions),
    )
