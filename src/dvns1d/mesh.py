"""Spatial discretization: truncated domain, background density profile with
differing end states, mollification of initial data, and the discrete
differential/integral operators everything else is built from.

The grid is uniform and cell-centered on [-L, L].  All operators act on
plain float64 arrays of length N, validated by `as_field`; the stencils
themselves live in :mod:`dvns1d.kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigurationError, DomainError

__all__ = [
    "Mesh",
    "BackgroundProfile",
    "build_mesh",
    "background_profile",
    "mollify",
    "as_field",
    "grad_c",
    "diffuse",
    "integrate",
    "norm",
]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform cell-centered grid on [-L, L] with N cells."""

    L: float
    N: int
    dx: float
    x: np.ndarray


@dataclass(frozen=True, eq=False)
class BackgroundProfile:
    """Smooth monotone background density joining rho_minus to rho_plus.

    Constant outside [-1, 1]; inside, a quintic smoothstep with two
    continuous derivatives carries the transition.
    """

    rho_minus: float
    rho_plus: float
    values: np.ndarray


def build_mesh(L: float, N: int) -> Mesh:
    """Construct the uniform grid.

    Requires L >= 2 (so the |x| >= 1 region where the background profile is
    constant is represented) and N >= 8.
    """
    if not math.isfinite(L):
        raise ConfigurationError(f"L must be finite, got {L!r}")
    if L < 2.0:
        raise ConfigurationError(f"L must be >= 2 so the constant far field is represented, got {L!r}")
    if int(N) != N or N < 8:
        raise ConfigurationError(f"N must be an integer >= 8, got {N!r}")
    N = int(N)
    dx = 2.0 * L / N
    x = -L + (np.arange(N, dtype=np.float64) + 0.5) * dx
    return Mesh(L=float(L), N=N, dx=dx, x=x)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    # quintic: value, slope and curvature all vanish at both ends
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def background_profile(mesh: Mesh, rho_minus: float, rho_plus: float) -> BackgroundProfile:
    """Sample the background density on the mesh."""
    if rho_minus <= 0.0 or rho_plus <= 0.0 or not (math.isfinite(rho_minus) and math.isfinite(rho_plus)):
        raise ConfigurationError(
            f"far-field densities must be finite and positive, got ({rho_minus!r}, {rho_plus!r})"
        )
    t = np.clip((mesh.x + 1.0) * 0.5, 0.0, 1.0)
    values = rho_minus + (rho_plus - rho_minus) * _smoothstep(t)
    return BackgroundProfile(rho_minus=float(rho_minus), rho_plus=float(rho_plus), values=values)


def as_field(f, mesh: Mesh) -> np.ndarray:
    """f as a contiguous float64 array; ConfigurationError unless its shape is (N,)."""
    arr = np.ascontiguousarray(f, dtype=np.float64)
    if arr.shape != (mesh.N,):
        raise ConfigurationError(f"field shape {arr.shape} does not match mesh N={mesh.N}")
    return arr


def grad_c(f, mesh: Mesh) -> np.ndarray:
    """First derivative: centered in the interior, one-sided second order at the ends."""
    return kernels.grad_c(as_field(f, mesh), mesh.dx)


def diffuse(coef, f, mesh: Mesh) -> np.ndarray:
    """Three-point flux form of d/dx(coef * d/dx f) with arithmetic-mean faces.

    The first and last cells get 0 (they sit inside the Dirichlet clamp of
    the steppers); on fields vanishing at the boundary the operator is
    symmetric negative-semidefinite.
    """
    a = as_field(coef, mesh)
    if np.any(a < 0.0):
        raise DomainError("negative diffusion coefficient")
    return kernels.diffuse(a, as_field(f, mesh), mesh.dx)


def integrate(f, mesh: Mesh) -> float:
    """Midpoint-rule integral over the domain."""
    return float(np.sum(as_field(f, mesh)) * mesh.dx)


def norm(f, mesh: Mesh, kind: str) -> float:
    """Grid norms.

    kind:
      "linf"   - max |f_i|
      "h1"     - sqrt(||f||_2^2 + ||grad_c f||_2^2)
    """
    arr = as_field(f, mesh)
    kind = kind.lower()
    if kind == "linf":
        return float(np.max(np.abs(arr)))
    if kind == "h1":
        g = kernels.grad_c(arr, mesh.dx)
        return math.sqrt(float(np.sum(arr * arr) * mesh.dx) + float(np.sum(g * g) * mesh.dx))
    raise ConfigurationError(f"unknown norm kind {kind!r}")


def mollify(f, mesh: Mesh, n: int) -> np.ndarray:
    """Smooth a field by discrete convolution with the scaled bump kernel.

    The kernel is exp(-1/(1-t^2)) on |t| < 1, scaled to support radius 1/n
    and renormalized so the sampled weights sum to one.  Edges are handled by
    mirror extension, under which every cell's weight folds back into the
    domain and the discrete integral of f is preserved exactly.  Kernels
    narrower than one cell leave the field unchanged.
    """
    if int(n) != n or n < 1:
        raise ConfigurationError(f"mollifier index must be a positive integer, got {n!r}")
    arr = as_field(f, mesh)
    radius = 1.0 / n
    if radius >= mesh.L:
        raise ConfigurationError(f"mollifier support {radius:g} exceeds the domain half-width {mesh.L:g}")
    m = int(math.floor(radius / mesh.dx + 1e-12))
    if m == 0:
        return arr.copy()
    t = n * np.arange(-m, m + 1, dtype=np.float64) * mesh.dx
    w = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    total = w.sum()
    if total == 0.0:
        return arr.copy()
    w /= total
    padded = np.pad(arr, m, mode="symmetric")
    return np.convolve(padded, w, mode="valid")
