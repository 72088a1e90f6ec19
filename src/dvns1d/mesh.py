"""Spatial discretization: truncated domain, the background density profile
with differing end states (a plain array, sampled on the mesh),
mollification of initial data, the field check `as_field` and the
midpoint-rule `integrate`.

The grid is uniform and cell-centered on [-L, L].  The discrete difference
operators (grad_c, diffuse, ...) live in :mod:`dvns1d.kernels` and take the
spacing mesh.dx; they act on fields that make_state has already checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, integer

__all__ = [
    "Mesh",
    "build_mesh",
    "background_profile",
    "mollify",
    "as_field",
    "integrate",
]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform cell-centered grid on [-L, L] with N cells."""

    L: float
    N: int
    dx: float
    x: np.ndarray


def build_mesh(L: float, N: int) -> Mesh:
    """Construct the uniform grid.

    Requires L >= 2 (so the |x| >= 1 region where the background profile is
    constant is represented) and N >= 8.
    """
    if not math.isfinite(L):
        raise ConfigurationError(f"L must be finite, got {L!r}")
    if L < 2.0:
        raise ConfigurationError(f"L must be >= 2 so the constant far field is represented, got {L!r}")
    N = integer(N, "N", 8)
    dx = 2.0 * L / N
    x = -L + (np.arange(N, dtype=np.float64) + 0.5) * dx
    return Mesh(L=float(L), N=N, dx=dx, x=x)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    # quintic: value, slope and curvature all vanish at both ends
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def background_profile(mesh: Mesh, rho_minus: float, rho_plus: float) -> np.ndarray:
    """The smooth monotone background density joining rho_minus to rho_plus,
    sampled on the mesh.

    Constant outside [-1, 1]; inside, a quintic smoothstep with two
    continuous derivatives carries the transition.
    """
    if rho_minus <= 0.0 or rho_plus <= 0.0 or not (math.isfinite(rho_minus) and math.isfinite(rho_plus)):
        raise ConfigurationError(
            f"far-field densities must be finite and positive, got ({rho_minus!r}, {rho_plus!r})"
        )
    t = np.clip((mesh.x + 1.0) * 0.5, 0.0, 1.0)
    return rho_minus + (rho_plus - rho_minus) * _smoothstep(t)


def as_field(f, mesh: Mesh) -> np.ndarray:
    """f as a contiguous float64 array; ConfigurationError unless its shape is (N,)."""
    arr = np.ascontiguousarray(f, dtype=np.float64)
    if arr.shape != (mesh.N,):
        raise ConfigurationError(f"field shape {arr.shape} does not match mesh N={mesh.N}")
    return arr


def integrate(f, mesh: Mesh) -> float:
    """Midpoint-rule integral over the domain."""
    return float(np.sum(as_field(f, mesh)) * mesh.dx)


def mollify(f, mesh: Mesh, n: int) -> np.ndarray:
    """Smooth a field by discrete convolution with the scaled bump kernel.

    The kernel is exp(-1/(1-t^2)) on |t| < 1, scaled to support radius 1/n
    and renormalized so the sampled weights sum to one.  Edges are handled by
    mirror extension, under which every cell's weight folds back into the
    domain and the discrete integral of f is preserved exactly.  Kernels
    narrower than one cell leave the field unchanged.
    """
    n = integer(n, "mollifier index", 1)
    arr = as_field(f, mesh)
    m = int(math.floor(1.0 / n / mesh.dx + 1e-12))  # the radius 1/n <= 1 lies inside L >= 2
    if m == 0:
        return arr.copy()
    t = n * np.arange(-m, m + 1, dtype=np.float64) * mesh.dx
    w = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    w /= w.sum()  # at least exp(-1), the centre tap
    padded = np.pad(arr, m, mode="symmetric")
    return np.convolve(padded, w, mode="valid")
