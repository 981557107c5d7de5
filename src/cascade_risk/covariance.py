"""Steady-state covariance of inter-vehicle distances.

The scalar integral

    f(s1, s2) = integral over r of
                dr / [ (s1 s2 - r^2 cos r)^2 + r^2 (s1 - r sin r)^2 ]

is finite exactly when (s1, s2) lies inside the stability region; the
covariance of the n-1 inter-vehicle distances is assembled from one f
evaluation per distinct Laplacian eigenvalue. Complete graphs admit a
tridiagonal closed form with a single f evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import (InvalidParameterError, InvalidSizeError,
                     NearBoundaryError, NumericalError, UnstablePlatoonError)
from .graph import LaplacianSpectrum, pair_difference_matrix
from .stability import check_platoon, solve_a

# Refuse quadrature when the worst mode sits closer than this to the
# stability boundary: the integrand's peaks sharpen without bound there.
NEAR_BOUNDARY_MARGIN = 1e-6

# Truncation: for r >= 50 (and any in-region s1, s2) the integrand is
# below 4/r^4, so cutting at R leaves at most 4/(3 R^3).
_R_HEAD = 50.0
_TAIL_REL = 1e-11
_QUAD_EPSREL = 1e-11


@dataclass(frozen=True)
class NoiseParams:
    """Diffusion magnitude g (length/s^1.5), delay tau (s), gain beta (1/s)."""

    g: float
    tau: float
    beta: float

    def __post_init__(self):
        if self.g == 0.0 or not math.isfinite(self.g):
            raise InvalidParameterError(f"diffusion g={self.g!r} must be nonzero")
        if self.tau <= 0.0:
            raise InvalidParameterError(f"delay tau={self.tau!r} must be positive")
        if self.beta <= 0.0:
            raise InvalidParameterError(f"gain beta={self.beta!r} must be positive")


@dataclass(frozen=True)
class PlatoonParams:
    """Vehicle count n and target inter-vehicle gap d (length units)."""

    n: int
    d: float

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSizeError(f"need at least 2 vehicles, got n={self.n}")
        if self.d <= 0.0:
            raise InvalidParameterError(f"target gap d={self.d!r} must be positive")

    @property
    def targets(self) -> np.ndarray:
        """Absolute target positions (d, 2d, ..., nd)."""
        return self.d * np.arange(1, self.n + 1, dtype=float)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive semi-definite (n-1)x(n-1) distance covariance."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidParameterError(f"covariance shape {v.shape} is not square")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("covariance entries must be finite")
        if np.abs(v - v.T).max() > 1e-12 * max(1.0, np.abs(v).max()):
            raise InvalidParameterError("covariance must be symmetric")
        eig = np.linalg.eigvalsh(v)
        if eig[0] < -1e-9 * max(eig[-1], 0.0):
            raise InvalidParameterError("covariance must be positive semi-definite")
        if np.any(np.diag(v) <= 0.0):
            raise InvalidParameterError("covariance diagonal must be positive")
        vv = np.array(v)
        vv.setflags(write=False)
        object.__setattr__(self, "values", vv)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def marginal_std(self, j: int) -> float:
        """Standard deviation of pair j (1-based)."""
        if not 1 <= j <= self.dim:
            raise InvalidParameterError(f"pair index {j} outside 1..{self.dim}")
        return math.sqrt(self.values[j - 1, j - 1])


def integrand(r: float, s1: float, s2: float) -> float:
    return 1.0 / ((s1 * s2 - r * r * math.cos(r)) ** 2
                  + r * r * (s1 - r * math.sin(r)) ** 2)


_f_cache: dict = {}


def _cache_key(s1: float, s2: float) -> tuple:
    # 12 significant digits: numerically equal eigenvalues of a repeated
    # mode collapse to one evaluation.
    return (f"{s1:.11e}", f"{s2:.11e}")


def _quad(fun, lo: float, hi: float, epsabs: float, points=None) -> float:
    for limit in (1000, 4000):
        out = integrate.quad(fun, lo, hi, points=points, limit=limit,
                             epsabs=epsabs, epsrel=_QUAD_EPSREL,
                             full_output=1)
        if len(out) < 4:  # (value, abserr, infodict): converged
            return out[0]
    raise NumericalError(
        f"quadrature failed to converge on [{lo:.6g}, {hi:.6g}]: {out[3]}")


def f_integral(s1: float, s2: float) -> float:
    """The covariance integral; requires (s1, s2) inside the stability
    region with margin, returns a positive value with relative accuracy
    better than 1e-8 (integrand even, so twice the half-line integral).

    One root a of a sin a = s1 serves both the region bound a/tan(a)
    and the quadrature breakpoint."""
    a = solve_a(s1) if 0.0 < s1 < math.pi / 2 else math.nan
    bound = a / math.tan(a)
    if not 0.0 < s2 < bound:
        raise UnstablePlatoonError(
            f"(s1, s2) = ({s1:.6g}, {s2:.6g}) is outside the stability region")
    if bound - s2 < NEAR_BOUNDARY_MARGIN:
        raise NearBoundaryError(
            f"stability margin {bound - s2:.3g} below {NEAR_BOUNDARY_MARGIN:g}; "
            f"refusing quadrature this close to the boundary")
    key = _cache_key(s1, s2)
    cached = _f_cache.get(key)
    if cached is not None:
        return cached
    fun = lambda r: integrand(r, s1, s2)
    # Near-singular radii: where s1*s2 - r^2 cos r and s1 - r sin r
    # first vanish, plus the radius a with a sin a = s1 where both
    # denominator terms vanish together as s2 approaches its bound.
    pts = sorted({math.sqrt(s1 * s2), math.sqrt(s1), a})
    value = 2.0 * _quad(fun, 0.0, _R_HEAD, epsabs=0.0, points=pts)
    r_tail = (4.0 / (3.0 * _TAIL_REL * value)) ** (1.0 / 3.0)
    if r_tail > _R_HEAD:
        value += 2.0 * _quad(fun, _R_HEAD, r_tail, epsabs=_TAIL_REL * value)
    _f_cache[key] = value
    return value


def steady_state_covariance(spec: LaplacianSpectrum,
                            noise: NoiseParams) -> CovarianceMatrix:
    """Distance covariance from the Laplacian spectrum (any connected
    topology). One f evaluation per distinct eigenvalue via the cache."""
    report = check_platoon(spec, noise.tau, noise.beta)
    if not report.stable:
        worst = report.worst_mode()
        raise UnstablePlatoonError(
            f"platoon does not form: mode with eigenvalue {worst.eigenvalue:.6g} "
            f"has (s1, s2) = ({worst.s1:.6g}, {worst.s2:.6g}) outside the "
            f"stability region", report)
    W = pair_difference_matrix(spec.eigenvectors)[:, 1:]
    fvals = np.array([f_integral(m.s1, m.s2) for m in report.modes])
    pref = noise.g * noise.g * noise.tau ** 3 / (2.0 * math.pi)
    sigma = pref * (W * fvals) @ W.T
    return CovarianceMatrix(0.5 * (sigma + sigma.T))


def complete_graph_sigma_c(n: int, noise: NoiseParams) -> float:
    """Marginal distance variance sigma_c on the unit-weight complete
    graph (all nonzero Laplacian eigenvalues equal n)."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 vehicles, got n={n}")
    f = f_integral(n * noise.tau, noise.beta * noise.tau)
    return noise.g * noise.g * noise.tau ** 3 * f / math.pi


def complete_graph_covariance(n: int, noise: NoiseParams) -> CovarianceMatrix:
    """Closed-form covariance on the complete graph: sigma_c on the
    diagonal, -sigma_c/2 on the first off-diagonals, zero elsewhere."""
    sigma_c = complete_graph_sigma_c(n, noise)
    m = n - 1
    sigma = np.zeros((m, m))
    np.fill_diagonal(sigma, sigma_c)
    idx = np.arange(m - 1)
    sigma[idx, idx + 1] = -0.5 * sigma_c
    sigma[idx + 1, idx] = -0.5 * sigma_c
    return CovarianceMatrix(sigma)
