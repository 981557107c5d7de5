"""Delay-stability region bound and platoon formation checks.

A mode with scaled delay s1 = lambda*tau and scaled gain s2 = beta*tau is
stable iff s1 in (0, pi/2) and 0 < s2 < a/tan(a), where a in (0, pi/2)
solves a*sin(a) = s1. The platoon forms iff every Laplacian mode k >= 2
is stable. All boundaries are open: equality counts as unstable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnstablePlatoonError
from .graph import LaplacianSpectrum, _frozen_array

# Halvings of (0, pi/2) that bring the bracket on a below 1e-13:
# (pi/2) / 2^44 < 1e-13 < (pi/2) / 2^43.
_HALVINGS = 44


def region_bound(s1):
    """Upper limit a/tan(a) on s2 for each scaled delay in s1 (a float or
    an array; a float gives a float), NaN where s1 is outside (0, pi/2).

    a*sin(a) is strictly increasing on (0, pi/2), so a fixed number of
    masked bisection steps finds every root a to within 1e-13 at once.
    """
    s1 = np.asarray(s1, dtype=float)
    lo = np.zeros_like(s1)
    hi = np.full_like(s1, math.pi / 2)
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = mid * np.sin(mid) < s1
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    a = 0.5 * (lo + hi)
    bound = np.where((s1 > 0.0) & (s1 < math.pi / 2), a / np.tan(a), math.nan)
    return float(bound) if bound.ndim == 0 else bound


@dataclass(frozen=True)
class StabilityReport:
    """Stability of each oscillatory Laplacian mode (k >= 2), as
    read-only arrays in mode order: its eigenvalue, s1 = lambda*tau, the
    region bound on s2 and the margin bound - s2. Where s1 falls outside
    (0, pi/2) the bound is NaN and the margin -inf. s2 = beta*tau is
    common to all modes."""

    eigenvalues: np.ndarray
    s1: np.ndarray
    s2: float
    bound: np.ndarray
    margin: np.ndarray

    @property
    def stable(self) -> bool:
        return bool(np.all(self.margin > 0.0)) and self.s2 > 0.0

    def require_stable(self) -> None:
        """Raise UnstablePlatoonError, naming the mode of least margin,
        unless the platoon forms."""
        if self.stable:
            return
        k = int(np.argmin(self.margin))
        raise UnstablePlatoonError(
            f"platoon does not form: mode with eigenvalue "
            f"{self.eigenvalues[k]:.6g} has (s1, s2) = ({self.s1[k]:.6g}, "
            f"{self.s2:.6g}) outside the stability region")


def check_platoon(spec: LaplacianSpectrum, tau: float, beta: float) -> StabilityReport:
    """Per-mode stability of the delayed closed loop for a given spectrum.

    Mode 1 (eigenvalue 0) carries the rigid translation and is excluded.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise InvalidParameterError(f"delay tau={tau!r} must be positive")
    if not (math.isfinite(beta) and beta > 0.0):
        raise InvalidParameterError(f"gain beta={beta!r} must be positive")
    s2 = beta * tau
    eigenvalues = spec.eigenvalues[1:]
    with np.errstate(over="ignore"):    # s1 = inf lies outside the region
        s1 = eigenvalues * tau
    bound = region_bound(s1)
    margin = np.where(np.isnan(bound), -math.inf, bound - s2)
    return StabilityReport(_frozen_array(eigenvalues), _frozen_array(s1),
                           s2, _frozen_array(bound), _frozen_array(margin))
