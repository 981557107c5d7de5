"""Delay-stability region bound and platoon formation checks.

A mode with scaled delay s1 = lambda*tau and scaled gain s2 = beta*tau is
stable iff s1 in (0, pi/2) and 0 < s2 < a/tan(a), where a in (0, pi/2)
solves a*sin(a) = s1. The platoon forms iff every Laplacian mode k >= 2
is stable. All boundaries are open: equality counts as unstable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import InvalidParameterError
from .graph import LaplacianSpectrum

_A_TOL = 1e-13
_MAX_ITER = 200


def solve_a(s1: float) -> float:
    """Root of a*sin(a) = s1 on (0, pi/2).

    The left side is strictly increasing there, so bisection converges
    unconditionally; tolerance 1e-13 on a.
    """
    if not 0.0 < s1 < math.pi / 2:
        raise InvalidParameterError(
            f"s1={s1!r} outside the open interval (0, pi/2)")
    lo, hi = 0.0, math.pi / 2
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid * math.sin(mid) < s1:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _A_TOL:
            break
    return 0.5 * (lo + hi)


def region_bound(s1: float) -> float:
    """Upper limit a/tan(a) on s2 for a mode with scaled delay s1."""
    a = solve_a(s1)
    return a / math.tan(a)


@dataclass(frozen=True)
class ModeStability:
    """Stability data for one Laplacian mode (k >= 2).

    bound is NaN and margin -inf when s1 falls outside (0, pi/2);
    otherwise margin = bound - s2, positive iff the mode is stable.
    """

    eigenvalue: float
    s1: float
    s2: float
    bound: float
    margin: float

    @property
    def stable(self) -> bool:
        return self.margin > 0.0 and self.s2 > 0.0


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    modes: Tuple[ModeStability, ...]

    def min_margin(self) -> float:
        return min(m.margin for m in self.modes)

    def worst_mode(self) -> ModeStability:
        return min(self.modes, key=lambda m: m.margin)


def check_platoon(spec: LaplacianSpectrum, tau: float, beta: float) -> StabilityReport:
    """Per-mode stability of the delayed closed loop for a given spectrum.

    Mode 1 (eigenvalue 0) carries the rigid translation and is excluded.
    """
    if tau <= 0.0:
        raise InvalidParameterError(f"delay tau={tau!r} must be positive")
    if beta <= 0.0:
        raise InvalidParameterError(f"gain beta={beta!r} must be positive")
    s2 = beta * tau
    modes = []
    for lam in spec.eigenvalues[1:]:
        s1 = float(lam) * tau
        if 0.0 < s1 < math.pi / 2:
            bound = region_bound(s1)
            margin = bound - s2
        else:
            bound = math.nan
            margin = -math.inf
        modes.append(ModeStability(float(lam), s1, s2, bound, margin))
    stable = all(m.stable for m in modes)
    return StabilityReport(stable, tuple(modes))
