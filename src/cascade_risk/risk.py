"""Collision value-at-risk for a single pair given earlier failures.

Distances are jointly Gaussian in steady state, so conditioning on the
observed distances of failed pairs is a Schur complement, and the
smallest distance-scaling under which the pair stays safe with
probability 1-epsilon has a three-branch closed form: zero risk when
the pair is safe even unscaled, infinite risk when no finite scaling
saves it, and otherwise an explicit formula in the conditional moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .covariance import CovarianceMatrix
from .errors import (IllConditionedScenarioError, InvalidParameterError,
                     InvalidQueryError)

# Reject conditioning when the failed-block covariance has 2-norm
# condition number above 1/RCOND_MIN.
RCOND_MIN = 1e-12

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def _check_query(d: float, c: float | None = None) -> None:
    """Entry check of the public risk routines: target gap d > 0 and,
    when given, offset c >= 1. Each routine checks epsilon by calling
    iota before any other work."""
    if d <= 0.0 or not math.isfinite(d):
        raise InvalidParameterError(f"target gap d={d!r} must be positive")
    if c is not None and not (math.isfinite(c) and c >= 1.0):
        raise InvalidQueryError(f"offset c={c!r} must be >= 1")


@dataclass(frozen=True)
class FailureScenario:
    """Failed pairs (1-based, strictly increasing) and their observed
    distances. Empty scenario means no prior failures."""

    indices: tuple
    states: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        st = tuple(float(s) for s in self.states)
        if len(idx) != len(st):
            raise InvalidQueryError(
                f"{len(idx)} failed pairs but {len(st)} observed states")
        if any(i < 1 for i in idx):
            raise InvalidQueryError(f"pair indices must be >= 1, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidQueryError(
                f"pair indices must be strictly increasing, got {idx}")
        if not all(math.isfinite(s) for s in st):
            raise InvalidQueryError(f"observed states must be finite, got {st}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "states", st)

    @property
    def m(self) -> int:
        return len(self.indices)

    def __contains__(self, j: int) -> bool:
        return j in self.indices


@dataclass(frozen=True)
class ConditionalDistribution:
    """Mean and standard deviation of one pair distance after
    conditioning on the failed pairs."""

    mu_tilde: float
    sigma_tilde: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_tilde) and self.sigma_tilde > 0.0):
            raise InvalidParameterError(
                f"sigma_tilde={self.sigma_tilde!r} must be positive")
        if not math.isfinite(self.mu_tilde):
            raise InvalidParameterError(f"mu_tilde={self.mu_tilde!r} must be finite")


@dataclass(frozen=True)
class RiskResult:
    """Extended-real risk value with its branch tag."""

    value: float
    branch: str

    def __post_init__(self):
        if self.branch == "zero":
            ok = self.value == 0.0
        elif self.branch == "infinite":
            ok = math.isinf(self.value) and self.value > 0.0
        elif self.branch == "finite":
            ok = math.isfinite(self.value) and self.value > 0.0
        else:
            raise InvalidParameterError(f"unknown branch tag {self.branch!r}")
        if not ok:
            raise InvalidParameterError(
                f"risk value {self.value!r} inconsistent with branch {self.branch!r}")


class _FactoredScenario:
    """Cholesky factor of the failed block, reused across queried pairs."""

    def __init__(self, sigma: CovarianceMatrix, scenario: FailureScenario,
                 d: float):
        if scenario.m and scenario.indices[-1] > sigma.dim:
            raise InvalidQueryError(
                f"failed pair {scenario.indices[-1]} outside 1..{sigma.dim}")
        self.scenario = scenario
        self.idx = np.asarray(scenario.indices, dtype=int) - 1
        s22 = np.array(sigma.values[np.ix_(self.idx, self.idx)])
        if scenario.m == 0:
            self.deviation_weights = np.zeros(0)
            self.factor = None
            return
        try:
            self.factor = cho_factor(s22)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedScenarioError(
                f"failed-block covariance is not positive definite: {exc}") from exc
        cond = np.linalg.cond(s22)
        if not np.isfinite(cond) or cond > 1.0 / RCOND_MIN:
            raise IllConditionedScenarioError(
                f"failed-block covariance condition number {cond:.3g} exceeds "
                f"{1.0 / RCOND_MIN:.0e}")
        dev = np.asarray(scenario.states, dtype=float) - d
        self.deviation_weights = cho_solve(self.factor, dev)

    def conditional(self, sigma: CovarianceMatrix, d: float,
                    j: int) -> ConditionalDistribution:
        s11 = float(sigma.values[j - 1, j - 1])
        if self.scenario.m == 0:
            return ConditionalDistribution(d, math.sqrt(s11))
        s12 = np.array(sigma.values[j - 1, self.idx])
        if not s12.any():
            # Uncorrelated with every failed pair: marginal unchanged.
            return ConditionalDistribution(d, math.sqrt(s11))
        var = s11 - float(s12 @ cho_solve(self.factor, s12))
        if var <= 0.0:
            raise IllConditionedScenarioError(
                f"conditional variance {var:.3g} for pair {j} is not positive")
        mu = d + float(s12 @ self.deviation_weights)
        return ConditionalDistribution(mu, math.sqrt(var))


def condition(sigma: CovarianceMatrix, d: float, j: int,
              scenario: FailureScenario) -> ConditionalDistribution:
    """Gaussian conditional law of pair j's distance given the observed
    distances of the failed pairs."""
    _check_query(d)
    if not 1 <= j <= sigma.dim:
        raise InvalidQueryError(f"pair index {j} outside 1..{sigma.dim}")
    if j in scenario:
        raise InvalidQueryError(f"queried pair {j} is already failed")
    return _FactoredScenario(sigma, scenario, d).conditional(sigma, d, j)


def iota(epsilon: float) -> float:
    """Inverse error function at 2*epsilon - 1, computed as the standard
    normal quantile of epsilon over sqrt(2): forming 2*epsilon - 1 would
    cancel for small epsilon and round to -1 (iota = -inf) near 1e-17."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidQueryError(
            f"epsilon={epsilon!r} must lie strictly inside (0, 1)")
    return _STD_NORMAL.inv_cdf(epsilon) / _SQRT2


def var_risk(cond: ConditionalDistribution, d: float, c: float,
             epsilon: float) -> RiskResult:
    """Three-branch value-at-risk of the conditioned pair."""
    _check_query(d, c)
    return _var_risk(cond, d, c, iota(epsilon))


def _var_risk(cond: ConditionalDistribution, d: float, c: float,
              it: float) -> RiskResult:
    """var_risk on checked inputs, with it = iota(epsilon)."""
    mu, sig = cond.mu_tilde, cond.sigma_tilde
    if (d - c * mu) / (_SQRT2 * sig * c) <= it:
        return RiskResult(0.0, "zero")
    if -mu / (_SQRT2 * sig) >= it:
        return RiskResult(math.inf, "infinite")
    return RiskResult(d / (_SQRT2 * it * sig + mu) - c, "finite")


def naive_risk(sigma_j: float, d: float, c: float, epsilon: float) -> RiskResult:
    """Risk with no prior failures: the marginal law N(d, sigma_j)."""
    return var_risk(ConditionalDistribution(d, sigma_j), d, c, epsilon)


@dataclass(frozen=True)
class ProfileEntry:
    """Risk of one pair within a whole-platoon profile. `failed` marks
    pairs already in the scenario; `error` carries a conditioning
    failure message (risk and moments are None in that case)."""

    j: int
    failed: bool
    risk: RiskResult | None
    mu_tilde: float | None
    sigma_tilde: float | None
    error: str | None = None


def risk_profile(sigma: CovarianceMatrix, scenario: FailureScenario,
                 d: float, c: float, epsilon: float) -> list:
    """Risk of every pair 1..n-1 under one scenario. Failed pairs get a
    zero entry; conditioning errors are recorded per pair and the rest
    of the profile still computes."""
    _check_query(d, c)
    it = iota(epsilon)
    try:
        factored = _FactoredScenario(sigma, scenario, d)
        scenario_error = None
    except IllConditionedScenarioError as exc:
        factored = None
        scenario_error = str(exc)
    entries = []
    for j in range(1, sigma.dim + 1):
        if j in scenario:
            entries.append(ProfileEntry(j, True, RiskResult(0.0, "zero"),
                                        None, None))
            continue
        if factored is None:
            entries.append(ProfileEntry(j, False, None, None, None,
                                        scenario_error))
            continue
        try:
            cnd = factored.conditional(sigma, d, j)
            entries.append(ProfileEntry(j, False, _var_risk(cnd, d, c, it),
                                        cnd.mu_tilde, cnd.sigma_tilde))
        except IllConditionedScenarioError as exc:
            entries.append(ProfileEntry(j, False, None, None, None, str(exc)))
    return entries
