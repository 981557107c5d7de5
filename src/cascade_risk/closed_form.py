"""Complete-graph shortcuts for conditional moments and risk.

On the unit-weight complete graph the distance covariance is
tridiagonal: every pair couples only with its immediate neighbours.
Conditioning on failed pairs then depends only on the runs of
consecutive failures touching the queried pair, and the tridiagonal
block inverse has an explicit entrywise formula, so the whole profile
needs no linear algebra.

A failed run two or more pairs away is uncorrelated with the queried
pair and with any adjacent run, so classification drops far failures;
tests pin equality with the generic conditioning path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidQueryError, InvalidSizeError
from .risk import (ConditionalDistribution, FailureScenario, ProfileEntry,
                   RiskResult, _check_query, _var_risk, iota)


def _check_sigma_c(sigma_c: float) -> None:
    if sigma_c <= 0.0 or not math.isfinite(sigma_c):
        raise InvalidParameterError(f"sigma_c={sigma_c!r} must be positive")


@dataclass(frozen=True)
class TridiagInverse:
    """Entrywise inverse of the m x m tridiagonal matrix with sigma_c on
    the diagonal and -sigma_c/2 off it. theta[k] holds the leading
    principal minor of order k; alpha is the inverse itself."""

    m: int
    alpha: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        t = np.asarray(self.theta, dtype=float)
        if self.m < 1:
            raise InvalidSizeError(f"size m={self.m} must be >= 1")
        if a.shape != (self.m, self.m) or t.shape != (self.m + 1,):
            raise InvalidParameterError(
                f"shape mismatch: alpha {a.shape}, theta {t.shape} for m={self.m}")
        if np.abs(a - a.T).max() > 1e-12 * np.abs(a).max():
            raise InvalidParameterError("alpha must be symmetric")
        a = np.array(a)
        a.setflags(write=False)
        t = np.array(t)
        t.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "theta", t)

    @property
    def sigma_c(self) -> float:
        return float(self.theta[1])


def tridiag_inverse(m: int, sigma_c: float) -> TridiagInverse:
    """Closed-form inverse via minor ratios: theta_k = 2^-k sigma_c^k (k+1)
    and alpha_ij = (sigma_c/2)^(j-i) theta_{i-1} theta_{m-j} / theta_m
    for i <= j (symmetric)."""
    if m < 1:
        raise InvalidSizeError(f"size m={m} must be >= 1")
    _check_sigma_c(sigma_c)
    return TridiagInverse(m, *_tridiag_parts(m, sigma_c))


def _tridiag_parts(m: int, sigma_c: float):
    """(alpha, theta) of tridiag_inverse on checked inputs."""
    k = np.arange(m + 1, dtype=float)
    theta = 0.5 ** k * sigma_c ** k * (k + 1.0)
    i = np.arange(1, m + 1)
    lo = np.minimum.outer(i, i)
    hi = np.maximum.outer(i, i)
    alpha = (0.5 * sigma_c) ** (hi - lo) * theta[lo - 1] * theta[m - hi] / theta[m]
    return alpha, theta


@dataclass(frozen=True)
class AdjacencyCase:
    """How the queried pair touches runs of consecutive failures.

    tag `none`: no failed neighbour. tag `one_sided`: one run of
    m_prime failures on `side` ("left" or "right" of the pair). tag
    `surrounded`: runs of m1 (left) and m2 (right). run_states lists
    the observed distances front to back, left run first.
    """

    tag: str
    m_prime: int = 0
    m1: int = 0
    m2: int = 0
    run_states: tuple = ()
    side: str = ""

    def __post_init__(self):
        if self.tag == "none":
            if self.run_states:
                raise InvalidParameterError("case `none` carries no run states")
        elif self.tag == "one_sided":
            if self.m_prime < 1:
                raise InvalidParameterError("one_sided needs m_prime >= 1")
            if self.side not in ("left", "right"):
                raise InvalidParameterError(
                    f"one_sided side must be left or right, got {self.side!r}")
            if len(self.run_states) != self.m_prime:
                raise InvalidParameterError(
                    f"{self.m_prime} failures but {len(self.run_states)} states")
        elif self.tag == "surrounded":
            # m1 or m2 of zero is accepted so the degenerate reduction
            # to the one-sided case can be exercised directly.
            if self.m1 < 0 or self.m2 < 0 or self.m1 + self.m2 < 1:
                raise InvalidParameterError(
                    f"surrounded needs nonnegative run sizes, got "
                    f"m1={self.m1}, m2={self.m2}")
            if len(self.run_states) != self.m1 + self.m2:
                raise InvalidParameterError(
                    f"{self.m1}+{self.m2} failures but "
                    f"{len(self.run_states)} states")
        else:
            raise InvalidParameterError(f"unknown case tag {self.tag!r}")
        object.__setattr__(self, "run_states",
                           tuple(float(s) for s in self.run_states))


def classify(j: int, scenario: FailureScenario, n: int) -> AdjacencyCase:
    """Identify the maximal runs of consecutive failed pairs touching
    pair j on each side. Failures not connected to j through such a run
    are irrelevant on the complete graph and are dropped."""
    _check_pairs(n, scenario)
    if not 1 <= j <= n - 1:
        raise InvalidQueryError(f"pair index {j} outside 1..{n - 1}")
    if j in scenario:
        raise InvalidQueryError(f"queried pair {j} is already failed")
    return _classify(j, dict(zip(scenario.indices, scenario.states)))


def _check_pairs(n: int, scenario: FailureScenario) -> None:
    """n vehicles, and every failed pair among their n - 1 pairs."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 vehicles, got n={n}")
    if scenario.m and scenario.indices[-1] > n - 1:
        raise InvalidQueryError(
            f"failed pair {scenario.indices[-1]} outside 1..{n - 1}")


def _classify(j: int, state_of: dict) -> AdjacencyCase:
    """classify on checked inputs; state_of maps each failed pair to its
    observed distance."""
    left = []
    k = j - 1
    while k in state_of:
        left.append(state_of[k])
        k -= 1
    left.reverse()  # front to back
    right = []
    k = j + 1
    while k in state_of:
        right.append(state_of[k])
        k += 1
    if not left and not right:
        return AdjacencyCase("none")
    if left and right:
        return AdjacencyCase("surrounded", m1=len(left), m2=len(right),
                             run_states=tuple(left + right))
    run = left or right
    return AdjacencyCase("one_sided", m_prime=len(run),
                         run_states=tuple(run),
                         side="left" if left else "right")


def _run_terms(m_run: int, states, adjacent_row: int, sigma_c: float,
               d: float):
    """Mean shift and variance reduction contributed by one adjacent run.
    adjacent_row is the 0-based row of the run's inverse block that
    corresponds to the failure touching the queried pair."""
    row = _tridiag_parts(m_run, sigma_c)[0][adjacent_row]
    shift = -0.5 * sigma_c * float(row @ (np.asarray(states) - d))
    reduction = 0.5 * sigma_c * m_run / (m_run + 1.0)
    return shift, reduction


def case_stats(case: AdjacencyCase, sigma_j: float, sigma_c: float,
               d: float) -> ConditionalDistribution:
    """Conditional moments of the queried pair on the complete graph.

    The cross-covariance with each adjacent failure is -sigma_c/2 and
    the two runs are mutually uncorrelated, so their contributions add:
    each run shifts the mean through the inverse-block row of its
    failure next to the queried pair and removes
    sigma_c/2 * m/(m+1) of variance.
    """
    _check_sigma_c(sigma_c)
    _check_query(d)
    return _case_stats(case, sigma_j, sigma_c, d)


def _case_stats(case: AdjacencyCase, sigma_j: float, sigma_c: float,
                d: float) -> ConditionalDistribution:
    """case_stats on checked inputs."""
    if case.tag == "none":
        return ConditionalDistribution(d, math.sqrt(sigma_c))
    if case.tag == "one_sided":
        adjacent = 0 if case.side == "right" else case.m_prime - 1
        shift, reduction = _run_terms(case.m_prime, case.run_states,
                                      adjacent, sigma_c, d)
    else:
        shift, reduction = 0.0, 0.0
        if case.m1:
            s, r = _run_terms(case.m1, case.run_states[:case.m1],
                              case.m1 - 1, sigma_c, d)
            shift += s
            reduction += r
        if case.m2:
            s, r = _run_terms(case.m2, case.run_states[case.m1:], 0,
                              sigma_c, d)
            shift += s
            reduction += r
    var = sigma_j * sigma_j - reduction
    if var <= 0.0:
        raise InvalidParameterError(
            f"conditional variance {var:.3g} is not positive; "
            f"sigma_j/sigma_c inputs are inconsistent")
    return ConditionalDistribution(d + shift, math.sqrt(var))


def complete_profile(n: int, scenario: FailureScenario, sigma_c: float,
                     d: float, c: float, epsilon: float) -> list:
    """Whole-platoon risk profile on the complete graph via case
    classification; mirrors risk.risk_profile entry for entry."""
    _check_query(d, c)
    it = iota(epsilon)
    _check_sigma_c(sigma_c)
    _check_pairs(n, scenario)
    state_of = dict(zip(scenario.indices, scenario.states))
    sigma_j = math.sqrt(sigma_c)
    entries = []
    for j in range(1, n):
        if j in scenario:
            entries.append(ProfileEntry(j, True, RiskResult(0.0, "zero"),
                                        None, None))
            continue
        cnd = _case_stats(_classify(j, state_of), sigma_j, sigma_c, d)
        entries.append(ProfileEntry(j, False, _var_risk(cnd, d, c, it),
                                    cnd.mu_tilde, cnd.sigma_tilde))
    return entries
