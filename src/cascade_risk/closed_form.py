"""Complete-graph shortcut for the whole-platoon risk profile.

On the unit-weight complete graph the distance covariance is
tridiagonal: every pair couples only with its immediate neighbours.
Conditioning a surviving pair on the failed pairs then depends only on
the runs of consecutive failures next to it, one on each side, and the
tridiagonal block inverse has an explicit entrywise formula, so the
whole profile needs no linear algebra.

A failed run two or more pairs away is uncorrelated with the pair and
with its adjacent runs, so it drops out; an empty run adds nothing.
Tests pin equality with the generic conditioning path.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (InvalidParameterError, InvalidQueryError,
                     InvalidSizeError, NumericalError)
from .risk import (_BRANCHES, FailureScenario, ProfileEntry, RiskResult,
                   _check_query, _var_risk_array, iota)


def _check_sigma_c(sigma_c: float) -> None:
    if sigma_c <= 0.0 or not math.isfinite(sigma_c):
        raise InvalidParameterError(f"sigma_c={sigma_c!r} must be positive")


def _tridiag_parts(m: int, sigma_c: float):
    """(alpha, theta): the inverse alpha of the m x m tridiagonal matrix
    with sigma_c on the diagonal and -sigma_c/2 off it, from the leading
    principal minors theta_k = 2^-k sigma_c^k (k+1) as
    alpha_ij = (sigma_c/2)^(j-i) theta_{i-1} theta_{m-j} / theta_m for
    i <= j (symmetric)."""
    k = np.arange(m + 1, dtype=float)
    theta = 0.5 ** k * sigma_c ** k * (k + 1.0)
    i = np.arange(1, m + 1)
    lo = np.minimum.outer(i, i)
    hi = np.maximum.outer(i, i)
    alpha = (0.5 * sigma_c) ** (hi - lo) * theta[lo - 1] * theta[m - hi] / theta[m]
    return alpha, theta


def _adjacent_runs(j: int, state_of: dict):
    """Observed distances of the runs of consecutive failed pairs next to
    pair j, each front to back: (left run, right run). state_of maps
    each failed pair to its observed distance."""
    left = []
    k = j - 1
    while k in state_of:
        left.append(state_of[k])
        k -= 1
    left.reverse()
    right = []
    k = j + 1
    while k in state_of:
        right.append(state_of[k])
        k += 1
    return left, right


def complete_profile(n: int, scenario: FailureScenario, sigma_c: float,
                     d: float, c: float, epsilon: float) -> list:
    """Whole-platoon risk profile on the complete graph; mirrors
    risk.risk_profile entry for entry.

    Each adjacent run of m failures has cross-covariance -sigma_c/2 with
    the pair through its failure next to the pair, and the two runs are
    mutually uncorrelated, so their contributions add: a run shifts the
    mean through that failure's row of the run's inverse block and
    removes sigma_c/2 * m/(m+1) of variance. The reductions stay below
    sigma_c, so every conditional variance is positive.
    """
    _check_query(d, c)
    it = iota(epsilon)
    _check_sigma_c(sigma_c)
    if n < 2:
        raise InvalidSizeError(f"need at least 2 vehicles, got n={n}")
    if scenario.m and scenario.indices[-1] > n - 1:
        raise InvalidQueryError(
            f"failed pair {scenario.indices[-1]} outside 1..{n - 1}")
    state_of = dict(zip(scenario.indices, scenario.states))
    survivors = [j for j in range(1, n) if j not in state_of]
    sigma_j = math.sqrt(sigma_c)
    mu, var = [], []
    for j in survivors:
        left, right = _adjacent_runs(j, state_of)
        shift = reduction = 0.0
        for run, row in ((left, len(left) - 1), (right, 0)):
            if run:
                adjacent = _tridiag_parts(len(run), sigma_c)[0][row]
                # Overflow is caught by the finiteness check below.
                with np.errstate(over="ignore", invalid="ignore"):
                    dot = float(adjacent @ (np.asarray(run) - d))
                shift += -0.5 * sigma_c * dot
                reduction += 0.5 * sigma_c * len(run) / (len(run) + 1.0)
        mu.append(d + shift)
        var.append(sigma_j * sigma_j - reduction)
    if not all(map(math.isfinite, mu)):
        raise NumericalError("conditional moments overflowed: "
                             "observed states too far from the target gap")
    sig = np.sqrt(var)
    value, branch = _var_risk_array(np.array(mu), sig, d, c, it)
    survived = iter(zip(value.tolist(), branch.tolist(), mu, sig.tolist()))
    entries = []
    for j in range(1, n):
        if j in state_of:
            entries.append(ProfileEntry(j, True, RiskResult(0.0, "zero"),
                                        None, None))
            continue
        v, b, mu_j, sigma_tilde = next(survived)
        entries.append(ProfileEntry(j, False, RiskResult(v, _BRANCHES[b]),
                                    mu_j, sigma_tilde))
    return entries
