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
from typing import NamedTuple

import numpy as np

from .covariance import CovarianceMatrix
from .errors import (IllConditionedScenarioError, InvalidParameterError,
                     InvalidQueryError, NumericalError)
from .graph import _integer

# Reject conditioning when the failed-block covariance has 2-norm
# condition number above 1/RCOND_MIN.
RCOND_MIN = 1e-12

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()

# Branch tags by the codes _var_risk_array returns.
_BRANCHES = ("zero", "finite", "infinite")


def _check_query(d: float, c: float | None = None) -> None:
    """Entry check of the public risk routines: target gap d > 0 and,
    when given, offset c >= 1. Each routine checks epsilon by calling
    iota before any other work."""
    if d <= 0.0 or not math.isfinite(d):
        raise InvalidParameterError(f"target gap d={d!r} must be positive")
    if c is not None and not (math.isfinite(c) and c >= 1.0):
        raise InvalidQueryError(f"offset c={c!r} must be >= 1")


def _pair_index(i) -> int:
    """i as a pair index: an integer or an integral float, not a bool."""
    index = _integer(i)
    if index is None:
        raise InvalidQueryError(f"pair index {i!r} is not an integer")
    return index


@dataclass(frozen=True)
class FailureScenario:
    """Failed pairs (1-based, strictly increasing) and their observed
    distances. Empty scenario means no prior failures."""

    indices: tuple
    states: tuple

    def __post_init__(self):
        idx = tuple(map(_pair_index, self.indices))
        if any(isinstance(s, (bool, np.bool_)) for s in self.states):
            raise InvalidQueryError(
                f"observed states must be numbers, not bools, got {self.states}")
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


class _Conditioned(NamedTuple):
    """Gaussian conditioning of every pair on each scenario of a stack.

    Arrays are (P, dim): the conditional means and variances, the pairs
    each scenario has already lost, and the surviving pairs that have a
    conditional law (the scenario is accepted and the variance is
    positive). `errors` holds per scenario None, or why it cannot be
    conditioned on.
    """

    mu: np.ndarray
    var: np.ndarray
    failed: np.ndarray
    usable: np.ndarray
    errors: list


def _factor_blocks(blocks: np.ndarray):
    """Cholesky factors of a (P, m, m) stack of failed blocks, and per
    block None or why it is refused. A refused block gets the identity
    as its factor, so the stack still solves as one."""
    try:
        chol = np.linalg.cholesky(blocks)
        errors = [None] * len(blocks)
    except np.linalg.LinAlgError:
        # Some block is not positive definite: find which, one by one.
        chol = np.empty_like(blocks)
        errors = []
        for p, block in enumerate(blocks):
            try:
                chol[p] = np.linalg.cholesky(block)
                errors.append(None)
            except np.linalg.LinAlgError as exc:
                chol[p] = np.eye(len(block))
                errors.append(
                    f"failed-block covariance is not positive definite: {exc}")
    cond = np.linalg.cond(blocks)
    for p in np.flatnonzero(~(cond <= 1.0 / RCOND_MIN)):  # nan too
        if errors[p] is None:
            chol[p] = np.eye(blocks.shape[1])
            errors[p] = (f"failed-block covariance condition number "
                         f"{cond[p]:.3g} exceeds {1.0 / RCOND_MIN:.0e}")
    return chol, errors


def _condition_stack(values: np.ndarray, idx: np.ndarray,
                     states: np.ndarray, d: float) -> _Conditioned:
    """Condition on P scenarios of m failed pairs each: idx holds the
    (P, m) 0-based failed pairs, states their observed distances.

    Each failed block L L^T is factored once, and one solve of L against
    the whole cross-covariance and the deviations from d gives every
    pair's moments: with W = L^-1 S21 and z = L^-1 (states - d), the
    mean is d + W^T z and the variance s11 - |W|^2 column by column.
    A pair uncorrelated with every failure gets a zero column, so its
    moments stay exactly (d, s11). A conditional variance <= 0 is left
    for the caller to report; a non-finite moment raises.
    """
    n_scen, m = idx.shape
    dim = values.shape[0]
    failed = np.zeros((n_scen, dim), dtype=bool)
    np.put_along_axis(failed, idx, True, axis=1)
    shift = np.zeros((n_scen, dim))
    reduction = np.zeros((n_scen, dim))
    errors = [None] * n_scen
    if m:
        blocks = values[idx[:, :, None], idx[:, None, :]]
        chol, errors = _factor_blocks(blocks)
        rhs = np.concatenate((values[idx], (states - d)[:, :, None]), axis=2)
        solved = np.linalg.solve(chol, rhs)
        cross, dev = solved[:, :, :dim], solved[:, :, dim:]
        # Summed failure by failure, so a scenario's moments do not
        # depend on the other scenarios of its stack. Overflow is
        # caught by the finiteness check below.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(m):
                shift += cross[:, k] * dev[:, k]
                reduction += cross[:, k] * cross[:, k]
    mu = d + shift
    var = np.diagonal(values) - reduction
    usable = ~failed & ~(var <= 0.0)  # a nan variance stays, and raises
    usable[[e is not None for e in errors]] = False
    if not (np.isfinite(mu[usable]).all() and np.isfinite(var[usable]).all()):
        raise NumericalError("conditional moments overflowed: "
                             "observed states too far from the target gap")
    return _Conditioned(mu, var, failed, usable, errors)


def _condition_scenario(sigma: CovarianceMatrix, scenario: FailureScenario,
                        d: float) -> _Conditioned:
    """_condition_stack for one scenario, after its range check."""
    if scenario.m and scenario.indices[-1] > sigma.dim:
        raise InvalidQueryError(
            f"failed pair {scenario.indices[-1]} outside 1..{sigma.dim}")
    idx = np.array([scenario.indices], dtype=int) - 1
    states = np.array([scenario.states], dtype=float)
    return _condition_stack(sigma.values, idx, states, d)


def _entry_error(cnd: _Conditioned, j: int) -> str | None:
    """Why pair j (1-based) of a one-scenario stack has no conditional
    law."""
    if cnd.errors[0] is not None:
        return cnd.errors[0]
    var = cnd.var[0, j - 1]
    if var <= 0.0:
        return f"conditional variance {var:.3g} for pair {j} is not positive"
    return None


def condition(sigma: CovarianceMatrix, d: float, j: int,
              scenario: FailureScenario) -> ConditionalDistribution:
    """Gaussian conditional law of pair j's distance given the observed
    distances of the failed pairs."""
    _check_query(d)
    if not 1 <= j <= sigma.dim:
        raise InvalidQueryError(f"pair index {j} outside 1..{sigma.dim}")
    if j in scenario:
        raise InvalidQueryError(f"queried pair {j} is already failed")
    cnd = _condition_scenario(sigma, scenario, d)
    error = _entry_error(cnd, j)
    if error is not None:
        raise IllConditionedScenarioError(error)
    return ConditionalDistribution(float(cnd.mu[0, j - 1]),
                                   math.sqrt(cnd.var[0, j - 1]))


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
    value, branch = _var_risk_array(np.array([cond.mu_tilde]),
                                    np.array([cond.sigma_tilde]), d, c,
                                    iota(epsilon))
    return RiskResult(value.item(), _BRANCHES[branch.item()])


def _var_risk_array(mu: np.ndarray, sig: np.ndarray, d: float, c: float,
                    it: float):
    """Three-branch value-at-risk over arrays of conditional moments mu
    and standard deviations sig, with it = iota(epsilon), on checked
    inputs. Returns the values and the branch codes (indices into
    _BRANCHES).

    The branch tests are read off the same two numbers the finite value
    is made of, so a point within rounding of a branch edge cannot land
    in the finite branch with a zero denominator or a value <= 0:
    infinite iff sqrt(2) it sig + mu <= 0 (P{X < 0} >= epsilon), zero
    iff d / (sqrt(2) it sig + mu) <= c (P{X < d/c} <= epsilon).
    """
    den = _SQRT2 * it * sig + mu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        risk = d / den - c
    infinite = den <= 0.0
    zero = ~infinite & (risk <= 0.0)
    branch = np.where(infinite, 2, np.where(zero, 0, 1))
    value = np.where(infinite, math.inf, np.where(zero, 0.0, risk))
    overflowed = (branch == 1) & ~np.isfinite(value)
    if overflowed.any():
        raise InvalidParameterError(
            f"risk value {value[overflowed][0]!r} inconsistent with branch "
            f"'finite'")
    return value, branch


def _naive_column(stds, d: float, c: float, it: float) -> list:
    """No-failure risk for a column of marginal standard deviations (the
    marginal law N(d, std) of each pair), on checked inputs with
    it = iota(epsilon)."""
    stds = np.asarray(stds, dtype=float)
    return _var_risk_array(np.full(stds.shape, d), stds, d, c, it)[0].tolist()


def _stack_risk(cnd: _Conditioned, d: float, c: float, it: float):
    """Risk of every pair of a conditioned stack: values and branch
    codes, both (P, dim). Failed pairs are zero risk; a pair without a
    conditional law has code -1 and value nan."""
    usable = cnd.usable
    value = np.where(cnd.failed, 0.0, math.nan)
    branch = np.where(cnd.failed, 0, -1)
    value[usable], branch[usable] = _var_risk_array(
        cnd.mu[usable], np.sqrt(cnd.var[usable]), d, c, it)
    return value, branch


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
    cnd = _condition_scenario(sigma, scenario, d)
    value, branch = _stack_risk(cnd, d, c, it)
    mus, variances = cnd.mu[0].tolist(), cnd.var[0].tolist()
    entries = []
    for j, (v, b) in enumerate(zip(value[0].tolist(), branch[0].tolist()),
                               start=1):
        if cnd.failed[0, j - 1]:
            entries.append(ProfileEntry(j, True, RiskResult(0.0, "zero"),
                                        None, None))
        elif b < 0:
            entries.append(ProfileEntry(j, False, None, None, None,
                                        _entry_error(cnd, j)))
        else:
            entries.append(ProfileEntry(j, False, RiskResult(v, _BRANCHES[b]),
                                        mus[j - 1],
                                        math.sqrt(variances[j - 1])))
    return entries
