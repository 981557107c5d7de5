"""Collision value-at-risk of every pair given earlier failures.

Distances are jointly Gaussian in steady state, so conditioning on the
observed distances of failed pairs is a Schur complement. One core
conditions a stack of scenarios at once (`_condition_stack`), and one
array routine turns the conditional moments into the three-branch
value-at-risk of each pair (`_stack_risk`): zero risk when the pair is
safe even unscaled, infinite risk when no finite scaling saves it, and
otherwise an explicit formula in the conditional moments. Profiles,
sweep-sparsity and add-edge all read their risks off this core; the
no-failure baseline is the profile of the empty scenario. sweep-scale's
nested scenarios, failures {1..m} for every m, are read off one factor
of their largest failed block (`_condition_head`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import CovarianceMatrix
from .errors import InvalidQueryError, NumericalError
from .graph import _integer, _real

# Reject conditioning when the failed-block covariance has 2-norm
# condition number above 1/RCOND_MIN.
RCOND_MIN = 1e-12

_SQRT2 = math.sqrt(2.0)


def _check_query(d, c, epsilon):
    """Entry check of the public risk routines, before any other work:
    target gap d > 0, offset c >= 1 and epsilon in (0, 1). Returns d and
    c as floats and iota(epsilon)."""
    return _real(d, "target gap d", positive=True), _offset(c), iota(epsilon)


def _offset(c) -> float:
    """The query offset c as a float, a real number >= 1."""
    c = _real(c, "offset c", InvalidQueryError)
    if c < 1.0:
        raise InvalidQueryError(f"offset c={c!r} must be >= 1")
    return c


def _epsilon(epsilon) -> float:
    """The risk level epsilon as a float, a real number inside (0, 1)."""
    epsilon = _real(epsilon, "epsilon", InvalidQueryError)
    if not 0.0 < epsilon < 1.0:
        raise InvalidQueryError(
            f"epsilon={epsilon!r} must lie strictly inside (0, 1)")
    return epsilon


@dataclass(frozen=True)
class FailureScenario:
    """Failed pairs (1-based, strictly increasing) and their observed
    distances. Empty scenario means no prior failures."""

    indices: tuple
    states: tuple

    def __post_init__(self):
        idx = tuple(_integer(i, "pair index", InvalidQueryError)
                    for i in self.indices)
        st = tuple(_real(s, "observed state", InvalidQueryError)
                   for s in self.states)
        if len(idx) != len(st):
            raise InvalidQueryError(
                f"{len(idx)} failed pairs but {len(st)} observed states")
        if any(i < 1 for i in idx):
            raise InvalidQueryError(f"pair indices must be >= 1, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidQueryError(
                f"pair indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "states", st)

    @property
    def m(self) -> int:
        return len(self.indices)

    def __contains__(self, j: int) -> bool:
        return j in self.indices


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
    block None or why it is refused. A block is refused when its 2-norm
    condition number, the ratio of its extreme eigenvalues, exceeds
    1/RCOND_MIN; it is inf unless the smallest eigenvalue is positive.
    A refused block gets the identity as its factor, so the stack still
    factors and solves as one."""
    eig = np.linalg.eigvalsh(blocks)
    cond = np.full(len(blocks), math.inf)
    np.divide(eig[:, -1], eig[:, 0], out=cond, where=eig[:, 0] > 0.0)
    refused = ~(cond <= 1.0 / RCOND_MIN)  # nan too
    gated = np.where(refused[:, None, None], np.eye(blocks.shape[1]), blocks)
    errors = [None] * len(blocks)
    for p in np.flatnonzero(refused).tolist():
        errors[p] = (f"failed-block covariance condition number "
                     f"{cond[p]:.3g} exceeds {1.0 / RCOND_MIN:.0e}")
    return np.linalg.cholesky(gated), errors


def _forward(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs by forward substitution, for a (P, m, m) stack of lower
    triangular factors L and (P, m, r) right-hand sides: row k is
    (rhs_k - L[k, :k] x[:k]) / L[k, k]. Overflow is left to the
    finiteness check of _conditioned."""
    x = np.empty(rhs.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(rhs.shape[1]):
            x[:, k] = ((rhs[:, k] - (chol[:, k, None, :k] @ x[:, :k])[:, 0])
                       / chol[:, k, k, None])
    return x


def _condition_stack(values: np.ndarray, idx: np.ndarray,
                     states: np.ndarray, d: float) -> _Conditioned:
    """Condition on P scenarios of m failed pairs each: idx holds the
    (P, m) 0-based failed pairs, states their observed distances.

    Each failed block L L^T is factored once, and one solve of L against
    the whole cross-covariance and the deviations from d gives every
    pair's moments: with W = L^-1 S21 and z = L^-1 (states - d), the
    mean is d + W^T z and the variance s11 - |W|^2 column by column.
    A pair uncorrelated with every failure gets a zero column, so its
    moments stay exactly (d, s11).
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
        solved = _forward(chol, rhs)
        cross, dev = solved[:, :, :dim], solved[:, :, dim:]
        # Summed failure by failure, so a scenario's moments do not
        # depend on the other scenarios of its stack. Overflow is
        # caught by the finiteness check of _conditioned.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(m):
                shift += cross[:, k] * dev[:, k]
                reduction += cross[:, k] * cross[:, k]
    return _conditioned(d + shift, np.diagonal(values) - reduction, failed,
                        errors)


def _condition_head(values: np.ndarray, max_m: int, state: float,
                    d: float) -> _Conditioned:
    """_condition_stack of the nested scenarios "pairs 1..m failed, each
    observed at `state`" for m = 0..max_m, from one factor and one solve.

    A leading block's Cholesky factor is the leading block of the whole
    factor, and row k of _forward reads only the rows before it, so the
    first m rows of the one solve are level m's solve. Level m's shift
    and reduction are then the first m terms of _condition_stack's
    sums, taken here by a running sum in the same order. Refusals nest
    too: a leading block's eigenvalues lie between the extreme ones of
    every larger leading block (Cauchy interlacing), so its condition
    number, which alone decides a refusal, does not decrease with m.
    So when the whole head block is refused, a bisection finds the
    first refused level, and it and every level after it get its
    error; the levels before it use the factor of the last accepted
    block.
    """
    dim = values.shape[0]
    (chol,), (error,) = _factor_blocks(values[None, :max_m, :max_m])
    good, bad = max_m, max_m + 1
    if error is not None:
        good, bad, chol = 0, max_m, chol[:0, :0]
        while bad - good > 1:
            mid = (good + bad) // 2
            (mid_chol,), (mid_error,) = _factor_blocks(
                values[None, :mid, :mid])
            if mid_error is None:
                good, chol = mid, mid_chol
            else:
                bad, error = mid, mid_error
    rhs = np.concatenate((values[:good], np.full((good, 1), state - d)),
                         axis=1)
    (solved,) = _forward(chol[None], rhs[None])
    cross, dev = solved[:, :dim], solved[:, dim:]
    shift = np.zeros((max_m + 1, dim))
    reduction = np.zeros((max_m + 1, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(cross * dev, axis=0, out=shift[1:good + 1])
        np.cumsum(cross * cross, axis=0, out=reduction[1:good + 1])
    failed = np.arange(dim) < np.arange(max_m + 1)[:, None]
    return _conditioned(d + shift, np.diagonal(values) - reduction, failed,
                        [None] * bad + [error] * (max_m + 1 - bad))


def _conditioned(mu: np.ndarray, var: np.ndarray, failed: np.ndarray,
                 errors: list) -> _Conditioned:
    """_Conditioned from the moments of a stack: marks the usable pairs
    and raises if any of their moments is not finite. A conditional
    variance <= 0 is left for the caller to report."""
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


def _entry_error(cnd: _Conditioned, j: int) -> str:
    """Why pair j (1-based) of a one-scenario stack, a survivor that is
    not usable, has no conditional law."""
    return cnd.errors[0] or (f"conditional variance {cnd.var[0, j - 1]:.3g} "
                             f"for pair {j} is not positive")


def iota(epsilon: float) -> float:
    """Inverse error function at 2*epsilon - 1, computed as the standard
    normal quantile of epsilon over sqrt(2): forming 2*epsilon - 1 would
    cancel for small epsilon and round to -1 (iota = -inf) near 1e-17."""
    # imported where the quantile is taken: statistics loads fractions
    # and decimal, which stability and covariance never call
    from statistics import NormalDist
    return NormalDist().inv_cdf(_epsilon(epsilon)) / _SQRT2


def _var_risk_array(mu: np.ndarray, sig: np.ndarray, d: float, c: float,
                    it: float) -> np.ndarray:
    """Three-branch value-at-risk over arrays of conditional moments mu
    and standard deviations sig, with it = iota(epsilon), on checked
    inputs. The value names its branch: 0.0 is zero, inf infinite, and
    a finite-branch value lies strictly between. A finite-branch value
    that overflows (d over an epsilon-quantile too close to 0) raises
    NumericalError.

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
    value = np.where(infinite, math.inf, np.where(risk <= 0.0, 0.0, risk))
    overflowed = ~infinite & ~np.isfinite(value)
    if overflowed.any():
        raise NumericalError("risk overflowed: a pair's epsilon-quantile "
                             "distance is too close to 0 for the target gap")
    return value


def _stack_risk(cnd: _Conditioned, d: float, c: float,
                it: float) -> np.ndarray:
    """Risk of every pair of a conditioned stack, (P, dim), each value
    naming its branch as in _var_risk_array. Failed pairs are zero
    risk; a pair without a conditional law is nan."""
    value = np.where(cnd.failed, 0.0, math.nan)
    value[cnd.usable] = _var_risk_array(
        cnd.mu[cnd.usable], np.sqrt(cnd.var[cnd.usable]), d, c, it)
    return value


def risk_profile(sigma: CovarianceMatrix, scenario: FailureScenario,
                 d: float, c: float, epsilon: float) -> np.recarray:
    """Risk of every pair 1..n-1 under one scenario (see _profile). A
    pair that cannot be conditioned gets branch "error" and its reason,
    and the rest of the profile still computes."""
    d, c, it = _check_query(d, c, epsilon)
    return _profile(_condition_scenario(sigma, scenario, d), d, c, it)


def _profile(cnd: _Conditioned, d: float, c: float,
             it: float) -> np.recarray:
    """The profile of a one-scenario stack, on checked inputs with
    it = iota(epsilon): one read-only record per pair with fields j,
    risk, branch, mu_tilde, sigma_tilde, failed and error. A cell
    without a value is nan: the moments of failed pairs, and risk and
    moments of a pair without a conditional law, whose branch is
    "error" and whose error holds why; error is None elsewhere."""
    value = _stack_risk(cnd, d, c, it)[0]
    usable = cnd.usable[0]
    mu = np.where(usable, cnd.mu[0], math.nan)
    sig = np.sqrt(np.where(usable, cnd.var[0], math.nan))
    # the tag each value names: nan is a pair without a conditional law
    branch = np.full(len(usable), "zero", dtype="<U8")
    branch[value > 0.0] = "finite"
    branch[np.isinf(value)] = "infinite"
    missing = np.isnan(value)
    branch[missing] = "error"
    error = np.full(len(usable), None, dtype=object)
    for j in np.flatnonzero(missing).tolist():
        error[j] = _entry_error(cnd, j + 1)
    profile = np.rec.fromarrays(
        (np.arange(1, len(usable) + 1), value, branch, mu, sig,
         cnd.failed[0], error),
        names=("j", "risk", "branch", "mu_tilde", "sigma_tilde", "failed",
               "error"))
    profile.setflags(write=False)
    return profile
