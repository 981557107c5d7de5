"""Complete-graph shortcut for the whole-platoon risk profile.

On the unit-weight complete graph the distance covariance is
tridiagonal, sigma_c on the diagonal and -sigma_c/2 beside it. A
maximal run of m consecutive failed pairs a..b then has the block
sigma_c/2 K_m, K_m = tridiag(-1, 2, -1), and meets the rest of the
platoon only through the survivors a-1 and b+1, each with covariance
-sigma_c/2 against the run's end pair. Conditioning on the run shifts
survivor b+1 by -sum_i i/(m+1) (x_i - d) and survivor a-1 by the same
sum with the weights reversed, the end rows of K_m^-1, and removes
sigma_c/2 * m/(m+1) of variance from each. sigma_c cancels from the
shift, so the profile forms no matrix and nothing underflows.

Two runs are uncorrelated, so a survivor between two runs adds both
contributions, and a failure two or more pairs away drops out. Tests
pin equality with the generic conditioning route.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidQueryError
from .graph import _real, _vehicle_count, _zeros
from .risk import FailureScenario, _check_query, _conditioned, _profile


def _run_weights(m: int) -> np.ndarray:
    """i/(m+1) for i = 1..m: the weights a run of m failures puts on the
    survivor after it (reversed, on the survivor before it)."""
    return np.arange(1, m + 1) / (m + 1.0)


def complete_profile(n: int, scenario: FailureScenario, sigma_c: float,
                     d: float, c: float, epsilon: float) -> np.recarray:
    """Whole-platoon risk profile on the complete graph, the record
    array of risk.risk_profile. Each reduction stays below
    sigma_c/2, so every conditional variance is positive."""
    d, c, it = _check_query(d, c, epsilon)
    sigma_c = _real(sigma_c, "sigma_c", positive=True)
    n = _vehicle_count(n)
    if scenario.m and scenario.indices[-1] > n - 1:
        raise InvalidQueryError(
            f"failed pair {scenario.indices[-1]} outside 1..{n - 1}")
    # Pairs 0..n: pairs 0 and n stand in for the survivors beyond the
    # platoon's ends and are dropped at the end.
    idx = np.array(scenario.indices, dtype=int)
    dev = np.array(scenario.states) - d
    failed = _zeros(n, n + 1, "a pair array", bool)
    failed[idx] = True
    shift, reduction = _zeros(n, (2, n + 1), "a pair array")
    starts = np.flatnonzero(np.diff(idx, prepend=-1) != 1)
    # Overflow is caught by the finiteness check of _conditioned.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(starts, np.append(starts[1:], len(idx))):
            w = _run_weights(hi - lo)
            shift[idx[lo] - 1] -= w[::-1] @ dev[lo:hi]
            shift[idx[hi - 1] + 1] -= w @ dev[lo:hi]
            reduction[[idx[lo] - 1, idx[hi - 1] + 1]] += 0.5 * sigma_c * w[-1]
    cnd = _conditioned((d + shift)[None, 1:n],
                       (sigma_c - reduction)[None, 1:n], failed[None, 1:n],
                       [None])
    return _profile(cnd, d, c, it)
