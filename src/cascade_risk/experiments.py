"""Row producers behind the CLI subcommands.

Each function returns plain row tuples (ints, floats, None for empty
cells, strings for tags) ready for CSV serialization, so the sweep
policies (aggregation of infinities, pattern enumeration, sampling
fallback) live here and are unit-testable without going through the
command line. Rows come as a list, or as a lazy iterable where a table
is large (`covariance_rows`, n^2 rows): iterate it once.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .covariance import (CovarianceMatrix, NoiseParams, PlatoonParams,
                         steady_state_covariance)
from .errors import (InvalidParameterError, InvalidQueryError,
                     NumericalError, UnstablePlatoonError)
from .graph import WeightedGraph, add_pair_edges, laplacian, spectrum
from .risk import (FailureScenario, _check_query, _condition_scenario,
                   _condition_stack, _naive_column, _stack_risk, condition,
                   iota, var_risk)
from .simulate import EmpiricalCovariance
from .stability import StabilityReport


def stability_rows(report: StabilityReport):
    """(mode index, eigenvalue, s1, s2, bound, margin) per oscillatory
    mode; the bound is NaN when s1 already falls outside (0, pi/2)."""
    rows = list(zip(itertools.count(2), report.eigenvalues.tolist(),
                    report.s1.tolist(), itertools.repeat(report.s2),
                    report.bound.tolist(), report.margin.tolist()))
    return rows, [f"stable={1 if report.stable else 0}"]


def covariance_rows(sigma: CovarianceMatrix):
    """(i, j, sigma_ij) for every entry, row by row, produced lazily."""
    for i, row in enumerate(sigma.values.tolist(), start=1):
        yield from zip(itertools.repeat(i), itertools.count(1), row)


def profile_rows(entries, marginal_stds, d: float, c: float, epsilon: float):
    """Profile entries plus the per-pair no-failure baseline column."""
    _check_query(d, c)
    naive_column = _naive_column(marginal_stds, d, c, iota(epsilon))
    rows = []
    for entry, naive in zip(entries, naive_column):
        if entry.error is not None:
            rows.append((entry.j, None, "error", None, None, 0, naive))
            continue
        rows.append((entry.j, entry.risk.value, entry.risk.branch,
                     entry.mu_tilde, entry.sigma_tilde,
                     1 if entry.failed else 0, naive))
    return rows


def sweep_scale_rows(sigma: CovarianceMatrix, d: float, c: float,
                     epsilon: float, max_m: int, state_value: float):
    """Failures {1..m} at the head of the platoon for m = 0..max_m;
    m = 0 is the no-failure baseline."""
    if not 1 <= max_m <= sigma.dim - 1:
        raise InvalidQueryError(
            f"max_m={max_m} must lie in 1..{sigma.dim - 1}")
    _check_query(d, c)
    it = iota(epsilon)
    stds = np.sqrt(np.diagonal(sigma.values))
    rows = [(0, j, value) for j, value in
            enumerate(_naive_column(stds, d, c, it), start=1)]
    for m in range(1, max_m + 1):
        scenario = FailureScenario(tuple(range(1, m + 1)),
                                   (state_value,) * m)
        value, branch = _stack_risk(_condition_scenario(sigma, scenario, d),
                                    d, c, it)
        for j, (v, b) in enumerate(zip(value[0].tolist(),
                                       branch[0].tolist()), start=1):
            rows.append((m, j, v if b >= 0 else None))
    return rows


# Patterns conditioned together in one stack by sweep_sparsity_rows.
_STACK_CHUNK = 256


def _pattern_count(m: int, s: int) -> int:
    """Patterns of m failures with s interior gaps: both span ends are
    fixed failures, the remaining m-2 distribute over the s+m-2
    interior slots."""
    if m == 1:
        return 1 if s == 0 else 0
    return math.comb(s + m - 2, m - 2)


def _iter_patterns(m: int, s: int):
    """Every pattern of m failures with s interior gaps, as the failed
    offsets within its span; both span ends are failures."""
    if m == 1:
        yield (0,)
        return
    for interior in itertools.combinations(range(1, m + s - 1), m - 2):
        yield (0, *interior, m + s - 1)


def _sample_pattern(rng, m: int, s: int) -> tuple:
    """A uniformly drawn pattern of _iter_patterns."""
    if m == 1:
        return (0,)
    interior = (rng.choice(m + s - 2, size=m - 2, replace=False)
                if m > 2 else [])
    return (0, *sorted(int(p) + 1 for p in interior), m + s - 1)


def sweep_sparsity_rows(sigma: CovarianceMatrix, d: float, c: float,
                        epsilon: float, m: int, state_value: float,
                        seed: int, enum_cap: int = 100_000,
                        sample_count: int = 10_000):
    """Average profile risk by sparsity level for m failures.

    A level is enumerated exactly when its pattern-placement count fits
    under enum_cap, otherwise sample_count placements are drawn
    uniformly (with replacement) from a per-level substream of seed.
    A pattern's risk is infinite as soon as any surviving pair is at
    infinite risk, else the mean over its surviving pairs; pairs whose
    conditioning fails are left out, and a pattern with none left is
    skipped and not counted. avg_risk averages the finite patterns; the
    infinite fraction is reported separately. Patterns are conditioned
    in stacks of _STACK_CHUNK, which bounds memory and does not change
    the result.
    """
    n_pairs = sigma.dim
    if not 1 <= m <= n_pairs - 1:
        raise InvalidQueryError(f"m={m} must lie in 1..{n_pairs - 1}")
    if not math.isfinite(state_value):
        raise InvalidQueryError(
            f"observed state {state_value!r} must be finite")
    _check_query(d, c)
    it = iota(epsilon)
    rows = []
    for s in range(0, n_pairs - m + 1):
        span = m + s
        placements = n_pairs - span + 1
        total = _pattern_count(m, s) * placements
        if total == 0:
            continue
        exact = total <= enum_cap
        if exact:
            cases = ((pat, off) for pat in _iter_patterns(m, s)
                     for off in range(placements))
            n_eval = total
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=int(seed), spawn_key=(s,)))
            cases = ((_sample_pattern(rng, m, s),
                      int(rng.integers(0, placements)))
                     for _ in range(sample_count))
            n_eval = sample_count
        finite_sum = 0.0
        finite_count = 0
        inf_count = 0
        skipped = 0
        while chunk := list(itertools.islice(cases, _STACK_CHUNK)):
            idx = np.array([[offset + k for k in pattern]
                            for pattern, offset in chunk])
            cnd = _condition_stack(sigma.values, idx,
                                   np.full(idx.shape, float(state_value)), d)
            value, branch = _stack_risk(cnd, d, c, it)
            # Summed pair by pair in order, as a pattern's own loop would.
            pattern_sum = np.zeros(len(chunk))
            for column in np.where(cnd.usable, value, 0.0).T:
                pattern_sum += column
            for used, infinite, total_risk in zip(
                    cnd.usable.sum(axis=1).tolist(),
                    (branch == 2).any(axis=1).tolist(),
                    pattern_sum.tolist()):
                if used == 0:
                    skipped += 1
                elif infinite:
                    inf_count += 1
                else:
                    finite_sum += total_risk / used
                    finite_count += 1
        counted = n_eval - skipped
        if counted == 0:
            continue
        avg = finite_sum / finite_count if finite_count else math.inf
        rows.append((s, avg, inf_count / counted, counted,
                     1 if exact else 0))
    return rows


def add_edge_rows(graph: WeightedGraph, platoon: PlatoonParams,
                  noise: NoiseParams, epsilon: float, c: float,
                  scenario: FailureScenario, j: int):
    """Risk of pair j when both of its vehicles gain a unit-weight link
    to each candidate target vehicle. Row target=0 is the unmodified
    baseline; rows for destabilizing targets carry an empty risk."""
    base_sigma = steady_state_covariance(spectrum(laplacian(graph)), noise)
    base = var_risk(condition(base_sigma, platoon.d, j, scenario),
                    platoon.d, c, epsilon)
    rows = [(0, base.value, 1)]
    for target in range(1, graph.n + 1):
        if target in (j, j + 1):
            continue
        augmented = add_pair_edges(graph, j, target)
        try:
            sig = steady_state_covariance(spectrum(laplacian(augmented)),
                                          noise)
            value = var_risk(condition(sig, platoon.d, j, scenario),
                             platoon.d, c, epsilon).value
        except UnstablePlatoonError:
            rows.append((target, None, 0))
            continue
        except NumericalError:
            value = None
        rows.append((target, value, 1))
    return rows


def simulate_rows(analytic: CovarianceMatrix, empirical: EmpiricalCovariance):
    """Upper-triangle comparison of analytic vs empirical covariance with
    the per-entry z-score (difference over standard error)."""
    if analytic.dim != empirical.cov.shape[0]:
        raise InvalidParameterError(
            f"analytic dimension {analytic.dim} does not match empirical "
            f"{empirical.cov.shape[0]}")
    rows = []
    max_abs_z = 0.0
    for i in range(analytic.dim):
        for j in range(i, analytic.dim):
            sa = float(analytic.values[i, j])
            se_ = float(empirical.cov[i, j])
            err = float(empirical.standard_errors[i, j])
            if err > 0.0:
                z = (se_ - sa) / err
            else:
                z = 0.0 if se_ == sa else math.inf
            max_abs_z = max(max_abs_z, abs(z))
            rows.append((i + 1, j + 1, sa, se_, err, z))
    return rows, [f"max_abs_z={max_abs_z:.17g}"]
