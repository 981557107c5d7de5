"""Row producers behind the CLI subcommands.

Each function returns plain row tuples (ints, floats, None for empty
cells, strings for tags) ready for CSV serialization, so the sweep
policies (aggregation of infinities, pattern enumeration, sampling
fallback) live here and are unit-testable without going through the
command line. Every risk cell is read off the conditioning core,
`risk._condition_stack` (or `risk._condition_head` for the nested
levels of sweep-scale) and `risk._stack_risk`, directly or through a
profile; the no-failure baseline is the empty scenario. Rows come as a
list, except where a table is large: `covariance_rows` returns its
(n-1)^2 lines already rendered, as the CSV body text that
`cli.render_csv` takes in place of row tuples.
"""
from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .covariance import (CovarianceMatrix, NoiseParams,
                         steady_state_covariance)
from .errors import (IllConditionedScenarioError, InvalidParameterError,
                     InvalidQueryError, NumericalError, UnstablePlatoonError)
from .graph import (WeightedGraph, _integer, _laplacian, _real, _seed,
                    laplacian, spectrum)
from .risk import (FailureScenario, _check_query, _condition_head,
                   _condition_scenario, _condition_stack, _entry_error,
                   _stack_risk)
from .simulate import EmpiricalCovariance
from .stability import StabilityReport


def stability_rows(report: StabilityReport):
    """(mode index, eigenvalue, s1, s2, bound, margin) per oscillatory
    mode; the bound is NaN when s1 already falls outside (0, pi/2)."""
    rows = list(zip(itertools.count(2), report.eigenvalues.tolist(),
                    report.s1.tolist(), itertools.repeat(report.s2),
                    report.bound.tolist(), report.margin.tolist()))
    return rows, [f"stable={1 if report.stable else 0}"]


def covariance_rows(sigma: CovarianceMatrix) -> str:
    """The covariance CSV body: one `i,j,sigma_ij` line per entry, row by
    row, each ending in a newline, with sigma_ij as `%.17g`.

    Sigma is symmetric, so each upper-triangle entry is formatted once
    and row i reads its lower cells from the rows above it. A lower
    entry whose bits differ from its mirror's (a hand-built matrix is
    symmetric only to 1e-12, and may hold -0.0 against 0.0) is formatted
    from its own value."""
    fmt = "%.17g".__mod__
    values = sigma.values
    upper = [list(map(fmt, row[i:].tolist())) for i, row in enumerate(values)]
    lower = [[upper[j][i - j] for j in range(i)] for i in range(sigma.dim)]
    bits = values.view(np.int64)
    for i, j in np.argwhere(np.tril(bits != bits.T, -1)).tolist():
        lower[i][j] = fmt(values[i, j].item())
    columns = [f",{j}," for j in range(1, sigma.dim + 1)]
    chunks = []
    for i, cells in enumerate(map(operator.add, lower, upper), start=1):
        # "i" + ",j," + cell per line: the row number opens the chunk and
        # follows each newline inside it
        label = str(i)
        chunks.append(label + ("\n" + label).join(
            map(operator.add, columns, cells)) + "\n")
    # free the cells before the join copies every chunk once more
    del upper, lower
    return "".join(chunks)


def profile_rows(entries, baseline):
    """Profile entries plus the no-failure column: the risks of
    `baseline`, the profile of the empty scenario by the same route."""
    rows = []
    for entry, naive in zip(entries, (e.risk.value for e in baseline)):
        if entry.error is not None:
            rows.append((entry.j, None, "error", None, None, 0, naive))
            continue
        rows.append((entry.j, entry.risk.value, entry.risk.branch,
                     entry.mu_tilde, entry.sigma_tilde,
                     1 if entry.failed else 0, naive))
    return rows


def _check_sweep(sigma: CovarianceMatrix, name: str, count, state_value,
                 d: float, c: float, epsilon: float):
    """Entry check of the sweeps: `count` failures, an integer in
    1..dim-1, each observed at one state, and the query. Returns the
    count, the state, d, c and iota(epsilon)."""
    count = _integer(count, name, InvalidQueryError)
    if not 1 <= count <= sigma.dim - 1:
        raise InvalidQueryError(
            f"{name}={count} must lie in 1..{sigma.dim - 1}")
    state = _real(state_value, "observed state", InvalidQueryError)
    return (count, state, *_check_query(d, c, epsilon))


def sweep_scale_rows(sigma: CovarianceMatrix, d: float, c: float,
                     epsilon: float, max_m: int, state_value: float):
    """Failures {1..m} at the head of the platoon for m = 0..max_m;
    m = 0 is the no-failure baseline. Every level is read off one
    factor of the max_m head block (risk._condition_head)."""
    max_m, state, d, c, it = _check_sweep(sigma, "max_m", max_m,
                                          state_value, d, c, epsilon)
    value, branch = _stack_risk(
        _condition_head(sigma.values, max_m, state, d), d, c, it)
    return [(m, j, v if b >= 0 else None)
            for m, (values, branches) in enumerate(zip(value.tolist(),
                                                       branch.tolist()))
            for j, v, b in zip(itertools.count(1), values, branches)]


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
    the result. enum_cap and sample_count are integers >= 1, and seed
    an integer in 0 .. 2**64 - 1.
    """
    m, state, d, c, it = _check_sweep(sigma, "m", m, state_value,
                                      d, c, epsilon)
    seed = _seed(seed, InvalidQueryError)
    enum_cap = _integer(enum_cap, "enum_cap", InvalidQueryError)
    sample_count = _integer(sample_count, "sample_count", InvalidQueryError)
    if enum_cap < 1 or sample_count < 1:
        raise InvalidQueryError(f"enum_cap={enum_cap} and sample_count="
                                f"{sample_count} must both be >= 1")
    n_pairs = sigma.dim
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
                np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
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
                                   np.full(idx.shape, state), d)
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


def add_edge_rows(graph: WeightedGraph, d: float, noise: NoiseParams,
                  epsilon: float, c: float, scenario: FailureScenario,
                  j: int):
    """Risk of pair j, at target gap d, when both of its vehicles gain a
    unit-weight link to each candidate target vehicle; an existing link
    is set to weight 1. Row target=0 is the unmodified baseline. A
    destabilizing target gets an empty risk with stable = 0, a candidate
    on which the scenario cannot be conditioned an empty risk with
    stable = 1."""
    d, c, it = _check_query(d, c, epsilon)
    j = _integer(j, "pair index", InvalidQueryError)
    if not 1 <= j <= graph.n - 1:
        raise InvalidQueryError(f"pair index {j} outside 1..{graph.n - 1}")
    if j in scenario:
        raise InvalidQueryError(f"queried pair {j} is already failed")

    def pair_risk(sigma: CovarianceMatrix) -> float:
        cnd = _condition_scenario(sigma, scenario, d)
        value, branch = _stack_risk(cnd, d, c, it)
        if branch[0, j - 1] < 0:
            raise IllConditionedScenarioError(_entry_error(cnd, j))
        return value[0, j - 1].item()

    base = steady_state_covariance(spectrum(laplacian(graph)), noise)
    rows = [(0, pair_risk(base), 1)]
    for target in range(1, graph.n + 1):
        if target in (j, j + 1):
            continue
        # links added to a connected graph keep it connected: the copy
        # needs no second check
        w = np.array(graph.weights)
        w[[j - 1, j], target - 1] = 1.0
        w[target - 1, [j - 1, j]] = 1.0
        try:
            sigma = steady_state_covariance(spectrum(_laplacian(w)), noise)
            value = pair_risk(sigma)
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
