"""The three experiments: sweep-scale, sweep-sparsity and add-edge.

Each function hands numbers only, its own results: a list of row tuples
for sweep-sparsity and add-edge, and for sweep-scale the risk array,
which `cli` writes as CSV. The sweep policies (aggregation of
infinities, pattern enumeration, sampling fallback) live here and are
unit-testable without going through the command line. A missing value
is always nan. Every risk cell is read off the conditioning core,
`risk._condition_stack` (or `risk._condition_head` for the nested
levels of sweep-scale) and `risk._stack_risk`; add-edge's baseline is
the unmodified graph. They read the risk values alone: inf is infinite
risk, nan a missing one.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .covariance import (CovarianceMatrix, NoiseParams,
                         steady_state_covariance)
from .errors import InvalidQueryError, NumericalError, UnstablePlatoonError
from .graph import (WeightedGraph, _count, _integer, _laplacian, _real,
                    _seed, _spectrum, laplacian)
from .risk import (FailureScenario, _check_query, _condition_head,
                   _condition_scenario, _condition_stack, _entry_error,
                   _stack_risk)


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
    """Failures {1..m} at the head of the platoon for m = 0..max_m, as a
    (max_m + 1, dim) array: row m holds the risk of every pair j in
    column j - 1, with nan for an empty cell; m = 0 is the no-failure
    baseline. Every level is read off one factor of the max_m head block
    (risk._condition_head)."""
    max_m, state, d, c, it = _check_sweep(sigma, "max_m", max_m,
                                          state_value, d, c, epsilon)
    return _stack_risk(_condition_head(sigma.values, max_m, state, d),
                       d, c, it)


# Patterns conditioned together in one stack by sweep_sparsity_rows.
_STACK_CHUNK = 256

# sweep_sparsity_rows option -> the check of its value
_SWEEP_RULES = {
    "enum_cap": lambda n: _count(n, "enum_cap", 1, InvalidQueryError),
    "sample_count": lambda n: _count(n, "sample_count", 1,
                                     InvalidQueryError),
}


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
    enum_cap = _SWEEP_RULES["enum_cap"](enum_cap)
    sample_count = _SWEEP_RULES["sample_count"](sample_count)
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
            value = _stack_risk(cnd, d, c, it)
            used = cnd.usable.sum(axis=1)
            infinite = np.isinf(value).any(axis=1)
            finite = (used > 0) & ~infinite
            skipped += int((used == 0).sum())
            inf_count += int(infinite.sum())
            finite_count += int(finite.sum())
            # Summed pair by pair in order, as a pattern's own loop
            # would, then pattern by pattern.
            pattern_sum = np.zeros(len(chunk))
            for column in np.where(cnd.usable, value, 0.0).T:
                pattern_sum += column
            for mean in (pattern_sum[finite] / used[finite]).tolist():
                finite_sum += mean
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
    destabilizing target gets a nan risk with stable = 0, a candidate
    on which the scenario cannot be conditioned a nan risk with
    stable = 1."""
    d, c, it = _check_query(d, c, epsilon)
    j = _integer(j, "pair index", InvalidQueryError)
    if not 1 <= j <= graph.n - 1:
        raise InvalidQueryError(f"pair index {j} outside 1..{graph.n - 1}")
    if j in scenario:
        raise InvalidQueryError(f"queried pair {j} is already failed")

    def pair_risk(sigma: CovarianceMatrix) -> float:
        cnd = _condition_scenario(sigma, scenario, d)
        value = _stack_risk(cnd, d, c, it)[0, j - 1].item()
        if math.isnan(value):
            raise NumericalError(_entry_error(cnd, j))
        return value

    # Each Laplacian, spectrum and covariance is a temporary of one
    # expression: the Laplacian is freed once its spectrum exists and
    # the covariance once its pair risk is read, so each eigh runs
    # beside the graph and its own Laplacian alone.
    rows = [(0, pair_risk(steady_state_covariance(
        _spectrum(laplacian(graph)), noise)), 1)]
    for target in range(1, graph.n + 1):
        if target in (j, j + 1):
            continue
        try:
            value = pair_risk(steady_state_covariance(
                _spectrum(_linked_laplacian(graph, j, target)), noise))
        except UnstablePlatoonError:
            rows.append((target, math.nan, 0))
            continue
        except NumericalError:
            value = math.nan
        rows.append((target, value, 1))
    return rows


def _linked_laplacian(graph: WeightedGraph, j: int,
                      target: int) -> np.ndarray:
    """The Laplacian of graph with unit links from both vehicles of pair
    j to vehicle target. Links added to a connected graph keep it
    connected, so the weight copy and its Laplacian need no second
    check; the copy is freed on return."""
    w = np.array(graph.weights)
    w[[j - 1, j], target - 1] = 1.0
    w[target - 1, [j - 1, j]] = 1.0
    return _laplacian(w)
