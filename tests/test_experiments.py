import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (FailureScenario, InvalidParameterError,
                          InvalidQueryError, NoiseParams, NumericalError,
                          UnstablePlatoonError, build_custom, build_path,
                          build_pcycle, check_platoon, laplacian,
                          risk_profile, spectrum, steady_state_covariance)
from cascade_risk import experiments, risk
from cascade_risk.covariance import CovarianceMatrix
from cascade_risk.cli import _array_csv
from cascade_risk.experiments import (add_edge_rows, sweep_scale_rows,
                                      sweep_sparsity_rows)
from cascade_risk.risk import iota

from oracles import (add_pair_edges, conditional_moments, format_cell,
                     region_bound_bisect, sweep_scale_rows_per_level,
                     var_risk_scalar)

D, C, EPSILON, STATE, M = 3.0, 1.5, 0.2, 1.0, 3

# sweep_sparsity_rows(path8, D, C, EPSILON, M, STATE, seed=11, enum_cap=1,
# sample_count=40) as computed with one cho_solve per queried pair, before
# conditioning was batched, on the covariance from the delay Lyapunov f:
# every level is sampled.
SAMPLED_ROWS = [
    (0, 0.1809198754180943, 0.0, 40, 0),
    (1, 0.5138395164957993, 0.0, 40, 0),
    (2, 0.8685174375130353, 0.0, 40, 0),
    (3, 1.2146185321908514, 0.0, 40, 0),
    (4, 1.6190834730487023, 0.0, 40, 0),
]


def _path8(g=0.1):
    spec = spectrum(laplacian(build_path(8)))
    return steady_state_covariance(spec, NoiseParams(g=g, tau=0.03, beta=2.0))


@pytest.fixture(scope="module")
def path8():
    return _path8()


def _oracle_rows(sigma):
    """Every placement of M failures, grouped by the zeros inside its
    span, conditioned one pair at a time through the matrix inverse."""
    dim = sigma.dim
    levels = {}
    for idx in itertools.combinations(range(1, dim + 1), M):
        risks = []
        for j in range(1, dim + 1):
            if j in idx:
                continue
            mu, sig = conditional_moments(sigma.values, D, j, idx,
                                          (STATE,) * M)
            risks.append(var_risk_scalar(mu, sig, D, C, iota(EPSILON))[0])
        value = math.inf if math.inf in risks else sum(risks) / len(risks)
        levels.setdefault(idx[-1] - idx[0] + 1 - M, []).append(value)
    rows = []
    for s in sorted(levels):
        values = levels[s]
        finite = [v for v in values if math.isfinite(v)]
        avg = sum(finite) / len(finite) if finite else math.inf
        rows.append((s, avg, (len(values) - len(finite)) / len(values),
                     len(values), 1))
    return rows


def _assert_rows_close(rows, ref, rel):
    assert len(rows) == len(ref)
    for row, expected in zip(rows, ref):
        assert row[0] == expected[0] and row[3:] == expected[3:]
        for got, want in zip(row[1:3], expected[1:3]):
            assert got == want or abs(got - want) <= rel * abs(want)


def test_exact_levels_match_matrix_inverse_oracle(path8):
    rows = sweep_sparsity_rows(path8, D, C, EPSILON, M, STATE, seed=11)
    _assert_rows_close(rows, _oracle_rows(path8), 1e-12)


def test_sampled_levels_reproduce_pinned_rows(path8):
    rows = sweep_sparsity_rows(path8, D, C, EPSILON, M, STATE, seed=11,
                               enum_cap=1, sample_count=40)
    _assert_rows_close(rows, SAMPLED_ROWS, 1e-12)


@pytest.mark.parametrize("gap", [0.0, 5e-14])
def test_singular_failed_block_is_skipped(gap):
    # pairs 1 and 2 are (nearly) the same variable: gap 0 fails the
    # Cholesky factorization, gap 5e-14 the condition-number bound
    v = np.eye(7)
    v[0, 1] = v[1, 0] = 1.0 - gap
    v[0, 2] = v[2, 0] = v[1, 2] = v[2, 1] = 0.1
    rows = sweep_sparsity_rows(CovarianceMatrix(v), D, C, EPSILON, M, STATE,
                               seed=11)
    counted = {}
    for idx in itertools.combinations(range(1, 8), M):
        if idx[:2] != (1, 2):
            s = idx[-1] - idx[0] + 1 - M
            counted[s] = counted.get(s, 0) + 1
    assert {row[0]: row[3] for row in rows} == counted
    assert sum(counted.values()) == math.comb(7, M) - 5
    assert all(math.isfinite(row[1]) for row in rows)


def test_all_infinite_level():
    # noise a hundred times stronger: every surviving pair diverges
    rows = sweep_sparsity_rows(_path8(g=10.0), D, C, EPSILON, M, STATE,
                               seed=11)
    assert [row[0] for row in rows] == [0, 1, 2, 3, 4]
    for s, avg, inf_fraction, count, exact in rows:
        assert avg == math.inf and inf_fraction == 1.0 and count > 0


def test_level_mixing_finite_and_infinite_patterns():
    # noise thirty times stronger: at s = 2, six of the nine patterns
    # leave a pair at infinite risk, and avg_risk averages the other three
    sigma = _path8(g=3.0)
    rows = sweep_sparsity_rows(sigma, D, C, EPSILON, M, STATE, seed=11)
    s, avg, inf_fraction, count, exact = rows[2]
    assert (s, inf_fraction, count, exact) == (2, 2 / 3, 9, 1)
    assert math.isfinite(avg)
    _assert_rows_close(rows, _oracle_rows(sigma), 1e-12)


@pytest.mark.parametrize("enum_cap", [100_000, 1])
def test_rows_independent_of_chunk_size(path8, monkeypatch, enum_cap):
    def rows():
        return sweep_sparsity_rows(path8, D, C, EPSILON, M, STATE, seed=11,
                                   enum_cap=enum_cap, sample_count=40)

    default = rows()
    for chunk in (1, 7):
        monkeypatch.setattr(experiments, "_STACK_CHUNK", chunk)
        assert rows() == default


def test_one_factorization_per_chunk(path8, monkeypatch):
    calls = {"cholesky": 0, "forward": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "cholesky",
                        counting("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(risk, "_forward", counting("forward", risk._forward))
    monkeypatch.setattr(experiments, "_STACK_CHUNK", 4)
    rows = sweep_sparsity_rows(path8, D, C, EPSILON, M, STATE, seed=11)
    # 5, 8, 9, 8 and 5 patterns per level make 2, 2, 3, 2 and 2 chunks
    assert [row[3] for row in rows] == [5, 8, 9, 8, 5]
    assert calls == {"cholesky": 11, "forward": 11}


def test_sweep_checks_query_at_entry(path8):
    for state in (math.nan, math.inf, True, np.True_):
        with pytest.raises(InvalidQueryError):
            sweep_sparsity_rows(path8, D, C, EPSILON, M, state, seed=11)
        with pytest.raises(InvalidQueryError):
            sweep_scale_rows(path8, D, C, EPSILON, M, state)
    for c, eps in ((0.5, EPSILON), (C, 1.0)):
        with pytest.raises(InvalidQueryError):
            sweep_sparsity_rows(path8, D, c, eps, M, STATE, seed=11)
    with pytest.raises(InvalidParameterError):
        sweep_sparsity_rows(path8, -D, C, EPSILON, M, STATE, seed=11)


def test_sweep_counts_follow_integer_rule(path8):
    assert _scale_rows(sweep_scale_rows(path8, D, C, EPSILON, 2.0, STATE)) \
        == _scale_rows(sweep_scale_rows(path8, D, C, EPSILON, 2, STATE))
    assert sweep_sparsity_rows(path8, D, C, EPSILON, 2.0, STATE, seed=11) == \
        sweep_sparsity_rows(path8, D, C, EPSILON, 2, STATE, seed=11)
    for bad in (2.5, True, math.nan, "2"):
        with pytest.raises(InvalidQueryError):
            sweep_scale_rows(path8, D, C, EPSILON, bad, STATE)
        with pytest.raises(InvalidQueryError):
            sweep_sparsity_rows(path8, D, C, EPSILON, bad, STATE, seed=11)


def _scale_rows(value):
    """The (m, j, risk) rows of a sweep_scale_rows array, as the CSV
    lists them."""
    return [(m, j, v) for m, level in enumerate(value.tolist())
            for j, v in enumerate(level, start=1)]


def _assert_scale_rows_match(rows, expected, c):
    """Same (m, j) keys, the same empty (nan) and infinite cells, and
    finite cells within 1e-9 (|risk| + c)."""
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    for (_, _, got), (_, _, want) in zip(rows, expected):
        if math.isnan(want):
            assert math.isnan(got)
        elif math.isinf(want):
            assert got == want
        else:
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-9 * (abs(want) + c)


def _random_graph(kind, n, rng):
    if kind == "path":
        return build_path(n)
    if kind == "pcycle":
        return build_pcycle(n, int(rng.integers(1, (n - 1) // 2 + 1)))
    # a random spanning tree plus a few chords, with non-unit weights
    edges = {(int(rng.integers(1, i)), i): float(rng.uniform(0.2, 2.0))
             for i in range(2, n + 1)}
    for _ in range(n // 3):
        a, b = sorted(int(v) for v in rng.choice(n, 2, replace=False) + 1)
        edges[a, b] = float(rng.uniform(0.2, 2.0))
    return build_custom(n, [(a, b, w) for (a, b), w in edges.items()])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["path", "pcycle", "custom"]),
       n=st.integers(3, 30), seed=st.integers(0, 2 ** 32 - 1),
       g=st.sampled_from([0.1, 1.0]), state=st.floats(-3.0, 9.0),
       epsilon=st.floats(0.01, 0.49), c=st.floats(1.0, 3.0),
       level=st.floats(0.0, 1.0))
def test_sweep_scale_matches_per_level_oracle(kind, n, seed, g, state,
                                              epsilon, c, level):
    rng = np.random.default_rng(seed)
    graph = _random_graph(kind, n, rng)
    sigma = steady_state_covariance(spectrum(laplacian(graph)),
                                    NoiseParams(g=g, tau=0.01, beta=2.0))
    max_m = 1 + int(level * (sigma.dim - 2))
    rows = _scale_rows(sweep_scale_rows(sigma, D, c, epsilon, max_m, state))
    _assert_scale_rows_match(
        rows, sweep_scale_rows_per_level(sigma, D, c, epsilon, max_m, state),
        c)


def _head_refused_at(first, kind):
    """A 30-pair covariance whose head blocks are refused from `first`
    failures on: pair `first` repeats pair first-1 exactly (its block is
    singular, condition number inf), or has a variance 1e-13 of the largest
    eigenvalue before it (condition number above 1e12). The pairs
    before are correlated as on a path; the pairs after are correlated
    among themselves, too weakly to change the condition number."""
    path = steady_state_covariance(spectrum(laplacian(build_path(31))),
                                   NoiseParams(g=0.1, tau=0.03,
                                               beta=2.0)).values
    v = np.zeros((30, 30))
    head = first - 2 if kind == "singular" else first - 1
    v[:head, :head] = path[:head, :head]
    if kind == "singular":
        v[head:first, head:first] = 1.0
    else:
        v[head, head] = 1e-13 * np.linalg.eigvalsh(v[:head, :head])[-1]
    v[first:, first:] = 0.25 * path[first:, first:]
    return CovarianceMatrix(v)


def _head_errors_per_level(sigma, max_m, state):
    """Why each level of a sweep-scale is refused, or None, conditioned
    level by level."""
    return [risk._condition_stack(sigma.values, np.arange(m)[None],
                                  np.full((1, m), state), D).errors[0]
            for m in range(max_m + 1)]


@pytest.mark.parametrize("kind, words", [
    ("singular", "condition number inf exceeds 1e+12"),
    ("ill-conditioned", "condition number"),
])
def test_sweep_scale_refusals_nest(kind, words, monkeypatch):
    first, max_m = 12, 27
    sigma = _head_refused_at(first, kind)
    expected_errors = _head_errors_per_level(sigma, max_m, STATE)
    assert [e is not None for e in expected_errors] == \
        [m >= first for m in range(max_m + 1)]
    assert all(words in e for e in expected_errors[first:])
    assert risk._condition_head(sigma.values, max_m, STATE, D).errors == \
        expected_errors
    calls = []

    def counting(blocks):
        calls.append(blocks.shape[1])
        return factor(blocks)

    factor = risk._factor_blocks
    monkeypatch.setattr(risk, "_factor_blocks", counting)
    rows = _scale_rows(sweep_scale_rows(sigma, D, C, EPSILON, max_m, STATE))
    monkeypatch.undo()
    # the whole head block, then a bisection over 1..max_m
    assert calls[0] == max_m
    assert len(calls) <= 1 + math.ceil(math.log2(max_m)) < max_m
    _assert_scale_rows_match(
        rows, sweep_scale_rows_per_level(sigma, D, C, EPSILON, max_m, STATE),
        C)
    for m, j, value in rows:
        if m >= first:
            assert value == 0.0 if j <= m else math.isnan(value)


def test_sweep_scale_factors_once(path8, monkeypatch):
    calls = {"factor": 0, "forward": 0}
    factor, forward = risk._factor_blocks, risk._forward

    def counting_factor(blocks):
        calls["factor"] += 1
        return factor(blocks)

    def counting_forward(*args):
        calls["forward"] += 1
        return forward(*args)

    monkeypatch.setattr(risk, "_factor_blocks", counting_factor)
    monkeypatch.setattr(risk, "_forward", counting_forward)
    value = sweep_scale_rows(path8, D, C, EPSILON, path8.dim - 1, STATE)
    assert calls == {"factor": 1, "forward": 1}
    assert value.shape == (path8.dim, path8.dim)


@pytest.mark.parametrize("case", [
    "singular", "ill-conditioned", "one survivor", "one survivor, refused"])
def test_sweep_scale_lines_match_cell_oracle(case, path8):
    # one piece per level m, each cell `%.17g` of its own value or, for
    # nan, an empty field: after a refused level the failed pairs print
    # 0 and the survivors empty cells
    if case.startswith("one survivor"):
        sigma = path8 if case == "one survivor" else \
            _head_refused_at(12, "singular")
        max_m = sigma.dim - 1
    else:
        sigma, max_m = _head_refused_at(12, case), 27
    value = sweep_scale_rows(sigma, D, C, EPSILON, max_m, STATE)
    _, *pieces = _array_csv("sweep_scale", value, 0)
    assert len(pieces) == max_m + 1
    assert "".join(pieces) == "".join(
        f"{m},{j},{format_cell(v)}\n" for m, j, v in _scale_rows(value))
    assert any(math.isnan(v) for v in value[-1].tolist()) == \
        (case != "one survivor")


def test_sweep_scale_rendering_memory_is_bounded(tmp_path):
    # the 20,099 lines (0.31 MB) of a 200-vehicle chain's sweep to
    # max_m = 100 are rendered one level at a time: computing and writing
    # them peaks at ~1.3 MB traced, most of it the conditioning arrays,
    # where row tuples, lines and one joined text peaked at ~3.9 MB
    sigma = steady_state_covariance(spectrum(laplacian(build_path(200))),
                                    NoiseParams(g=0.1, tau=0.03, beta=2.0))
    tracemalloc.start()
    try:
        value = sweep_scale_rows(sigma, D, 2.0, 0.1, 100, 0.0)
        with open(tmp_path / "scale.csv", "w", encoding="utf-8",
                  newline="") as fh:
            fh.writelines(_array_csv("sweep_scale", value, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_sweep_sparsity_options_follow_integer_rule():
    # enum_cap and sample_count are integers >= 1, the seed an integer
    # in 0 .. 2**64 - 1; an integral float is taken as its integer
    sigma = steady_state_covariance(spectrum(laplacian(build_path(6))),
                                    NoiseParams(g=0.1, tau=0.03, beta=2.0))

    def rows(**options):
        return sweep_sparsity_rows(sigma, D, C, EPSILON, 2, STATE,
                                   **{"seed": 11, **options})

    sampled = rows(enum_cap=1, sample_count=5)
    assert len(sampled) == 4
    assert rows(enum_cap=1.0, sample_count=5.0, seed=11.0) == sampled
    for options in ({"enum_cap": "x"}, {"enum_cap": True}, {"enum_cap": 2.5},
                    {"sample_count": "5"}, {"sample_count": np.True_},
                    {"sample_count": 2.5}, {"enum_cap": 0},
                    {"sample_count": 0}, {"enum_cap": 0, "sample_count": 0},
                    {"enum_cap": -3}, {"seed": -1}, {"seed": 2 ** 64},
                    {"seed": True}, {"seed": "11"}, {"seed": 1.5}):
        with pytest.raises(InvalidQueryError):
            rows(**options)


PATH6_NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)


def test_add_edge_pair_follows_integer_rule():
    graph, scenario = build_path(6), FailureScenario((3,), (0.0,))
    rows = add_edge_rows(graph, D, PATH6_NOISE, EPSILON, C, scenario, 4)
    assert add_edge_rows(graph, D, PATH6_NOISE, EPSILON, C, scenario,
                         4.0) == rows
    for j in (True, 2.5, np.bool_(True), "4"):
        with pytest.raises(InvalidQueryError):
            add_edge_rows(graph, D, PATH6_NOISE, EPSILON, C, scenario, j)


def test_add_edge_checks_query_at_entry():
    graph, scenario = build_path(6), FailureScenario((3,), (0.0,))
    for d in (0.0, -D, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            add_edge_rows(graph, d, PATH6_NOISE, EPSILON, C, scenario, 4)
    for c, eps in ((0.5, EPSILON), (C, 0.0), (C, 1.0)):
        with pytest.raises(InvalidQueryError):
            add_edge_rows(graph, D, PATH6_NOISE, eps, c, scenario, 4)


def test_add_edge_skips_pair_nodes():
    # a pair is never linked to its own vehicles, and a pair index
    # outside the platoon is refused
    graph, scenario = build_path(6), FailureScenario((), ())
    rows = add_edge_rows(graph, D, PATH6_NOISE, EPSILON, C, scenario, 2)
    assert [row[0] for row in rows] == [0, 1, 4, 5, 6]
    for j in (0, 6):
        with pytest.raises(InvalidQueryError, match="outside 1..5"):
            add_edge_rows(graph, D, PATH6_NOISE, EPSILON, C, scenario, j)


def _oracle_add_edge_row(graph, target, j, noise, scenario):
    """One add-edge row through a validated graph: oracles.add_pair_edges,
    laplacian, spectrum, steady_state_covariance and risk_profile."""
    if target:
        graph = add_pair_edges(graph, j, target)
    try:
        sigma = steady_state_covariance(spectrum(laplacian(graph)), noise)
    except UnstablePlatoonError:
        return (target, math.nan, 0)
    except NumericalError:
        return (target, math.nan, 1)
    row = risk_profile(sigma, scenario, D, C, EPSILON)[j - 1]
    return (target, math.nan if row.error else row.risk.item(), 1)


def _cells(rows):
    return [cell for row in rows for cell in row]


def _has_nan(rows):
    return any(isinstance(cell, float) and math.isnan(cell)
               for cell in _cells(rows))


def _float_with_nan(*arrays):
    """Every array holds floats, so no cell is None, and one holds a
    nan."""
    return (all(a.dtype.kind == "f" for a in arrays)
            and any(np.isnan(a).any() for a in arrays))


def test_row_producers_hand_no_none(path8, monkeypatch):
    # a missing value is nan in every report, profile and producer, so
    # the one renderer rule (a nan field is written empty) covers every
    # schema
    path6 = build_path(6)
    # modes 5 and 6 have s1 = lambda tau > pi/2: no region bound
    report = check_platoon(spectrum(laplacian(path6)), 0.6, 2.0)
    assert _float_with_nan(report.eigenvalues, report.s1, report.bound,
                           report.margin)
    scenario = FailureScenario((2, 3), (0.0, 0.5))
    profile = risk_profile(path8, scenario, D, C, EPSILON)
    baseline = risk_profile(path8, FailureScenario((), ()), D, C, EPSILON)
    assert _float_with_nan(profile.risk, profile.mu_tilde,
                           profile.sigma_tilde, baseline.risk)
    # every candidate link destabilizes the platoon
    noise = NoiseParams(g=0.1, tau=0.35, beta=0.5)
    rows = add_edge_rows(path6, D, noise, EPSILON, C,
                         FailureScenario((2,), (0.0,)), 4)
    assert None not in _cells(rows)
    assert all(math.isnan(risk) for _, risk, _ in rows[1:])
    # candidates whose failed block conditions worse than the baseline's
    # are refused
    sigma = steady_state_covariance(spectrum(laplacian(path6)), PATH6_NOISE)
    base = float(np.linalg.cond(sigma.values[1:3, 1:3]))
    monkeypatch.setattr(risk, "RCOND_MIN", 1.0 / (base * (1.0 + 1e-9)))
    rows = add_edge_rows(path6, D, PATH6_NOISE, EPSILON, C,
                         FailureScenario((2, 3), (0.0, 0.0)), 4)
    monkeypatch.undo()
    assert None not in _cells(rows) and _has_nan(rows)
    rows = sweep_sparsity_rows(path8, D, C, EPSILON, M, STATE, seed=11)
    assert None not in _cells(rows)


def _critical_tau(lam, beta):
    """The delay at which beta*tau meets the region bound of the mode
    lam*tau; the platoon is stable below it."""
    lo, hi = 0.0, math.pi / (2.0 * lam)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if beta * mid < region_bound_bisect(lam * mid):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2 ** 32 - 1),
       place=st.floats(0.05, 0.95), failure=st.booleans())
def test_add_edge_rows_match_validated_graph_route(n, seed, place, failure):
    # random connected graph with non-unit weights; pair j already has a
    # link to one candidate target, which add-edge sets to weight 1
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, n))
    linked = int(rng.choice([t for t in range(1, n + 1)
                             if t not in (j, j + 1)]))
    edges = {(int(rng.integers(1, i)), i): float(rng.uniform(0.1, 2.0))
             for i in range(2, n + 1)}
    for _ in range(n // 2):
        a, b = sorted(int(v) for v in rng.choice(n, 2, replace=False) + 1)
        edges[a, b] = float(rng.uniform(0.1, 2.0))
    edges[min(j, linked), max(j, linked)] = float(rng.uniform(0.1, 0.9))
    graph = build_custom(n, [(a, b, w) for (a, b), w in edges.items()])
    others = [k for k in range(1, n) if k != j]
    scenario = (FailureScenario((int(rng.choice(others)),),
                                (float(rng.uniform(0.0, 2 * D)),))
                if failure else FailureScenario((), ()))
    # the delay sits between the critical delays of the baseline and of
    # the candidate with the largest top eigenvalue: the baseline is
    # stable and that candidate is not
    targets = [t for t in range(1, n + 1) if t not in (j, j + 1)]
    top = [np.linalg.eigvalsh(laplacian(g))[-1] for g in
           [graph] + [add_pair_edges(graph, j, t) for t in targets]]
    beta = 2.0
    slow, fast = _critical_tau(top[0], beta), _critical_tau(max(top), beta)
    destabilizing = slow > fast * (1.0 + 1e-2)
    tau = fast + place * (slow - fast) if destabilizing else place * slow
    noise = NoiseParams(g=0.1, tau=tau, beta=beta)

    expected = [_oracle_add_edge_row(graph, t, j, noise, scenario)
                for t in [0] + targets]
    rows = add_edge_rows(graph, D, noise, EPSILON, C, scenario, j)
    assert [row[::2] for row in rows] == [row[::2] for row in expected]
    assert np.array_equal([row[1] for row in rows],
                          [row[1] for row in expected], equal_nan=True)
    if destabilizing:
        assert any(stable == 0 for _, _, stable in rows)
