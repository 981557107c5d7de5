import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (ConfigError, FailureScenario, InvalidParameterError,
                          InvalidQueryError, InvalidSizeError, NoiseParams,
                          SimConfig, WeightedGraph, build_complete,
                          build_custom, build_path, build_pcycle,
                          check_platoon, complete_profile, laplacian,
                          risk_profile, run, spectrum,
                          steady_state_covariance)
from cascade_risk.config import (RawConfig, build_gap, build_graph,
                                 build_noise, build_query, build_sim,
                                 scenario_state_values)
from cascade_risk.experiments import (add_edge_rows, sweep_scale_rows,
                                      sweep_sparsity_rows)
from cascade_risk.graph import _real, pair_difference_matrix
from cascade_risk.risk import iota

from oracles import (add_pair_edges, laplacian_reference, path_eigenvalue,
                     pcycle_eigenvalues, same_profile)


def test_complete_structure():
    g = build_complete(5)
    w = g.weights
    assert w.shape == (5, 5)
    assert np.all(np.diag(w) == 0.0)
    off = w[~np.eye(5, dtype=bool)]
    assert np.all(off == 1.0)


def test_path_structure():
    g = build_path(4)
    expected = np.array([[0, 1, 0, 0], [1, 0, 1, 0],
                         [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float)
    assert np.array_equal(g.weights, expected)


def test_pcycle_structure():
    g = build_pcycle(6, 2)
    w = g.weights
    # node 1 links to 2, 3 (ahead) and 6, 5 (behind)
    assert w[0, 1] == w[0, 2] == w[0, 5] == w[0, 4] == 1.0
    assert w[0, 3] == 0.0
    assert np.array_equal(w, w.T)
    assert np.all(w.sum(axis=1) == 4.0)


def test_pcycle_p1_is_plain_cycle():
    g = build_pcycle(4, 1)
    lam = spectrum(laplacian(g)).eigenvalues
    assert np.allclose(lam, [0.0, 2.0, 2.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("n,expected", [
    (3, [0.0, 1.0, 3.0]),
    (4, [0.0, 2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]),
])
def test_path_spectrum_small(n, expected):
    lam = spectrum(laplacian(build_path(n))).eigenvalues
    assert np.allclose(lam, expected, atol=1e-12)


def test_path_spectrum_closed_form():
    n = 50
    lam = spectrum(laplacian(build_path(n))).eigenvalues
    expected = [path_eigenvalue(n, k) for k in range(1, n + 1)]
    assert np.allclose(lam, expected, atol=1e-9)


def test_complete_spectrum():
    lam = spectrum(laplacian(build_complete(5))).eigenvalues
    assert np.allclose(lam, [0.0, 5.0, 5.0, 5.0, 5.0], atol=1e-12)


def test_pcycle_spectrum_circulant():
    lam = spectrum(laplacian(build_pcycle(50, 5))).eigenvalues
    assert np.allclose(lam, pcycle_eigenvalues(50, 5), atol=1e-9)


def test_spectrum_orthonormal_and_reconstructs():
    L = laplacian(build_pcycle(12, 3))
    spec = spectrum(L)
    Q = spec.eigenvectors
    assert np.abs(Q.T @ Q - np.eye(12)).max() < 1e-10
    assert np.abs(L @ Q - Q * spec.eigenvalues).max() < 1e-9


def test_spectrum_sign_normalization():
    spec = spectrum(laplacian(build_path(7)))
    Q = spec.eigenvectors
    for k in range(7):
        col = Q[:, k]
        assert col[np.argmax(np.abs(col))] > 0.0
    # constant eigenvector of the zero eigenvalue comes out positive
    assert np.allclose(Q[:, 0], 1.0 / math.sqrt(7.0), atol=1e-12)
    # with repeated eigenvalues too, Q is eigh's output with each column
    # negated or kept whole, to the bit
    L = laplacian(build_pcycle(12, 2))
    _, raw = np.linalg.eigh(L)
    expected = raw.copy()
    for k in range(12):
        col = raw[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            expected[:, k] = -col
    spec = spectrum(L)
    assert np.any(np.diff(spec.eigenvalues) < 1e-9)
    assert spec.eigenvectors.tobytes() == expected.tobytes()


def test_spectrum_deterministic():
    L = laplacian(build_pcycle(9, 2))
    a = spectrum(L)
    b = spectrum(L)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_spectrum_rejects_nonsymmetric():
    with pytest.raises(InvalidParameterError):
        spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        spectrum(np.zeros((2, 3)))
    # empty or non-finite: a NaN slips past a max-based symmetry test,
    # and eigh would return NaN eigenvalues for it
    for bad in ([[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
                [[1.0, -math.inf], [-math.inf, 1.0]], np.zeros((0, 0))):
        with pytest.raises(InvalidParameterError):
            spectrum(bad)
    # the Laplacian of two 1e308 links at one node, whose degree
    # overflows: the package refuses it in _laplacian, and spectrum
    # still refuses it handed in
    overflowed = laplacian_reference(
        build_custom(3, [(1, 2, 1e308), (1, 3, 1e308)]).weights)
    with pytest.raises(InvalidParameterError, match="must be finite"):
        spectrum(overflowed)


@pytest.mark.parametrize("build,args", [
    (build_complete, (1,)),
    (build_path, (0,)),
    (build_pcycle, (2, 1)),
])
def test_builders_reject_small_n(build, args):
    with pytest.raises(InvalidSizeError):
        build(*args)


@pytest.mark.parametrize("n", [10 ** 7, 10 ** 22, 1e300])
@pytest.mark.parametrize("build,args", [
    (build_complete, ()),
    (build_path, ()),
    (build_pcycle, (1,)),
    (build_custom, ([(1, 2, 1.0)],)),
])
def test_builders_refuse_a_weight_matrix_beyond_memory(build, args, n):
    # each of these n x n matrices fails to allocate at once (728 TiB and
    # more, or beyond numpy's largest shape), without touching memory
    with pytest.raises(InvalidSizeError, match="does not fit in memory"):
        build(n, *args)


def test_pcycle_rejects_bad_p():
    with pytest.raises(InvalidParameterError):
        build_pcycle(6, 0)
    with pytest.raises(InvalidParameterError):
        build_pcycle(6, 3)  # p must stay below n/2
    build_pcycle(6, 2)


def test_pcycle_radius_follows_integer_rule():
    # p is an integer or an integral float, never a bool
    assert np.array_equal(build_pcycle(7, 2.0).weights,
                          build_pcycle(7, 2).weights)
    for bad in (1.5, math.nan, True, "2", None):
        with pytest.raises(InvalidParameterError, match="not an integer"):
            build_pcycle(7, bad)


def test_vehicle_count_follows_integer_rule():
    # every builder and WeightedGraph read n as pair indices are read:
    # an integral float is taken, anything else (an integer beyond the
    # float range too) is a size error
    for build in (build_complete, build_path):
        g = build(4.0)
        assert g.n == 4 and type(g.n) is int
        assert np.array_equal(g.weights, build(4).weights)
    assert build_pcycle(7.0, 1).n == 7
    assert build_custom(3.0, [(1, 2, 1.0), (2, 3, 1.0)]).n == 3
    graph = WeightedGraph(3.0, build_path(3).weights)
    assert graph.n == 3 and type(graph.n) is int
    for bad in (2.5, math.nan, True, np.bool_(True), "4", None, 10 ** 400):
        for build, args in ((build_complete, ()), (build_path, ()),
                            (build_pcycle, (1,)),
                            (build_custom, ([(1, 2, 1.0)],))):
            with pytest.raises(InvalidSizeError):
                build(bad, *args)
    with pytest.raises(InvalidSizeError, match="not an integer"):
        WeightedGraph(3.5, build_path(3).weights)
    with pytest.raises(InvalidSizeError, match="at least 3"):
        build_pcycle(2.0, 1)


def _section(name, **keys):
    """A RawConfig of one section holding `keys`, from line 2 on."""
    return RawConfig({name: {key: (value, line) for line, (key, value)
                             in enumerate(keys.items(), start=2)}})


def test_real_number_rule_refusals():
    # every scalar real input goes through the real-number rule: a bool,
    # a string, None, a complex, a non-finite value or an int beyond the
    # float range is refused with the entry's own typed error, never
    # taken as a number or let out as a bare TypeError or OverflowError
    graph = build_path(4)
    spec = spectrum(laplacian(graph))
    noise = NoiseParams(0.1, 0.03, 2.0)
    sigma = steady_state_covariance(spec, noise)
    none = FailureScenario((), ())
    sim = SimConfig(dt=1e-3, sample_interval=0.1, samples_per_trial=4,
                    trials=2)
    P, Q, C = InvalidParameterError, InvalidQueryError, ConfigError
    queries = {
        "risk_profile": lambda d, c, e: risk_profile(sigma, none, d, c, e),
        "complete_profile": lambda d, c, e: complete_profile(
            4, none, 1.0, d, c, e),
        "sweep_scale_rows": lambda d, c, e: sweep_scale_rows(
            sigma, d, c, e, 1, 0.0),
        "sweep_sparsity_rows": lambda d, c, e: sweep_sparsity_rows(
            sigma, d, c, e, 1, 0.0, 0),
        "add_edge_rows": lambda d, c, e: add_edge_rows(
            graph, d, noise, e, c, none, 1),
    }
    entries = {}
    for name, query in queries.items():
        entries[f"{name} d"] = (P, lambda v, q=query: q(v, 2.0, 0.1))
        entries[f"{name} c"] = (Q, lambda v, q=query: q(3.0, v, 0.1))
        entries[f"{name} epsilon"] = (Q, lambda v, q=query: q(3.0, 2.0, v))
    entries.update({
        "iota": (Q, iota),
        "FailureScenario state": (Q, lambda v: FailureScenario((1,), (v,))),
        "sweep_scale_rows state": (Q, lambda v: sweep_scale_rows(
            sigma, 3.0, 2.0, 0.1, 1, v)),
        "sweep_sparsity_rows state": (Q, lambda v: sweep_sparsity_rows(
            sigma, 3.0, 2.0, 0.1, 1, v, 0)),
        "complete_profile sigma_c": (P, lambda v: complete_profile(
            4, none, v, 3.0, 2.0, 0.1)),
        "NoiseParams g": (P, lambda v: NoiseParams(v, 0.03, 2.0)),
        "NoiseParams tau": (P, lambda v: NoiseParams(0.1, v, 2.0)),
        "NoiseParams beta": (P, lambda v: NoiseParams(0.1, 0.03, v)),
        "SimConfig dt": (P, lambda v: SimConfig(dt=v)),
        "SimConfig sample_interval": (P, lambda v: SimConfig(
            sample_interval=v)),
        "check_platoon tau": (P, lambda v: check_platoon(spec, v, 2.0)),
        "check_platoon beta": (P, lambda v: check_platoon(spec, 0.03, v)),
        "run d": (P, lambda v: run(graph, v, noise, sim)),
        "build_custom weight": (P, lambda v: build_custom(
            3, [(1, 2, v), (2, 3, 1.0)])),
        "config d": (C, lambda v: build_gap(_section("platoon", d=v))),
        "config g": (C, lambda v: build_noise(_section(
            "noise", g=v, tau=0.03, beta=2.0))),
        "config epsilon": (C, lambda v: build_query(_section(
            "query", epsilon=v, c=2.0))),
        "config dt": (C, lambda v: build_sim(_section("sim", dt=v))),
        "config states": (C, lambda v: scenario_state_values(_section(
            "scenario", states=v), 1)),
        "config edge weight": (C, lambda v: build_graph(_section(
            "graph", type="custom", n=3, edges=[[1, 2, v], [2, 3]]))),
    })
    wrong = []
    for name, (error, call) in entries.items():
        for value in (True, np.True_, "1", None, 1j, math.nan, math.inf,
                      -math.inf, 10 ** 400):
            if value is None and name == "SimConfig sample_interval":
                continue    # None asks run to derive the value
            try:
                call(value)
            except error:
                continue
            except Exception as exc:
                wrong.append(f"{name} {value!r:.12}: {type(exc).__name__}")
            else:
                wrong.append(f"{name} {value!r:.12}: accepted")
    assert not wrong


@pytest.mark.parametrize("kind", [int, np.float64, np.float32, Fraction])
def test_real_number_rule_takes_any_real(kind):
    # a real of any type gives, to the bit, what the equal float gives,
    # and NoiseParams and SimConfig hold floats; int stands in only where
    # the value is integral, so NoiseParams(2, 0.03, 2) is the int case
    def pair(x):
        v = kind(x) if kind is not int or x.is_integer() else x
        return v, float(v)

    (d, fd), (c, fc), (e, fe), (sc, fsc) = map(pair, (3.0, 1.5, 0.1, 4.0))
    (g, fg), (tau, ftau), (beta, fbeta) = map(pair, (2.0, 0.03, 2.0))
    (s1, fs1), (s2, fs2) = map(pair, (0.0, 2.5))
    scenario = FailureScenario((2, 3), (s1, s2))
    assert scenario == FailureScenario((2, 3), (fs1, fs2))
    noise = NoiseParams(g, tau, beta)
    assert noise == NoiseParams(fg, ftau, fbeta)
    assert all(type(x) is float for x in (noise.g, noise.tau, noise.beta))
    sigma = steady_state_covariance(spectrum(laplacian(build_path(6))),
                                    noise)
    assert same_profile(risk_profile(sigma, scenario, d, c, e),
                        risk_profile(sigma, scenario, fd, fc, fe))
    assert same_profile(complete_profile(6, scenario, sc, d, c, e),
                        complete_profile(6, scenario, fsc, fd, fc, fe))
    (dt, fdt), (gap, fgap) = map(pair, (0.001, 0.25))
    sim = SimConfig(dt=dt, sample_interval=gap)
    assert sim == SimConfig(dt=fdt, sample_interval=fgap)
    assert all(type(x) is float for x in (sim.dt, sim.sample_interval))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_real_number_rule_property(x):
    # every finite float comes back unchanged; the positive form refuses
    # exactly x <= 0
    assert _real(x, "x") == x and type(_real(x, "x")) is float
    if x > 0.0:
        assert _real(x, "x", positive=True) == x
    else:
        with pytest.raises(InvalidParameterError, match="must be positive"):
            _real(x, "x", positive=True)


def test_custom_graph_matches_path():
    g = build_custom(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    assert np.array_equal(g.weights, build_path(4).weights)
    # weight defaults to 1 when omitted at the config layer; here the
    # builder itself requires explicit triples with arbitrary weights
    g2 = build_custom(3, [(1, 2, 0.5), (2, 3, 2.0)])
    assert g2.weights[0, 1] == 0.5
    assert g2.weights[1, 2] == 2.0


@pytest.mark.parametrize("edges", [
    [(1, 1, 1.0), (1, 2, 1.0)],        # self loop
    [(0, 2, 1.0)],                     # out of range
    [(1, 2, -1.0), (2, 3, 1.0)],       # negative weight
    [(1, 2, 1.0)],                     # disconnected (n=3)
    # refused at the config layer too
    [(1, 2, 1.0), (2, 1, 5.0), (2, 3, 1.0)],     # repeated, reversed
    [(1, 2, 1.0), (2, 3, 1.0), (1, 2, 1.0)],     # repeated, same weight
    [(1, 2, True), (2, 3, 1.0)],                 # bool weight
    [(1, 2, np.True_), (2, 3, 1.0)],
    [(1, 2, "1"), (2, 3, 1.0)],                  # non-numeric weight
    [(1, 2, None), (2, 3, 1.0)],
    [5, (2, 3, 1.0)],                            # not a sequence
    [None, (2, 3, 1.0)],
])
def test_custom_graph_rejects(edges):
    with pytest.raises((InvalidParameterError, InvalidSizeError)):
        build_custom(3, edges)


def test_custom_graph_endpoint_rule():
    # an endpoint is an integer or an integral float, never a bool: the
    # rule of FailureScenario and SimConfig
    g = build_custom(3, [(1.0, np.int64(2), 1.0), (np.float64(2.0), 3, 1.0)])
    assert np.array_equal(g.weights, build_path(3).weights)
    for bad in (math.nan, math.inf, -math.inf, 1.5, True, np.bool_(True),
                "1", None):
        with pytest.raises(InvalidParameterError):
            build_custom(3, [(bad, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(InvalidParameterError):
            build_custom(3, [(1, 2, 1.0), (2, bad, 1.0)])


def test_weighted_graph_validation():
    with pytest.raises(InvalidParameterError):
        WeightedGraph(3, np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]],
                                  dtype=float))  # asymmetric
    with pytest.raises(InvalidParameterError):
        WeightedGraph(2, np.array([[0.5, 1], [1, 0]], dtype=float))  # diag
    with pytest.raises(InvalidParameterError):
        WeightedGraph(2, np.array([[0, np.nan], [np.nan, 0]]))
    with pytest.raises(InvalidParameterError, match="does not match n=3"):
        WeightedGraph(3, np.array([[0, 1], [1, 0]], dtype=float))  # shape
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        WeightedGraph(2, np.array([[0, -1], [-1, 0]], dtype=float))


def test_graph_weights_are_frozen():
    g = build_path(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_builder_weights_pass_the_full_check(data):
    # the builders wrap their weights unchecked: the checked constructor
    # accepts them as they are, and both graphs' weights are read-only
    kind = data.draw(st.sampled_from(["complete", "path", "pcycle"]))
    n = data.draw(st.integers(3 if kind == "pcycle" else 2, 40))
    if kind == "pcycle":
        g = build_pcycle(n, data.draw(st.integers(1, (n - 1) // 2)))
    else:
        g = {"complete": build_complete, "path": build_path}[kind](n)
    checked = WeightedGraph(n, g.weights)
    assert checked.n == g.n == n
    assert np.array_equal(checked.weights.view(np.int64),
                          g.weights.view(np.int64))
    assert not g.weights.flags.writeable
    assert not checked.weights.flags.writeable


# zeros of either sign, subnormals, 1 and large finite weights; the
# spanning tree's links are drawn positive, so the graph is connected
_POSITIVE_WEIGHTS = st.one_of(
    st.just(1.0), st.floats(5e-324, 2.2e-308),
    st.floats(1e300, 1.7976931348623157e308))
_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0]), _POSITIVE_WEIGHTS)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_custom_graph_equals_the_checked_constructor(data):
    # build_custom checks each edge as it enters and wraps its matrix
    # unchecked: the weights equal WeightedGraph's on the same matrix
    # bit for bit, and a graph left disconnected (no spanning tree
    # drawn) is refused by both with the same message
    n = data.draw(st.integers(2, 12))
    edges = {}
    if data.draw(st.booleans()):
        edges = {(data.draw(st.integers(1, i - 1)), i):
                 data.draw(_POSITIVE_WEIGHTS) for i in range(2, n + 1)}
    for a, b in data.draw(st.lists(st.tuples(st.integers(1, n),
                                             st.integers(1, n)),
                                   max_size=2 * n)):
        if a != b and (min(a, b), max(a, b)) not in edges:
            edges[min(a, b), max(a, b)] = data.draw(_WEIGHTS)
    # either endpoint may come first
    listed = [(b, a, w) if data.draw(st.booleans()) else (a, b, w)
              for (a, b), w in edges.items()]
    w = np.zeros((n, n))
    for (a, b), weight in edges.items():
        w[a - 1, b - 1] = w[b - 1, a - 1] = weight
    try:
        checked = WeightedGraph(n, w)
    except InvalidParameterError as exc:
        assert str(exc) == "graph is not connected"
        with pytest.raises(InvalidParameterError,
                           match="^graph is not connected$"):
            build_custom(n, listed)
        return
    g = build_custom(n, listed)
    assert g.n == checked.n == n
    assert g.weights.dtype == checked.weights.dtype
    assert g.weights.shape == checked.weights.shape
    assert np.array_equal(g.weights.view(np.int64),
                          checked.weights.view(np.int64))
    assert not g.weights.flags.writeable


def test_custom_graph_memory_is_one_matrix():
    # each edge is checked as it enters, so the matrix is neither
    # checked nor copied again: a path's edge list traces at the one
    # weight matrix (1.03 n^2 doubles; 3.02 while WeightedGraph checked
    # and copied it), as build_path does (1.01)
    n = 300
    edges = [(i, i + 1, 1.0) for i in range(1, n)]
    tracemalloc.start()
    try:
        g = build_custom(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8
    assert np.array_equal(g.weights, build_path(n).weights)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_laplacian_bitwise_equal_to_reference(data):
    # the one-array Laplacian against np.diag(degree) - w, bit for bit;
    # where two large links overflow a degree, it refuses instead
    n = data.draw(st.integers(2, 12))
    tree = {(data.draw(st.integers(1, i - 1)), i):
            data.draw(_POSITIVE_WEIGHTS) for i in range(2, n + 1)}
    edges = dict(tree)
    for a, b in data.draw(st.lists(st.tuples(st.integers(1, n),
                                             st.integers(1, n)),
                                   max_size=2 * n)):
        if a != b and (min(a, b), max(a, b)) not in tree:
            edges[min(a, b), max(a, b)] = data.draw(_WEIGHTS)
    g = build_custom(n, [(a, b, w) for (a, b), w in edges.items()])
    ref = laplacian_reference(g.weights)
    if not np.isfinite(ref).all():
        with pytest.raises(InvalidParameterError,
                           match="matrix entries must be finite"):
            laplacian(g)
        return
    L = laplacian(g)
    assert L.dtype == ref.dtype and L.shape == ref.shape
    assert np.array_equal(L.view(np.int64), ref.view(np.int64))


def test_add_pair_edges():
    g = build_path(6)
    g2 = add_pair_edges(g, 2, 5)
    assert g2.weights[1, 4] == 1.0 and g2.weights[4, 1] == 1.0
    assert g2.weights[2, 4] == 1.0 and g2.weights[4, 2] == 1.0
    # source graph untouched
    assert g.weights[1, 4] == 0.0
    # idempotent on the complete graph
    k = build_complete(5)
    assert np.array_equal(add_pair_edges(k, 1, 4).weights, k.weights)


def test_laplacian_small_fixture():
    L = laplacian(build_path(3))
    assert np.array_equal(L, np.array([[1, -1, 0], [-1, 2, -1],
                                       [0, -1, 1]], dtype=float))
    # every degree finite, their total beyond the float range: accepted
    g = build_custom(4, [(1, 2, 1e308), (2, 3, 1.0), (3, 4, 1e308)])
    assert np.array_equal(laplacian(g).view(np.int64),
                          laplacian_reference(g.weights).view(np.int64))


def test_pair_difference_matrix():
    Q = np.arange(12, dtype=float).reshape(4, 3)
    D = pair_difference_matrix(Q)
    assert D.shape == (3, 3)
    assert np.array_equal(D, Q[1:] - Q[:-1])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_random_graph_laplacian_properties(n, seed):
    rng = np.random.default_rng(seed)
    # keyed by pair, since build_custom refuses a repeated edge: a later
    # draw of the same pair replaces the earlier one
    edges = {}
    for i in range(2, n + 1):
        edges[int(rng.integers(1, i)), i] = float(rng.uniform(0.1, 2.0))
    for _ in range(n):
        i, j = rng.integers(1, n + 1, size=2)
        if i != j:
            edges[int(min(i, j)), int(max(i, j))] = float(
                rng.uniform(0.1, 2.0))
    g = build_custom(n, [(i, j, w) for (i, j), w in edges.items()])
    L = laplacian(g)
    assert np.abs(L.sum(axis=1)).max() < 1e-12
    lam = spectrum(L).eigenvalues
    assert lam[0] > -1e-10
    if n >= 2:
        assert lam[1] > 1e-12  # connected
