import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (InvalidParameterError, InvalidSizeError,
                          WeightedGraph, add_pair_edges, build_complete,
                          build_custom, build_path, build_pcycle, laplacian,
                          pair_difference_matrix, spectrum)

from oracles import path_eigenvalue, pcycle_eigenvalues


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


@pytest.mark.parametrize("build,args", [
    (build_complete, (1,)),
    (build_path, (0,)),
    (build_pcycle, (2, 1)),
])
def test_builders_reject_small_n(build, args):
    with pytest.raises(InvalidSizeError):
        build(*args)


def test_pcycle_rejects_bad_p():
    with pytest.raises(InvalidParameterError):
        build_pcycle(6, 0)
    with pytest.raises(InvalidParameterError):
        build_pcycle(6, 3)  # p must stay below n/2
    build_pcycle(6, 2)


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


def test_graph_weights_are_frozen():
    g = build_path(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


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


def test_add_pair_edges_rejects_pair_nodes():
    g = build_path(6)
    for target in (2, 3):
        with pytest.raises(InvalidParameterError):
            add_pair_edges(g, 2, target)
    with pytest.raises(InvalidParameterError):
        add_pair_edges(g, 0, 5)
    with pytest.raises(InvalidParameterError):
        add_pair_edges(g, 2, 7)


def test_laplacian_small_fixture():
    L = laplacian(build_path(3))
    assert np.array_equal(L, np.array([[1, -1, 0], [-1, 2, -1],
                                       [0, -1, 1]], dtype=float))


def test_pair_difference_matrix():
    Q = np.arange(12, dtype=float).reshape(4, 3)
    D = pair_difference_matrix(Q)
    assert D.shape == (3, 3)
    assert np.array_equal(D, Q[1:] - Q[:-1])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_random_graph_laplacian_properties(n, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(2, n + 1):
        edges.append((int(rng.integers(1, i)), i,
                      float(rng.uniform(0.1, 2.0))))
    for _ in range(n):
        i, j = rng.integers(1, n + 1, size=2)
        if i != j:
            edges.append((int(min(i, j)), int(max(i, j)),
                          float(rng.uniform(0.1, 2.0))))
    g = build_custom(n, edges)
    L = laplacian(g)
    assert np.abs(L.sum(axis=1)).max() < 1e-12
    lam = spectrum(L).eigenvalues
    assert lam[0] > -1e-10
    if n >= 2:
        assert lam[1] > 1e-12  # connected
