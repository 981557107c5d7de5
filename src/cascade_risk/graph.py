"""Weighted undirected communication graphs and their Laplacian spectra.

Graphs are immutable after construction: symmetric nonnegative weights,
zero diagonal, connected. Node and pair indices are 1-based in every
user-facing interface; internal arrays are 0-based.
"""
from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError, InvalidSizeError, NumericalError

SYMMETRY_TOL = 1e-12


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _integer(value) -> int | None:
    """value as an int if it is an integer or an integral float, not a
    bool; None otherwise."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


@dataclass(frozen=True)
class WeightedGraph:
    """Communication topology: symmetric nonnegative link weights."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSizeError(f"need at least 2 nodes, got n={self.n}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise InvalidParameterError(
                f"weight matrix shape {w.shape} does not match n={self.n}")
        if not np.all(np.isfinite(w)):
            raise InvalidParameterError("weights must be finite")
        if np.abs(w - w.T).max() > SYMMETRY_TOL:
            raise InvalidParameterError("weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise InvalidParameterError("self-loops are not allowed")
        if np.any(w < 0.0):
            raise InvalidParameterError("weights must be nonnegative")
        _require_connected(w)
        object.__setattr__(self, "weights", _frozen_array(w))


def _require_connected(weights: np.ndarray) -> None:
    n = weights.shape[0]
    seen = np.zeros(n, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        i = queue.popleft()
        for j in np.nonzero(weights[i] > 0.0)[0]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    if not seen.all():
        raise InvalidParameterError("graph is not connected")


def build_complete(n: int) -> WeightedGraph:
    """Unit-weight clique on n nodes."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 nodes, got n={n}")
    w = np.ones((n, n)) - np.eye(n)
    return WeightedGraph(n, w)


def build_path(n: int) -> WeightedGraph:
    """Unit-weight chain: node i linked to i+1."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 nodes, got n={n}")
    w = np.zeros((n, n))
    idx = np.arange(n - 1)
    w[idx, idx + 1] = 1.0
    w[idx + 1, idx] = 1.0
    return WeightedGraph(n, w)


def build_pcycle(n: int, p: int) -> WeightedGraph:
    """Circulant ring: node i linked to the p nearest nodes on each side."""
    if n < 3:
        raise InvalidSizeError(f"need at least 3 nodes for a ring, got n={n}")
    if not 1 <= p <= (n - 1) // 2:
        raise InvalidParameterError(
            f"neighbor radius p={p} outside 1..{(n - 1) // 2} for n={n}")
    w = np.zeros((n, n))
    for q in range(1, p + 1):
        i = np.arange(n)
        j = (i + q) % n
        w[i, j] = 1.0
        w[j, i] = 1.0
    return WeightedGraph(n, w)


def build_custom(n: int, edges: Iterable[Sequence[float]]) -> WeightedGraph:
    """Graph from an explicit edge list of (i, j, weight), 1-based nodes."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 nodes, got n={n}")
    w = np.zeros((n, n))
    for e in edges:
        if len(e) != 3:
            raise InvalidParameterError(f"edge {e!r} is not (i, j, weight)")
        i, j, wt = e
        i, j = _integer(i), _integer(j)
        if i is None or j is None:
            raise InvalidParameterError(f"edge {e!r} has non-integer endpoints")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidParameterError(f"edge ({i},{j}) out of range 1..{n}")
        if i == j:
            raise InvalidParameterError(f"self-loop on node {i}")
        if wt < 0:
            raise InvalidParameterError(f"edge ({i},{j}) has negative weight")
        w[i - 1, j - 1] = wt
        w[j - 1, i - 1] = wt
    return WeightedGraph(n, w)


def add_pair_edges(g: WeightedGraph, j: int, target: int) -> WeightedGraph:
    """Link both vehicles of pair j (nodes j and j+1) to a target node.

    Idempotent: existing links are set to weight 1. Indices are 1-based.
    """
    if not 1 <= j <= g.n - 1:
        raise InvalidParameterError(f"pair index {j} outside 1..{g.n - 1}")
    if not 1 <= target <= g.n:
        raise InvalidParameterError(f"target node {target} outside 1..{g.n}")
    if target in (j, j + 1):
        raise InvalidParameterError(
            f"target node {target} coincides with pair ({j},{j + 1})")
    w = np.array(g.weights)
    for node in (j, j + 1):
        w[node - 1, target - 1] = 1.0
        w[target - 1, node - 1] = 1.0
    return WeightedGraph(g.n, w)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Graph Laplacian: degree on the diagonal, minus weights elsewhere."""
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigenvalues ascending and the matching orthonormal eigenvectors
    (column k is the eigenvector of eigenvalues[k])."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def spectrum(L: np.ndarray) -> LaplacianSpectrum:
    """Orthonormal eigen-decomposition of a symmetric matrix.

    Column signs are normalized (largest-magnitude entry positive) so
    repeated runs produce identical fixtures; the first column of a
    connected Laplacian comes out all-positive.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise InvalidParameterError(f"matrix shape {L.shape} is not square")
    if np.abs(L - L.T).max() > SYMMETRY_TOL:
        raise InvalidParameterError("matrix is not symmetric")
    try:
        lam, Q = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    flip = Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])] < 0.0
    Q[:, flip] = -Q[:, flip]
    return LaplacianSpectrum(_frozen_array(lam), _frozen_array(Q))


def pair_difference_matrix(Q: np.ndarray) -> np.ndarray:
    """Rows are the consecutive-row differences of Q: row i equals
    (e_{i+1} - e_i)^T Q, the pair-i projection of each eigenvector."""
    return np.diff(np.asarray(Q), axis=0)
