"""Weighted undirected communication graphs and their Laplacian spectra.

Graphs are immutable after construction: symmetric nonnegative weights,
zero diagonal, connected. Node and pair indices are 1-based in every
user-facing interface; internal arrays are 0-based.
"""
from __future__ import annotations

import math
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


def _integer(value, name: str, error=InvalidParameterError) -> int:
    """value as an int if it is an integer or an integral float, not a
    bool; otherwise `error`, naming the value as `name`."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise error(f"{name} {value!r} is not an integer")


def _count(value, name: str, minimum: int,
           error=InvalidParameterError) -> int:
    """value as an int by the integer rule, at least `minimum`;
    otherwise `error`, naming the value as `name`."""
    count = _integer(value, name, error)
    if count < minimum:
        raise error(f"{name}={count} must be >= {minimum}")
    return count


def _real(value, name: str, error=InvalidParameterError,
          positive: bool = False) -> float:
    """value as a float if it is a finite real number, not a bool, and
    with `positive` above 0; otherwise `error`, naming the value as
    `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} {value!r} is not a real number")
    try:
        x = float(value)
    except OverflowError:   # an int or a Fraction beyond the float range
        x = math.inf
    if positive and not 0.0 < x < math.inf:
        raise error(f"{name}={value!r} must be positive")
    if not math.isfinite(x):
        raise error(f"{name} {value!r} is not finite")
    return x


def _seed(value, error=InvalidParameterError) -> int:
    """value as an int by the integer rule, in 0 <= seed < 2**64, the
    range of numpy's SeedSequence; otherwise `error`."""
    seed = _integer(value, "seed", error)
    if not 0 <= seed < 2 ** 64:
        raise error(f"seed {seed} must be in 0 .. 2**64 - 1")
    return seed


def _vehicle_count(n, minimum: int = 2) -> int:
    """n as an int by the integer rule, at least `minimum` and inside the
    float range, as the eigenvalues and sizes computed from it are;
    otherwise InvalidSizeError."""
    n = _integer(n, "vehicle count", InvalidSizeError)
    if n < minimum:
        raise InvalidSizeError(f"need at least {minimum} vehicles, got n={n}")
    _real(n, "vehicle count", InvalidSizeError)
    return n


@dataclass(frozen=True)
class WeightedGraph:
    """Communication topology: symmetric nonnegative link weights."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _vehicle_count(self.n))
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

    @classmethod
    def _trusted(cls, n: int, weights: np.ndarray) -> WeightedGraph:
        """Wrap a builder's fresh weights without the checks of
        __post_init__ and without a copy; the array becomes read-only.
        They are finite, symmetric, nonnegative and with a zero diagonal
        by construction, or, for build_custom, by the check of each edge
        as it enters, and the builder has checked them connected where
        its construction does not make them so."""
        self = object.__new__(cls)
        weights.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        return self


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


def _zeros(n: int, shape, what: str, dtype=float) -> np.ndarray:
    """A zero array of `shape`, `what` of an n-vehicle platoon;
    InvalidSizeError, naming `what`, where numpy cannot allocate it."""
    try:
        return np.zeros(shape, dtype)
    except (MemoryError, ValueError):   # ValueError: beyond numpy's shapes
        raise InvalidSizeError(
            f"n={n:.6g} vehicles: {what} does not fit in memory") from None


def build_complete(n: int) -> WeightedGraph:
    """Unit-weight clique on n nodes."""
    n = _vehicle_count(n)
    w = _zeros(n, (n, n), "the n x n weight matrix")
    w += 1.0
    np.fill_diagonal(w, 0.0)
    return WeightedGraph._trusted(n, w)


def build_path(n: int) -> WeightedGraph:
    """Unit-weight chain: node i linked to i+1."""
    n = _vehicle_count(n)
    w = _zeros(n, (n, n), "the n x n weight matrix")
    idx = np.arange(n - 1)
    w[idx, idx + 1] = 1.0
    w[idx + 1, idx] = 1.0
    return WeightedGraph._trusted(n, w)


def build_pcycle(n: int, p: int) -> WeightedGraph:
    """Circulant ring: node i linked to the p nearest nodes on each side."""
    n = _vehicle_count(n, 3)
    p = _integer(p, "neighbor radius p")
    if not 1 <= p <= (n - 1) // 2:
        raise InvalidParameterError(
            f"neighbor radius p={p} outside 1..{(n - 1) // 2} for n={n}")
    w = _zeros(n, (n, n), "the n x n weight matrix")
    for q in range(1, p + 1):
        i = np.arange(n)
        j = (i + q) % n
        w[i, j] = 1.0
        w[j, i] = 1.0
    return WeightedGraph._trusted(n, w)


def build_custom(n: int, edges: Iterable[Sequence[float]]) -> WeightedGraph:
    """Graph from an explicit edge list of (i, j, weight), 1-based nodes."""
    n = _vehicle_count(n)
    w = _zeros(n, (n, n), "the n x n weight matrix")
    seen = set()
    for e in edges:
        try:
            i, j, wt = e
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"edge {e!r} is not (i, j, weight)") from None
        i, j = (_integer(v, f"edge {e!r} endpoint") for v in (i, j))
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidParameterError(f"edge ({i},{j}) out of range 1..{n}")
        if i == j:
            raise InvalidParameterError(f"self-loop on node {i}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise InvalidParameterError(f"edge ({i},{j}) repeats {pair}")
        seen.add(pair)
        wt = _real(wt, f"edge ({i},{j}) weight")
        if wt < 0:
            raise InvalidParameterError(f"edge ({i},{j}) has negative weight")
        w[i - 1, j - 1] = wt
        w[j - 1, i - 1] = wt
    # every entry was checked as its edge entered, and both mirror
    # entries written: only connectivity is left to check
    _require_connected(w)
    return WeightedGraph._trusted(n, w)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Graph Laplacian: degree on the diagonal, minus weights elsewhere;
    a degree beyond the float range is an InvalidParameterError."""
    return _laplacian(g.weights)


def _laplacian(w: np.ndarray) -> np.ndarray:
    """Laplacian of a weight matrix the caller vouches for: a checked
    graph's weights, or a copy with links added. One n x n array is
    built: 0 - w, with each degree less w's own diagonal entry on the
    diagonal, the entries of np.diag(w.sum(axis=1)) - w bit for bit (-w
    would turn +0 into -0). The weights are finite, so a degree that
    overflows is the one non-finite entry it can get; it is refused
    here."""
    with np.errstate(over="ignore"):
        degree = w.sum(axis=1)
        # nonnegative degrees have a finite total only when each is
        # finite, so the total, from the reduction just run, clears the
        # usual case; np.isfinite here would map numpy code (~0.2 MB
        # resident) ahead of the eigensolver's memory peak
        total = degree.sum()
    if not math.isfinite(total) and not np.isfinite(degree).all():
        raise InvalidParameterError("matrix entries must be finite")
    L = np.subtract(0.0, w)
    np.fill_diagonal(L, degree - np.diagonal(w))
    return L


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigenvalues ascending and the matching orthonormal eigenvectors
    (column k is the eigenvector of eigenvalues[k])."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectrum(L: np.ndarray) -> LaplacianSpectrum:
    """Orthonormal eigen-decomposition of a symmetric matrix, once L is
    checked square, non-empty, finite and symmetric.

    Column signs are normalized (largest-magnitude entry positive) so
    repeated runs produce identical fixtures; the first column of a
    connected Laplacian comes out all-positive.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or not L.size:
        raise InvalidParameterError(
            f"matrix shape {L.shape} is not square and non-empty")
    if not np.isfinite(L).all():
        raise InvalidParameterError("matrix entries must be finite")
    if np.abs(L - L.T).max() > SYMMETRY_TOL:
        raise InvalidParameterError("matrix is not symmetric")
    return _spectrum(L)


def _spectrum(L: np.ndarray) -> LaplacianSpectrum:
    """The spectrum of a symmetric matrix the caller vouches for, such as
    a Laplacian the package built, without spectrum's checks: eigh's own
    arrays, the signs flipped in place, made read-only."""
    lam, Q = _eig(np.linalg.eigh, L)
    flip = Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])] < 0.0
    np.negative(Q, out=Q, where=flip)
    lam.setflags(write=False)
    Q.setflags(write=False)
    return LaplacianSpectrum(lam, Q)


def _eig(solver, L: np.ndarray):
    """solver (np.linalg.eigh, or eigvalsh for the eigenvalues alone) of
    a symmetric matrix the caller vouches for; a failed solve is a
    NumericalError."""
    try:
        return solver(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc


def pair_difference_matrix(Q: np.ndarray) -> np.ndarray:
    """Rows are the consecutive-row differences of Q: row i equals
    (e_{i+1} - e_i)^T Q, the pair-i projection of each eigenvector."""
    return np.diff(np.asarray(Q), axis=0)
