"""Steady-state covariance of inter-vehicle distances.

The scalar integral f(s1, s2) = integral over r of dr / |p(ir)|^2, with
p(s) = s^2 + s1 (s + s2) e^{-s}, is finite exactly when (s1, s2) lies
inside the stability region. It is 2 pi times the squared H2 norm of
the delay system y'' = -s1 y'(t - 1) - s1 s2 y(t - 1), which its delay
Lyapunov matrix gives exactly (Jarlebring, Vanbiervliet and Michiels,
IEEE TAC 56(4), 2011). The covariance of the n-1 inter-vehicle distances
is assembled from one f value per Laplacian mode. On the complete graph
every mode is the same, so one f evaluation gives the marginal variance
sigma_c of the tridiagonal covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NearBoundaryError, NumericalError
from .graph import (LaplacianSpectrum, _real, _vehicle_count,
                    pair_difference_matrix)
from .stability import StabilityReport, _report, check_platoon

# Refuse f for a mode closer than this to the stability boundary: f grows
# like 1/margin there, and its 1e-8 accuracy is tested down to this margin.
NEAR_BOUNDARY_MARGIN = 1e-6

_SMALLEST_NORMAL = np.finfo(float).tiny


def _diffusion(g) -> float:
    """The diffusion magnitude g as a float, a nonzero real number."""
    g = _real(g, "diffusion g")
    if g == 0.0:
        raise InvalidParameterError(f"diffusion g={g!r} must be nonzero")
    return g


# NoiseParams field -> the check of its value, which returns it as a float
_NOISE_RULES = {
    "g": _diffusion,
    "tau": lambda tau: _real(tau, "delay tau", positive=True),
    "beta": lambda beta: _real(beta, "gain beta", positive=True),
}


@dataclass(frozen=True)
class NoiseParams:
    """Diffusion magnitude g (length/s^1.5), delay tau (s), gain beta
    (1/s); each is stored as a float."""

    g: float
    tau: float
    beta: float

    def __post_init__(self):
        for name, rule in _NOISE_RULES.items():
            object.__setattr__(self, name, rule(getattr(self, name)))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive semi-definite (n-1)x(n-1) distance covariance.

    A matrix built by hand gets the full check: square and non-empty,
    finite, symmetric, positive semi-definite (an eigvalsh) and with a
    positive diagonal. steady_state_covariance wraps its own result
    through `_trusted`, which checks nothing: that result is PSD by
    construction and is checked where it is built."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or not v.size:
            raise InvalidParameterError(
                f"covariance shape {v.shape} is not square and non-empty")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("covariance entries must be finite")
        if np.abs(v - v.T).max() > 1e-12 * max(1.0, np.abs(v).max()):
            raise InvalidParameterError("covariance must be symmetric")
        eig = np.linalg.eigvalsh(v)
        if eig[0] < -1e-9 * max(eig[-1], 0.0):
            raise InvalidParameterError("covariance must be positive semi-definite")
        if np.any(np.diag(v) <= 0.0):
            raise InvalidParameterError("covariance diagonal must be positive")
        vv = np.array(v)
        vv.setflags(write=False)
        object.__setattr__(self, "values", vv)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> CovarianceMatrix:
        """Wrap a package-built float array, symmetric by construction,
        without the checks of __post_init__; the array becomes
        read-only."""
        self = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        return self

    @property
    def dim(self) -> int:
        return self.values.shape[0]


# The mode-free parts of _f_modes, built once at import.
_A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
_ZERO = np.zeros((4, 4))


def _kron_parts(a: np.ndarray):
    """kron(I, a^T) and kron(a^T, I), the 4x4 maps vec X -> vec(X a) and
    vec X -> vec(a^T X), and the 8x8 block [[0, right], [-left, 0]]."""
    right, left = np.kron(np.eye(2), a.T), np.kron(a.T, np.eye(2))
    return right, left, np.block([[_ZERO, right], [-left, _ZERO]])


_A0_RIGHT, _A0_LEFT, _ = _kron_parts(_A0)
_A0_BLOCK = np.block([[_A0_RIGHT, _ZERO], [_ZERO, -_A0_LEFT]])
_A0_JUMP = _A0_RIGHT + _A0_LEFT
# b = [[0, 0], [-s2, -1]] is B1 + s2 B2, and so is each of its parts.
# Every entry is 0, -1 or -s2, never a sum, so B1 + s2 B2 gives it
# exactly as a product built from b itself would.
_B1_RIGHT, _B1_LEFT, _B1_BLOCK = _kron_parts(
    np.array([[0.0, 0.0], [0.0, -1.0]]))
_B2_RIGHT, _B2_LEFT, _B2_BLOCK = _kron_parts(
    np.array([[0.0, 0.0], [-1.0, 0.0]]))
_EYE8 = np.eye(8)
_VEC_XT = np.eye(4)[[0, 2, 1, 3]]  # vec X -> vec X^T


def _f_modes(s1: np.ndarray, s2: float) -> np.ndarray:
    """f for each mode s1 at the common s2. Its domain is the stability
    region less a margin of NEAR_BOUNDARY_MARGIN: its one caller,
    _mode_f, refuses every other point first.

    In x = (y, y') a mode is x'(t) = A0 x(t) + A1 x(t - 1) with
    A0 = [[0, 1], [0, 0]], A1 = s1 b, b = [[0, 0], [-s2, -1]], and
    f = 2 pi U(0)[1, 1] for its delay Lyapunov matrix U, Q = diag(1, 0).
    X(t) = U(t) and Y(t) = U(t - 1) solve X' = X A0 + Y A1 and
    Y' = -A0^T Y - A1^T X on [0, 1]: z(1) = expm(M) z(0), z = (vec X,
    vec Y) row-major. Eight rows fix z(0): Y(1) = X(0)^T; entries (0,0),
    (0,1), (1,1) of X(0) A0 + A0^T X(0) + Y(0) A1 + A1^T X(1) = -Q; and
    U(0)[0, 1] = U(0)[1, 0], without which the system has rank 7.
    """
    s1 = s1[:, None, None]
    b_right = _B1_RIGHT + s2 * _B2_RIGHT
    b_left = _B1_LEFT + s2 * _B2_LEFT
    # A row of M holds at most a 1 from A0 and entries of s1 b summing to
    # at most s1 max(1, s2) = s1 (s2 < a/tan(a) < 1): ||M||_inf < 1 + pi/2,
    # so ||M / 2^5||_inf < 0.081 and the Taylor remainder after degree 9
    # is below 0.081^10 / 10! < 4e-18.
    h = (_A0_BLOCK + s1 * (_B1_BLOCK + s2 * _B2_BLOCK)) / 32.0
    e = _EYE8 + h / 9.0
    for k in range(8, 0, -1):
        e = _EYE8 + h @ e / k
    for _ in range(5):
        e = e @ e
    rows = np.empty_like(e)
    rows[:, :4] = e[:, 4:]
    rows[:, :4, :4] -= _VEC_XT
    jump = s1 * b_left @ e[:, :4]
    jump[:, :, :4] += _A0_JUMP
    jump[:, :, 4:] += s1 * b_right
    rows[:, 4:7] = jump[:, [0, 1, 3]]
    rows[:, 7] = [0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    rhs = np.zeros(rows.shape[:2] + (1,))
    rhs[:, 4] = -1.0
    return 2.0 * math.pi * np.linalg.solve(rows, rhs)[:, 3, 0]


def _mode_f(report: StabilityReport) -> np.ndarray:
    """f of every mode of the report, the one gate in front of _f_modes:
    the report's refusal unless the platoon forms, NearBoundaryError
    below NEAR_BOUNDARY_MARGIN, and NumericalError unless every f is
    finite and positive (f ~ pi / (s1^2 s2) overflows for a tiny gain,
    and at a subnormal s2 the system is singular)."""
    report.require_stable()
    margin = report.margin.min()
    if margin < NEAR_BOUNDARY_MARGIN:
        raise NearBoundaryError(
            f"stability margin {margin:.3g} below {NEAR_BOUNDARY_MARGIN:g}; "
            f"refusing to compute f this close to the boundary")
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = _f_modes(report.s1, report.s2)
    except np.linalg.LinAlgError:
        f = np.array([math.nan])
    if not np.all(np.isfinite(f) & (f > 0.0)):
        raise NumericalError("f is not finite and positive on every mode")
    return f


def f_integral(s1: float, s2: float) -> float:
    """The covariance integral at (s1, s2), gated as every f is: by the
    report of eigenvalue s1 at tau = 1 and beta = s2. Positive, with
    relative accuracy better than 1e-8."""
    return float(_mode_f(_report(np.array([s1], dtype=float), 1.0, s2))[0])


def _scale(noise: NoiseParams) -> float:
    """g^2 tau^3, inf where it overflows; float ** raises there."""
    try:
        return noise.g * noise.g * noise.tau ** 3
    except OverflowError:
        return math.inf


def _refuse_out_of_range(values: np.ndarray, noise: NoiseParams) -> None:
    """Refuse a covariance (or sigma_c) whose scale g^2 tau^3 took it out
    of the float range: an entry overflowed, or a variance underflowed
    to 0 or to a subnormal, which has lost its relative precision."""
    if not np.all(np.isfinite(values)):
        what = "overflows: the covariance is not finite"
    elif not np.all(np.diagonal(np.atleast_2d(values)) >= _SMALLEST_NORMAL):
        what = ("underflows: a variance is below the smallest normal "
                "float")
    else:
        return
    raise InvalidParameterError(
        f"covariance scale g^2 tau^3 with g={noise.g!r}, "
        f"tau={noise.tau!r} {what}")


def steady_state_covariance(spec: LaplacianSpectrum,
                            noise: NoiseParams) -> CovarianceMatrix:
    """Distance covariance from the Laplacian spectrum (any connected
    topology). One batched f evaluation over all modes.

    Sigma = pref W diag(f) W^T with every f > 0 is positive semi-definite
    by construction, and 0.5 (Sigma + Sigma^T) is exactly symmetric, so
    the result skips the eigvalsh of a hand-built CovarianceMatrix. It
    is checked only for finite entries and a positive diagonal, at or
    above the smallest normal float; a scale g^2 tau^3 that breaks
    either is an InvalidParameterError.

    The steps after the product run in place and give the bits of
    0.5 (Sigma + Sigma^T): where Sigma^T overlaps the array it is added
    into, numpy reads it as if copied first."""
    fvals = _mode_f(check_platoon(spec, noise.tau, noise.beta))
    W = pair_difference_matrix(spec.eigenvectors)[:, 1:]
    pref = _scale(noise) / (2.0 * math.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = W * fvals
        scaled *= pref
        sigma = scaled @ W.T
        del scaled, W
        sigma += sigma.T
        sigma *= 0.5
    _refuse_out_of_range(sigma, noise)
    return CovarianceMatrix._trusted(sigma)


def complete_graph_sigma_c(n: int, noise: NoiseParams) -> float:
    """Marginal distance variance sigma_c on the unit-weight complete
    graph (all nonzero Laplacian eigenvalues equal n); refused, as the
    covariance is, when g^2 tau^3 takes it out of the float range."""
    n = _vehicle_count(n)
    report = _report(np.array([n], dtype=float), noise.tau, noise.beta)
    f = float(_mode_f(report)[0])
    sigma_c = _scale(noise) * f / math.pi
    _refuse_out_of_range(np.array(sigma_c), noise)
    return sigma_c
