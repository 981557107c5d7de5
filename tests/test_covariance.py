import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (CovarianceMatrix, InvalidParameterError,
                          InvalidSizeError, NearBoundaryError, NoiseParams,
                          UnstablePlatoonError,
                          build_complete, build_path, build_pcycle,
                          complete_graph_sigma_c, f_integral, laplacian,
                          region_bound, spectrum, steady_state_covariance)
from cascade_risk import covariance, stability

from oracles import f_simpson, integrand, tridiag_matrix

COMPLETE_NOISE = NoiseParams(g=10.0, tau=0.03, beta=0.005)
PATH_NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)


def test_noise_params_validation():
    NoiseParams(g=-1.0, tau=0.1, beta=1.0)  # sign of g is irrelevant
    for bad in (dict(g=0.0, tau=0.1, beta=1.0),
                dict(g=1.0, tau=0.0, beta=1.0),
                dict(g=1.0, tau=-0.1, beta=1.0),
                dict(g=1.0, tau=0.1, beta=0.0),
                dict(g=math.inf, tau=0.1, beta=1.0),
                dict(g=1.0, tau=math.nan, beta=1.0),
                dict(g=1.0, tau=math.inf, beta=1.0),
                dict(g=1.0, tau=0.1, beta=math.nan),
                dict(g=1.0, tau=0.1, beta=math.inf)):
        with pytest.raises(InvalidParameterError):
            NoiseParams(**bad)


def test_integrand_at_zero_and_even():
    s1, s2 = 0.7, 0.2
    assert abs(integrand(0.0, s1, s2) - 1.0 / (s1 * s2) ** 2) < 1e-15
    for r in (0.3, 1.7, 12.0):
        assert integrand(r, s1, s2) == integrand(-r, s1, s2)


@pytest.mark.parametrize("s1,s2", [
    (1.5, 1.5e-4),                                   # sharp peak at r=0
    (2.0 * (1.0 - math.cos(math.pi / 50)) * 0.03, 0.06),  # tiny s1
    (0.5, 0.3),
    (1.0, 0.1),
])
def test_f_integral_matches_simpson_oracle(s1, s2):
    ours = f_integral(s1, s2)
    ref = f_simpson(s1, s2)
    assert abs(ours - ref) <= 1e-8 * ref


def test_f_integral_frozen_values():
    assert abs(f_integral(1.5, 1.5e-4) - 9.333814175495e3) < 1e-9 * 9.3e3
    assert abs(f_integral(0.5, 0.3) - 6.920672408229e1) < 1e-9 * 69.0
    s1 = 2.0 * (1.0 - math.cos(math.pi / 50)) * 0.03
    assert abs(f_integral(s1, 0.06) - 3.973709895895e9) < 1e-8 * 3.97e9


def test_f_integral_outside_region():
    # the region is open: both edges of s1 and of s2 are outside
    s1 = 0.5
    for s2 in (region_bound(s1) + 0.01, region_bound(s1), 0.0, -0.1,
               math.nan):
        with pytest.raises(UnstablePlatoonError):
            f_integral(s1, s2)
    for bad_s1 in (0.0, math.pi / 2, 2.0, -0.1, math.nan):
        with pytest.raises(UnstablePlatoonError):
            f_integral(bad_s1, 0.1)


@pytest.mark.parametrize("warm", [False, True])
def test_one_region_root_per_mode(monkeypatch, warm):
    # check_platoon finds the region bound of every mode in one call; the
    # covariance solves for none again and evaluates f for all modes in
    # one call. A warm run, after one covariance was already computed,
    # does the same work: no state carries over from one call to the next
    bound_calls, f_calls = [], []

    def counting_region_bound(s1):
        bound_calls.append(np.shape(s1))
        return region_bound(s1)

    def counting_f_modes(s1, s2):
        f_calls.append(len(s1))
        return f_modes(s1, s2)

    f_modes = covariance._f_modes
    spec = spectrum(laplacian(build_path(20)))
    if warm:
        steady_state_covariance(spec, PATH_NOISE)
    monkeypatch.setattr(stability, "region_bound", counting_region_bound)
    monkeypatch.setattr(covariance, "region_bound", counting_region_bound)
    monkeypatch.setattr(covariance, "_f_modes", counting_f_modes)
    steady_state_covariance(spec, PATH_NOISE)
    assert bound_calls == [(19,)]
    assert f_calls == [19]


def test_f_integral_near_boundary_refused():
    s1 = 0.5
    with pytest.raises(NearBoundaryError):
        f_integral(s1, region_bound(s1) - 1e-7)
    # a 1e-5 margin is still accepted
    assert f_integral(s1, region_bound(s1) - 1e-5) > 0.0


# (s1, s2, f) at stability margins 1.0001e-6 and 1e-5: s2 is the bound
# a/tan(a) minus the margin, rounded to a double, and f the integral at
# exactly that (s1, s2) by mpmath quadrature at 30 digits, split at the
# resonance radius; a 60-digit delay Lyapunov solve agrees to 1e-19.
NEAR_BOUNDARY_F = [
    (0.001, 0.9996655887636149, 3141805424333.8351),
    (0.001, 0.9996565888636149, 314214788861.23159),
    (0.06, 0.9797134171842047, 881519316.58185013),
    (0.06, 0.9797044172842047, 88161548.571723052),
    (0.5, 0.8099862983657394, 13884217.015923421),
    (0.5, 0.8099772984657394, 1388574.5868331247),
    (1.0, 0.5473508896573983, 4060205.1712158664),
    (1.0, 0.5473418897573984, 406066.40818398987),
    (1.5, 0.10145909457606007, 2535056.0967698403),
    (1.5, 0.10145009467606007, 253543.66711580321),
    (1.56, 0.016703367495847415, 2539252.2696802053),
    (1.56, 0.016694367595847415, 254020.61530557566),
    (1.57, 0.0012484530614496668, 2546648.7935659314),
    (1.57, 0.0012394531614496667, 255616.9632285025),
    (1.5707, 0.00015028895372503438, 2554625.0231664816),
    (1.5707, 0.00014128905372503439, 263653.78082391614),
]

# (s1, s2) at margin 0.9999e-6, just inside the refusal
REFUSED_POINTS = [
    (0.001, 0.9996655889636149),
    (0.06, 0.9797134173842046),
    (0.5, 0.8099862985657394),
    (1.0, 0.5473508898573983),
    (1.5, 0.10145909477606008),
    (1.56, 0.016703367695847415),
    (1.57, 0.0012484532614496669),
    (1.5707, 0.0001502891537250344),
]


def _two_vehicle(s1, s2):
    # the one nonzero Laplacian eigenvalue of a 2-vehicle path is 2
    tau = 0.5 * s1
    return spectrum(laplacian(build_path(2))), NoiseParams(1.0, tau, s2 / tau)


@pytest.mark.parametrize("s1,s2,ref", NEAR_BOUNDARY_F)
def test_f_accurate_down_to_refusal(s1, s2, ref):
    assert abs(f_integral(s1, s2) - ref) <= 1e-8 * ref
    # the one-entry covariance is g^2 tau^3 f / pi, with g = 1
    spec, noise = _two_vehicle(s1, s2)
    sigma = steady_state_covariance(spec, noise).values[0, 0]
    expected = noise.tau ** 3 * ref / math.pi
    assert abs(sigma - expected) <= 1e-8 * expected


@pytest.mark.parametrize("s1,s2", REFUSED_POINTS)
def test_refused_below_near_boundary_margin(s1, s2):
    with pytest.raises(NearBoundaryError):
        f_integral(s1, s2)
    with pytest.raises(NearBoundaryError):
        steady_state_covariance(*_two_vehicle(s1, s2))


def test_covariance_matrix_validation():
    good = np.array([[2.0, -0.5], [-0.5, 2.0]])
    cm = CovarianceMatrix(good)
    assert cm.dim == 2
    with pytest.raises(InvalidParameterError):
        CovarianceMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))   # asymmetric
    with pytest.raises(InvalidParameterError):
        CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))   # indefinite
    with pytest.raises(InvalidParameterError):
        CovarianceMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(InvalidParameterError):
        CovarianceMatrix(np.ones((2, 3)))
    with pytest.raises(InvalidParameterError):
        CovarianceMatrix(np.zeros((0, 0)))


def test_steady_state_covariance_path_oracle():
    spec = spectrum(laplacian(build_path(5)))
    sigma = steady_state_covariance(spec, PATH_NOISE)
    # independent assembly from the Simpson oracle values
    W = np.diff(spec.eigenvectors, axis=0)[:, 1:]
    fvals = np.array([f_simpson(lam * PATH_NOISE.tau,
                                PATH_NOISE.beta * PATH_NOISE.tau)
                      for lam in spec.eigenvalues[1:]])
    pref = PATH_NOISE.g ** 2 * PATH_NOISE.tau ** 3 / (2.0 * math.pi)
    ref = pref * (W * fvals) @ W.T
    assert np.abs(sigma.values - ref).max() < 1e-10 * np.abs(ref).max()
    # spot value pinned from the frozen oracle run
    assert abs(sigma.values[0, 0] - 0.002130262264026963) < 1e-12


def test_steady_state_covariance_psd_and_symmetric():
    spec = spectrum(laplacian(build_pcycle(20, 3)))
    sigma = steady_state_covariance(spec, NoiseParams(g=0.1, tau=0.01,
                                                      beta=2.0))
    v = sigma.values
    assert np.array_equal(v, v.T)
    np.linalg.cholesky(v + 1e-15 * np.eye(v.shape[0]))


def test_covariance_quadratic_in_g():
    spec = spectrum(laplacian(build_path(6)))
    a = steady_state_covariance(spec, NoiseParams(0.1, 0.03, 2.0))
    b = steady_state_covariance(spec, NoiseParams(0.2, 0.03, 2.0))
    assert np.allclose(4.0 * a.values, b.values, rtol=1e-14, atol=0.0)


def test_steady_state_covariance_unstable():
    spec = spectrum(laplacian(build_complete(50)))
    with pytest.raises(UnstablePlatoonError) as exc_info:
        steady_state_covariance(spec, NoiseParams(10.0, 0.04, 0.005))
    assert "platoon does not form" in str(exc_info.value)


def test_steady_state_covariance_near_boundary():
    # beta*tau just below the mode bound
    spec = spectrum(laplacian(build_complete(50)))
    bound = region_bound(50 * 0.03)
    beta = (bound - 1e-8) / 0.03
    with pytest.raises(NearBoundaryError):
        steady_state_covariance(spec, NoiseParams(10.0, 0.03, beta))


def test_complete_graph_covariance_structure():
    # the generic route on the complete graph gives the tridiagonal
    # sigma_c / -sigma_c/2 covariance the closed form assumes
    v = steady_state_covariance(spectrum(laplacian(build_complete(6))),
                                COMPLETE_NOISE).values
    sc = complete_graph_sigma_c(6, COMPLETE_NOISE)
    assert np.abs(v - tridiag_matrix(5, sc)).max() <= 1e-12 * sc


def test_complete_graph_sigma_c_frozen():
    sc = complete_graph_sigma_c(50, COMPLETE_NOISE)
    assert abs(sc - 8.02182238523534) < 1e-9
    assert abs(math.sqrt(sc) - 2.832282186724222) < 1e-9
    with pytest.raises(InvalidSizeError):
        complete_graph_sigma_c(1, COMPLETE_NOISE)


def test_complete_graph_sigma_c_count_rule():
    # the vehicle count is an integer or an integral float, not a bool
    assert complete_graph_sigma_c(50.0, COMPLETE_NOISE) == \
        complete_graph_sigma_c(50, COMPLETE_NOISE)
    for bad in (2.5, True, math.nan, "50"):
        with pytest.raises(InvalidSizeError):
            complete_graph_sigma_c(bad, COMPLETE_NOISE)


def test_complete_graph_matches_generic_small():
    spec = spectrum(laplacian(build_complete(3)))
    generic = steady_state_covariance(spec, COMPLETE_NOISE)
    closed = tridiag_matrix(2, complete_graph_sigma_c(3, COMPLETE_NOISE))
    assert np.abs(generic.values - closed).max() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(s1=st.floats(0.05, 1.4), frac=st.floats(0.05, 0.9))
def test_f_integral_positive_and_oracle_backed(s1, frac):
    s2 = frac * region_bound(s1)
    value = f_integral(s1, s2)
    assert math.isfinite(value) and value > 0.0
    assert abs(value - f_simpson(s1, s2, rtol=1e-9)) < 1e-8 * value
