import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascade_risk import (CovarianceMatrix, FailureScenario,
                          InvalidParameterError, InvalidSizeError,
                          NearBoundaryError, NoiseParams, NumericalError,
                          UnstablePlatoonError, WeightedGraph, build_complete,
                          build_custom, build_path, build_pcycle,
                          complete_graph_sigma_c, f_integral, laplacian,
                          region_bound, spectrum, steady_state_covariance)
from cascade_risk import covariance, stability
from cascade_risk.covariance import NEAR_BOUNDARY_MARGIN
from cascade_risk.experiments import add_edge_rows

from oracles import f_modes_reference, f_simpson, integrand, tridiag_matrix

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s1, s2", [
    (1.5, 5e-324),       # singular solve
    (0.3, 1e-310),       # not a number
    (7.4e-4, 3e-302),    # f = pi / (s1^2 s2) overflows
])
def test_f_out_of_float_range_is_numerical_error(s1, s2):
    # f grows like pi / (s1^2 s2) as s2 -> 0 inside the region; where it
    # leaves the float range it is refused, without a warning
    with pytest.raises(NumericalError, match="not finite and positive"):
        f_integral(s1, s2)
    # at s2 = 1e-300 f is still a float, on its asymptote
    assert (f_integral(s1, 1e-300) * s1 * s1 * 1e-300 / math.pi
            == pytest.approx(1.0, rel=1e-13))


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
    # 2.2e-16 under the bound, where the solve itself is singular
    (1e-6, 0.9999996666665887),
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
    with pytest.raises(InvalidParameterError, match="finite"):
        CovarianceMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(InvalidParameterError, match="diagonal"):
        CovarianceMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]))  # zero var


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
    # the vehicle count is an integer or an integral float, not a bool,
    # and inside the float range, as its one mode, eigenvalue n, is
    assert complete_graph_sigma_c(50.0, COMPLETE_NOISE) == \
        complete_graph_sigma_c(50, COMPLETE_NOISE)
    for bad in (2.5, True, math.nan, "50", 10 ** 400):
        with pytest.raises(InvalidSizeError):
            complete_graph_sigma_c(bad, COMPLETE_NOISE)


@st.composite
def _complete_platoons(draw):
    """n in [2, 30] and noise whose one complete-graph mode (n tau,
    beta tau) lies inside the region, near its edge, or outside it,
    each draw more than 1e-9 from the region edge and from the
    NEAR_BOUNDARY_MARGIN refusal: eigh rounds the eigenvalue n by far
    less, so it cannot flip a verdict."""
    n = draw(st.integers(2, 30))
    tau = draw(st.floats(0.01, 2.5)) / n
    s1 = n * tau
    assume(abs(s1 - math.pi / 2) > 1e-9)
    bound = region_bound(s1)
    if math.isnan(bound):
        s2 = draw(st.floats(0.01, 1.0))
    elif draw(st.booleans()):
        s2 = bound - 10.0 ** draw(st.floats(-8.0, -5.0))
    else:
        s2 = bound * draw(st.floats(0.05, 1.3))
    noise = NoiseParams(0.1, tau, s2 / tau)
    s2 = noise.beta * noise.tau
    assume(math.isnan(bound) or
           min(abs(bound - s2), abs(bound - s2 - NEAR_BOUNDARY_MARGIN))
           > 1e-9)
    return n, noise


def _outcome(compute):
    """None if compute() returns, else the class and message it
    raised."""
    try:
        compute()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(platoon=_complete_platoons())
def test_closed_form_and_generic_refuse_alike(platoon):
    # sigma_c and the generic covariance put their f through one gate:
    # the same refusal, word for word, or none on either route
    n, noise = platoon
    closed = _outcome(lambda: complete_graph_sigma_c(n, noise))
    generic = _outcome(lambda: steady_state_covariance(
        spectrum(laplacian(build_complete(n))), noise))
    assert closed == generic


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


# f from the delay Lyapunov route at a few points, one batch of three
# modes among them. Pinned at 1e-14 relative: a BLAS build may move the
# last bits, a change of route moves more.
F_PINS = [
    ([0.0012], 0.06, [38683395.63695993]),
    ([0.5], 0.3, [69.20672408245896]),
    ([1.0], 0.5, [92.17480418210002]),
    ([1.5], 1.5e-4, [9333.81417551672]),
    ([1.5707], 0.00014128905372503439, [263653.7808346955]),
    ([0.0012, 0.5, 1.0], 0.06,
     [38683395.63695993, 228.0466161727947, 60.83770135591173]),
]


@pytest.mark.parametrize("s1,s2,ref", F_PINS)
def test_f_modes_pinned(s1, s2, ref):
    f = covariance._f_modes(np.array(s1), s2)
    assert np.allclose(f, ref, rtol=1e-14, atol=0.0)


@st.composite
def _region_points(draw):
    """Modes s1 in (0, pi/2) and an s2 inside the region of every one
    with at least the NEAR_BOUNDARY_MARGIN the package asks for: a
    fraction of the smallest bound, or the bound less a margin. The
    fraction stays above 1e-9: f grows like 1/s2, and at s2 = 5e-324 the
    solve is singular on either route. It stays below
    1 - NEAR_BOUNDARY_MARGIN / bound: 2.2e-16 under the bound the solve
    is singular too (s1 = [1e-6], s2 = 0.9999996666665887)."""
    s1 = np.array(draw(st.lists(
        st.floats(1e-8, math.pi / 2, exclude_max=True),
        min_size=1, max_size=12)))
    bound = float(region_bound(s1).min())
    top = 1.0 - NEAR_BOUNDARY_MARGIN / bound
    assume(top > 1e-9)
    margin = NEAR_BOUNDARY_MARGIN * 10.0 ** draw(st.floats(0.0, 6.0))
    if draw(st.booleans()) and margin < bound:
        return s1, bound - margin
    return s1, bound * draw(st.floats(1e-9, top, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(point=_region_points())
def test_f_modes_bitwise_equal_to_reference(point):
    # the mode-free blocks built once give f bit for bit as the route
    # that builds them on every call
    s1, s2 = point
    f = covariance._f_modes(s1, s2)
    assert np.array_equal(f.view(np.int64),
                          f_modes_reference(s1, s2).view(np.int64))


@st.composite
def _stable_platoons(draw, max_n=8, mirrored=False):
    """A random connected weighted graph on up to max_n vehicles (a
    p-cycle, or a spanning tree plus extra links), its spectrum and
    noise inside the stability region. With mirrored, a path takes the
    tree's place: a path and a p-cycle map to themselves when the
    vehicles are reversed."""
    n = draw(st.integers(2, max_n))
    if n >= 5 and draw(st.booleans()):
        graph = build_pcycle(n, draw(st.integers(1, (n - 1) // 2)))
    elif mirrored:
        graph = build_path(n)
    else:
        weight = st.floats(0.1, 3.0)
        edges = {(draw(st.integers(1, i - 1)), i): draw(weight)
                 for i in range(2, n + 1)}
        for a, b in draw(st.lists(st.tuples(st.integers(1, n),
                                            st.integers(1, n)),
                                  max_size=n)):
            if a != b:
                edges[min(a, b), max(a, b)] = draw(weight)
        graph = build_custom(n, [(a, b, w) for (a, b), w in edges.items()])
    spec = spectrum(laplacian(graph))
    tau = draw(st.floats(0.05, 0.9)) * (math.pi / 2) / spec.eigenvalues[-1]
    bound = region_bound(spec.eigenvalues[1:] * tau).min()
    beta = draw(st.floats(0.05, 0.9)) * bound / tau
    return graph, spec, NoiseParams(10.0 ** draw(st.floats(-3.0, 3.0)),
                                    tau, beta)


@settings(max_examples=60, deadline=None)
@given(platoon=_stable_platoons())
def test_package_covariance_passes_the_full_check(platoon):
    # the checks the package route skips could not have fired: a
    # hand-built copy of every package-built covariance is accepted,
    # bit for bit
    _, spec, noise = platoon
    sigma = steady_state_covariance(spec, noise)
    copy = CovarianceMatrix(sigma.values)
    assert np.array_equal(copy.values.view(np.int64),
                          sigma.values.view(np.int64))
    assert not sigma.values.flags.writeable


def _within(values, reference, c):
    """values equals reference within c n eps max|reference|, with n
    the vehicle count."""
    n = reference.shape[0] + 1
    return (np.abs(values - reference).max()
            <= c * n * np.finfo(float).eps * np.abs(reference).max())


@settings(max_examples=60, deadline=None)
@given(platoon=_stable_platoons(max_n=12))
def test_covariance_noise_law(platoon):
    # Sigma(g) = g^2 Sigma(1); the two sides round g^2 tau^3 and its
    # products apart, about one eps per entry (c = 1 at worst over 800
    # draws of this domain)
    _, spec, noise = platoon
    sigma = steady_state_covariance(spec, noise).values
    unit = steady_state_covariance(
        spec, NoiseParams(1.0, noise.tau, noise.beta)).values
    assert _within(sigma, noise.g ** 2 * unit, 8.0)


@settings(max_examples=60, deadline=None)
@given(platoon=_stable_platoons(max_n=12),
       a=st.one_of(st.sampled_from([0.5, 2.0]), st.floats(0.1, 10.0)))
def test_covariance_time_rescaling_law(platoon, a):
    # weights x a, tau / a and beta x a leave every s1 = lambda tau and
    # s2 = beta tau, so Sigma = g^2 tau^3 / (2 pi) W diag(f) W^T scales
    # by a^-3 through tau^3 alone. At a power of two eigh, s1, s2 and
    # the products scale exactly, so it holds bit for bit wherever
    # tau^3 does (float ** is not always correctly rounded); elsewhere
    # the eigendecomposition of a L rounds apart (c = 15 at worst over
    # 800 draws of this domain)
    graph, spec, noise = platoon
    sigma = steady_state_covariance(spec, noise).values
    scaled = WeightedGraph(graph.n, graph.weights * a)
    rescaled = steady_state_covariance(
        spectrum(laplacian(scaled)),
        NoiseParams(noise.g, noise.tau / a, noise.beta * a)).values
    expected = sigma * a ** -3
    if a in (0.5, 2.0) and (noise.tau / a) ** 3 == noise.tau ** 3 * a ** -3:
        assert np.array_equal(rescaled.view(np.int64),
                              expected.view(np.int64))
    else:
        assert _within(rescaled, expected, 64.0)


def test_package_route_runs_no_eigvalsh(monkeypatch):
    # the risk layer's refusal gate takes eigvalsh of (P, m, m) stacks
    # of failed blocks; no single matrix, the covariance least of all,
    # may get one
    eigvalsh = np.linalg.eigvalsh

    def refuse(a, *args, **kwargs):
        if np.ndim(a) < 3:
            raise AssertionError("eigvalsh ran")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    steady_state_covariance(spectrum(laplacian(build_pcycle(20, 3))),
                            PATH_NOISE)
    rows = add_edge_rows(build_path(12), 3.0, PATH_NOISE, 0.1, 2.0,
                         FailureScenario((6,), (0.0,)), 4)
    assert len(rows) == 11
    # a hand-built matrix still gets the PSD check
    with pytest.raises(AssertionError, match="eigvalsh ran"):
        CovarianceMatrix(np.eye(2))


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
def test_package_covariance_needs_every_f_positive(monkeypatch, bad):
    # W diag(f) W^T is PSD by construction only while every f > 0, so a
    # mode's f outside (0, inf) is refused rather than wrapped unchecked
    f_modes = covariance._f_modes

    def one_bad_mode(s1, s2):
        f = f_modes(s1, s2)
        f[3] = bad
        return f

    monkeypatch.setattr(covariance, "_f_modes", one_bad_mode)
    with pytest.raises(NumericalError, match="f is not finite and positive"):
        steady_state_covariance(spectrum(laplacian(build_path(8))),
                                PATH_NOISE)


@pytest.mark.parametrize("g, words", [
    (1e160, "overflows"),
    (1e-170, "underflows"),
    (1e-156, "underflows"),     # subnormal variances, not yet 0
])
def test_covariance_scale_outside_float_range(g, words):
    # one typed error naming g and tau; pytest turns any RuntimeWarning
    # into a failure
    noise = NoiseParams(g, 0.03, 2.0)
    for compute in (
            lambda: steady_state_covariance(
                spectrum(laplacian(build_path(20))), noise),
            lambda: complete_graph_sigma_c(
                50, NoiseParams(g, 0.03, 0.005))):
        with pytest.raises(InvalidParameterError) as exc_info:
            compute()
        message = str(exc_info.value)
        assert f"g={g!r}" in message and "tau=0.03" in message
        assert words in message


def test_covariance_tau_cubed_outside_float_range():
    # links weak enough to leave a delay of 1e105 stable: tau^3 overflows
    # the float range, which float ** reports with OverflowError
    graph = build_custom(3, [(1, 2, 1e-110), (2, 3, 1e-110)])
    with pytest.raises(InvalidParameterError, match=r"tau=1e\+105 overflows"):
        steady_state_covariance(spectrum(laplacian(graph)),
                                NoiseParams(0.1, 1e105, 1e-106))
