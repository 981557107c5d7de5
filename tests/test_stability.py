import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (InvalidParameterError, LaplacianSpectrum,
                          UnstablePlatoonError, build_complete, build_path,
                          build_pcycle, check_platoon, laplacian,
                          region_bound, spectrum)

from oracles import region_bound_bisect, solve_a_bisect


def test_solve_a_fixed_point():
    # a = pi/4 gives s1 = (pi/4) sin(pi/4) and bound a/tan(a) = pi/4
    s1 = (math.pi / 4.0) * math.sin(math.pi / 4.0)
    assert abs(region_bound(s1) - math.pi / 4.0) < 1e-12


@pytest.mark.parametrize("s1", [1e-6, 1e-3, 0.1, 0.5, 1.0, 1.5,
                                math.pi / 2 - 1e-9])
def test_solve_a_matches_bisection(s1):
    # region_bound solves a sin a = s1 for a; the oracle's root, carried
    # to 1e-16, gives the same bound
    a = solve_a_bisect(s1)
    assert abs(a * math.sin(a) - s1) < 1e-12 * max(s1, 1.0)
    bound = region_bound(s1)
    assert isinstance(bound, float)
    assert abs(bound - region_bound_bisect(s1)) < 1e-9
    (vector,) = region_bound(np.array([s1]))
    assert vector == bound


# a/tan(a) where a*sin(a) = s1, to 40 digits: mpmath at 80 digits, 100
# Newton steps from sqrt(s1) on the float s1 (the last is the float
# pi/2 - 1e-9), each root checked to a residual below 1e-75 s1
_BOUND_40_DIGITS = (
    (1e-300, 1.0),
    (1e-12, 0.9999999999996666666666665888955933396539),
    (1e-6, 0.9999996666665888888636394131408358958009),
    (0.1, 0.9658626389739244794899874548906773543712),
    (0.5, 0.8099872984657394280911683284801758802605),
    (1.0, 0.5473518897573983404280671928713612801093),
    (1.5, 0.1014600946760600732033132237032413685448),
    (math.pi / 2 - 1e-9, 1.570796550713000959836590286913704966427e-9),
)


@pytest.mark.parametrize("s1, exact", _BOUND_40_DIGITS)
def test_region_bound_matches_40_digit_reference(s1, exact):
    # the Newton root is good to an ulp: 1e-15 relative up to s1 = 1.5.
    # Near pi/2 the root lies (pi/2)(pi/2 - s1)^2 / 2 above s1, below half
    # an ulp, so the nearest float root is s1 itself, and a/tan(a) ~
    # (pi/2)(pi/2 - a) turns that into (pi/4)(pi/2 - s1) relative: 7.9e-10
    # at pi/2 - 1e-9, carried by any float root
    rel = abs(region_bound(s1) - exact) / exact
    assert rel <= (1e-15 if s1 <= 1.5 else 1e-9)


def test_region_bound_limits():
    # s1 -> 0: a -> 0 and a/tan(a) -> 1
    assert 1.0 - 1e-3 <= region_bound(1e-6) <= 1.0
    # s1 -> pi/2: a -> pi/2 and the bound collapses
    assert region_bound(math.pi / 2 - 1e-9) < 1e-3


def test_solve_a_domain():
    # no root a in (0, pi/2) outside the open interval: the bound is NaN,
    # for a float and for each entry of an array
    bad = (0.0, -0.0, -0.5, math.pi / 2, 2.0, math.inf, -math.inf, math.nan)
    for s1 in bad:
        assert math.isnan(region_bound(s1))
    bounds = region_bound(np.array(bad + (0.5,)))
    assert bounds.shape == (len(bad) + 1,)
    assert np.isnan(bounds[:-1]).all()
    assert bounds[-1] == region_bound(0.5)


def test_in_region_boundaries_open():
    # a 2-vehicle path has the single mode lambda_2 = 2, so the mode sits
    # at s1 = 2*tau, s2 = beta*tau; power-of-two tau keeps both exact
    spec = spectrum(laplacian(build_path(2)))
    tau = 0.25
    bound = region_bound(0.5)
    assert check_platoon(spec, tau, 0.5 * bound / tau).stable
    edge = check_platoon(spec, tau, bound / tau)    # upper edge excluded
    assert edge.s2 == edge.bound[0] and edge.margin[0] == 0.0
    assert not edge.stable
    for beta in (0.0, -0.1 / tau):                 # lower edge excluded
        with pytest.raises(InvalidParameterError):
            check_platoon(spec, tau, beta)
    for s1 in (math.pi / 2, 2.0):
        rep = check_platoon(spec, s1 / 2.0, 0.1 / (s1 / 2.0))
        assert rep.s1[0] == s1 and not rep.stable
    # lambda * tau overflows: outside the region, with no warning
    rep = check_platoon(spec, 1e308, 1.0)
    assert rep.s1[0] == math.inf and rep.margin[0] == -math.inf
    assert not rep.stable


@settings(max_examples=50, deadline=None)
@given(s1=st.floats(1e-6, math.pi / 2 - 1e-6),
       frac=st.floats(1e-6, 2.0))
def test_check_platoon_matches_bound(s1, frac):
    # a 2-vehicle path has the single mode lambda_2 = 2, so tau = s1/2
    # and beta = s2/tau place that mode at (s1, s2); s2 <= 0 is beta <= 0,
    # which check_platoon rejects as a parameter error
    tau = s1 / 2.0
    rep = check_platoon(spectrum(laplacian(build_path(2))), tau,
                        frac * region_bound(s1) / tau)
    assert rep.stable == (0.0 < rep.s2 < region_bound(rep.s1[0]))


_EDGE_S1 = st.sampled_from([0.0, -0.0, 1e-300, math.pi / 2,
                            math.nextafter(math.pi / 2, 0.0),
                            math.nextafter(math.pi / 2, 4.0)])


@settings(max_examples=200, deadline=None)
@given(s1=st.lists(st.floats(-1.0, 3.0) | _EDGE_S1, min_size=1,
                   max_size=12),
       s2=st.floats(1e-6, 1.5))
def test_report_matches_scalar_oracle(s1, s2):
    # tau = 1 puts each mode at s1 = its eigenvalue; the report's arrays
    # follow the scalar bisection mode by mode, and the open-boundary rule
    lam = np.array([0.0] + s1)
    spec = LaplacianSpectrum(lam, np.eye(lam.size))
    rep = check_platoon(spec, 1.0, s2)
    assert rep.s2 == s2
    assert rep.eigenvalues.tolist() == s1 and rep.s1.tolist() == s1
    for x, bound, margin in zip(s1, rep.bound, rep.margin):
        if 0.0 < x < math.pi / 2:
            # the oracle's root carries about an ulp too
            assert abs(bound - region_bound_bisect(x)) <= 1e-15
            assert margin == bound - s2
        else:
            assert math.isnan(bound) and margin == -math.inf
    assert rep.stable == all(0.0 < x < math.pi / 2 and s2 < b
                             for x, b in zip(s1, rep.bound))
    assert rep.stable == bool(np.all(rep.margin > 0.0))


def test_report_arrays_read_only():
    rep = check_platoon(spectrum(laplacian(build_path(5))), 0.03, 2.0)
    for name in ("eigenvalues", "s1", "bound", "margin"):
        array = getattr(rep, name)
        assert array.shape == (4,)
        with pytest.raises(ValueError):
            array[0] = 1.0


def _report(graph, tau, beta):
    return check_platoon(spectrum(laplacian(graph)), tau, beta)


def test_complete_fifty_reference_setup_stable():
    rep = _report(build_complete(50), 0.03, 0.005)
    assert rep.stable
    assert abs(rep.margin.min() - 0.1013100946761011) < 1e-9
    assert rep.margin.shape == (49,)


def test_path_fifty_reference_setup_stable():
    rep = _report(build_path(50), 0.03, 2.0)
    assert rep.stable
    assert abs(rep.margin.min() - 0.8989) < 1e-3


def test_pcycle_fifty_reference_setups_stable():
    rep1 = _report(build_pcycle(50, 1), 0.01, 2.0)
    rep5 = _report(build_pcycle(50, 5), 0.01, 2.0)
    assert rep1.stable and rep5.stable
    assert abs(rep1.margin.min() - 0.9665) < 1e-3
    assert abs(rep5.margin.min() - 0.9341) < 1e-3


def test_complete_large_delay_unstable():
    rep = _report(build_complete(50), 0.04, 0.005)
    assert not rep.stable
    worst = np.argmin(rep.margin)
    assert rep.s1[worst] >= math.pi / 2 - 1e-9
    assert math.isnan(rep.bound[worst])
    assert rep.margin[worst] == -math.inf


def test_worst_mode_is_min_margin():
    # the refusal names the mode of least margin: on a 12-vehicle path at
    # tau = 0.3 every s1 is below 1.2, the bound falls as s1 grows, and
    # the top three modes have bounds below s2 = 0.6
    rep = _report(build_path(12), 0.3, 2.0)
    assert not rep.stable
    assert np.count_nonzero(rep.margin < 0.0) == 3
    worst = int(np.argmin(rep.margin))
    assert worst == 10 and rep.margin[worst] == rep.margin.min()
    with pytest.raises(UnstablePlatoonError) as exc:
        rep.require_stable()
    assert f"eigenvalue {rep.eigenvalues[worst]:.6g} " in str(exc.value)
    assert f"({rep.s1[worst]:.6g}, {rep.s2:.6g})" in str(exc.value)
    assert "stability region" in str(exc.value)
    _report(build_path(12), 0.03, 2.0).require_stable()


def test_mode_fields_consistent():
    tau, beta = 0.03, 2.0
    spec = spectrum(laplacian(build_path(6)))
    rep = check_platoon(spec, tau, beta)
    assert rep.s2 == beta * tau
    for k, lam in enumerate(spec.eigenvalues[1:]):
        assert rep.eigenvalues[k] == lam
        assert rep.s1[k] == lam * tau
        if 0.0 < rep.s1[k] < math.pi / 2:
            assert abs(rep.margin[k] - (rep.bound[k] - rep.s2)) < 1e-15


def test_check_platoon_rejects_bad_params():
    spec = spectrum(laplacian(build_path(4)))
    for tau, beta in ((0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0),
                      (math.nan, 1.0), (0.1, math.nan), (math.inf, 1.0),
                      (0.1, math.inf)):
        with pytest.raises(InvalidParameterError):
            check_platoon(spec, tau, beta)
