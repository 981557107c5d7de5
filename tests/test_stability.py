import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (InvalidParameterError, build_complete, build_path,
                          build_pcycle, check_platoon, laplacian,
                          region_bound, solve_a, spectrum)

from oracles import region_bound_bisect, solve_a_bisect


def test_solve_a_fixed_point():
    # a = pi/4 gives s1 = (pi/4) sin(pi/4) and bound a/tan(a) = pi/4
    s1 = (math.pi / 4.0) * math.sin(math.pi / 4.0)
    assert abs(solve_a(s1) - math.pi / 4.0) < 1e-12
    assert abs(region_bound(s1) - math.pi / 4.0) < 1e-12


@pytest.mark.parametrize("s1", [1e-6, 1e-3, 0.1, 0.5, 1.0, 1.5,
                                math.pi / 2 - 1e-9])
def test_solve_a_matches_bisection(s1):
    a = solve_a(s1)
    assert abs(a * math.sin(a) - s1) < 1e-12 * max(s1, 1.0)
    assert abs(a - solve_a_bisect(s1)) < 1e-10
    assert abs(region_bound(s1) - region_bound_bisect(s1)) < 1e-9


def test_region_bound_limits():
    # s1 -> 0: a -> 0 and a/tan(a) -> 1
    assert 1.0 - 1e-3 <= region_bound(1e-6) <= 1.0
    # s1 -> pi/2: a -> pi/2 and the bound collapses
    assert region_bound(math.pi / 2 - 1e-9) < 1e-3


def test_solve_a_domain():
    for bad in (0.0, -0.5, math.pi / 2, 2.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            solve_a(bad)


def test_in_region_boundaries_open():
    # a 2-vehicle path has the single mode lambda_2 = 2, so the mode sits
    # at s1 = 2*tau, s2 = beta*tau; power-of-two tau keeps both exact
    spec = spectrum(laplacian(build_path(2)))
    tau = 0.25
    bound = region_bound(0.5)
    assert check_platoon(spec, tau, 0.5 * bound / tau).stable
    edge = check_platoon(spec, tau, bound / tau)    # upper edge excluded
    (mode,) = edge.modes
    assert mode.s2 == mode.bound and not edge.stable
    for beta in (0.0, -0.1 / tau):                 # lower edge excluded
        with pytest.raises(InvalidParameterError):
            check_platoon(spec, tau, beta)
    with pytest.raises(InvalidParameterError):
        region_bound(0.0)
    for s1 in (math.pi / 2, 2.0):
        rep = check_platoon(spec, s1 / 2.0, 0.1 / (s1 / 2.0))
        assert rep.modes[0].s1 == s1 and not rep.stable


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
    (mode,) = rep.modes
    assert rep.stable == (0.0 < mode.s2 < region_bound(mode.s1))


def _report(graph, tau, beta):
    return check_platoon(spectrum(laplacian(graph)), tau, beta)


def test_complete_fifty_reference_setup_stable():
    rep = _report(build_complete(50), 0.03, 0.005)
    assert rep.stable
    assert abs(rep.min_margin() - 0.1013100946761011) < 1e-9
    assert len(rep.modes) == 49


def test_path_fifty_reference_setup_stable():
    rep = _report(build_path(50), 0.03, 2.0)
    assert rep.stable
    assert abs(rep.min_margin() - 0.8989) < 1e-3


def test_pcycle_fifty_reference_setups_stable():
    rep1 = _report(build_pcycle(50, 1), 0.01, 2.0)
    rep5 = _report(build_pcycle(50, 5), 0.01, 2.0)
    assert rep1.stable and rep5.stable
    assert abs(rep1.min_margin() - 0.9665) < 1e-3
    assert abs(rep5.min_margin() - 0.9341) < 1e-3


def test_complete_large_delay_unstable():
    rep = _report(build_complete(50), 0.04, 0.005)
    assert not rep.stable
    worst = rep.worst_mode()
    assert worst.s1 >= math.pi / 2 - 1e-9
    assert math.isnan(worst.bound)
    assert worst.margin == -math.inf


def test_worst_mode_is_min_margin():
    rep = _report(build_path(12), 0.03, 2.0)
    assert rep.worst_mode().margin == rep.min_margin()
    assert rep.min_margin() == min(m.margin for m in rep.modes)


def test_mode_fields_consistent():
    tau, beta = 0.03, 2.0
    spec = spectrum(laplacian(build_path(6)))
    rep = check_platoon(spec, tau, beta)
    for mode, lam in zip(rep.modes, spec.eigenvalues[1:]):
        assert mode.eigenvalue == lam
        assert mode.s1 == lam * tau
        assert mode.s2 == beta * tau
        if 0.0 < mode.s1 < math.pi / 2:
            assert abs(mode.margin - (mode.bound - mode.s2)) < 1e-15


def test_check_platoon_rejects_bad_params():
    spec = spectrum(laplacian(build_path(4)))
    for tau, beta in ((0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0)):
        with pytest.raises(InvalidParameterError):
            check_platoon(spec, tau, beta)
