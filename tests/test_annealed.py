import itertools
import math

import mpmath
import numpy as np
import pytest

from tensorspectra import annealed
from tensorspectra.annealed import (
    _theta1_objective,
    _y_c_from_root,
    annealed_logZ,
    annealed_resolvent,
    h_function,
    saddle_equation_residuals,
    singular_locus,
    spike_f,
    spike_locus,
    spike_saddles,
    spike_threshold,
)
from tensorspectra.errors import CutContact, DomainError, QuadratureFailure, RootFindFailure
from tensorspectra.fuss_catalan import expected_resolvent, fc_function, support_edge


# ---------------------------------------------------------------- oracles

def df_dtheta(p, w, b, theta, rho):
    return math.cos(theta) / math.sin(theta) - (b / w) * rho**p * math.cos(
        theta
    ) ** (p - 1) * math.sin(theta)


def df_drho(p, w, b, theta, rho):
    return (
        1 / rho
        - rho
        + (b / w) * rho ** (p - 1) * math.cos(theta) ** p
        + rho ** (2 * p - 1) / w**2
    )


# ------------------------------------------------------------------ radial

def test_saddle_rho0_frozen():
    # rho_0^2 = T_3(0.01) = sum F_3(n) (0.01)^n = 1.010312...
    assert fc_function(3, 0.01).real == pytest.approx(1.0103125788, abs=1e-9)
    val = annealed_logZ(3, 10.0, 100, mode="saddle")
    rho0 = math.sqrt(1.010312578810108)
    expected = math.log(rho0) - rho0**2 / 2 + rho0**6 / (6 * 100.0)
    assert val.real == pytest.approx(expected, abs=1e-12)


def test_logZ_free_limit():
    # w -> infinity: rho_0^2 -> 1 and f -> -1/2, independent of w
    a = annealed_logZ(3, 1e6, 10, mode="saddle")
    b = annealed_logZ(3, 1e9, 10, mode="saddle")
    assert a.real == pytest.approx(-0.5, abs=1e-10)
    assert abs(a - b) < 1e-10


def test_quadrature_laplace_correction_scales_like_1_over_N():
    sad = annealed_logZ(3, 5.0, 1, mode="saddle")
    diffs = []
    for N in (100, 200, 400):
        quad = annealed_logZ(3, 5.0, N, mode="quadrature")
        diffs.append(abs(quad - sad))
    assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.2)
    assert diffs[1] / diffs[2] == pytest.approx(2.0, rel=0.2)


def test_resolvent_saddle_equals_expected_resolvent():
    for p, w in [(2, 3.0), (3, 5.0), (3, 4 + 2j), (4, 10j)]:
        assert abs(annealed_resolvent(p, w, mode="saddle") - expected_resolvent(p, w)) < 1e-12


def test_resolvent_p2_frozen():
    assert annealed_resolvent(2, 3.0, mode="saddle").real == pytest.approx(
        (3 - math.sqrt(5)) / 2, abs=1e-12
    )


def test_quadrature_resolvent_near_saddle_value():
    sad = annealed_resolvent(3, 5.0, mode="saddle")
    quad = annealed_resolvent(3, 5.0, 400, mode="quadrature")
    assert abs(quad - sad) < 2e-3


def test_annealed_convergence_slope():
    sad = annealed_resolvent(3, 5.0, mode="saddle")
    Ns = [100, 200, 400, 800]
    diffs = [abs(annealed_resolvent(3, 5.0, N, mode="quadrature") - sad) for N in Ns]
    slope = np.polyfit(np.log(Ns), np.log(diffs), 1)[0]
    assert -1.2 < slope < -0.8


def test_radial_cut_contact_and_caps():
    with pytest.raises(CutContact):
        annealed_logZ(3, 1.0, 100, mode="quadrature")
    with pytest.raises(DomainError):
        annealed_logZ(3, 5.0, 10**6, mode="quadrature")


def test_quadrature_legs_are_bitwise_the_panel_loop(checked_gl_panels):
    # 200 seeded (p, w, N): each leg's panels at each order equal the
    # one-panel-at-a-time loop
    calls = checked_gl_panels(annealed)
    rng = np.random.default_rng(1211)
    for _ in range(200):
        p = int(rng.integers(2, 6))
        edge = support_edge(p)
        w = edge * complex(rng.uniform(1.05, 3.0) * rng.choice([-1, 1]), rng.uniform(-1.0, 1.0))
        N = int(rng.choice([1, 10, 100, 1000, 10_000]))
        try:
            annealed_logZ(p, w, N, mode="quadrature")
        except QuadratureFailure:
            pass
    # two legs per Gauss-Legendre order, at least two orders per call
    assert len(calls) >= 4 * 200


# ------------------------------------------------------------------ saddles

def test_spike_saddles_b0_reduces_to_no_spike():
    rep = spike_saddles(3, 4.0, 0.0)
    assert len(rep.saddles) == 1
    s = rep.saddles[0]
    assert s.theta == pytest.approx(math.pi / 2)
    assert s.rho_sq == pytest.approx(fc_function(3, 1 / 16), abs=1e-12)
    # resolvent of the dominant saddle matches the no-spike expectation
    omega = s.rho_sq / 4.0
    assert abs(omega - expected_resolvent(3, 4.0)) < 1e-12


def test_threshold_saddle_is_found_exactly():
    rep = spike_saddles(3, 3**1.5, math.sqrt(8.0))
    assert len(rep.saddles) == 2
    theta1 = rep.saddles[1]
    assert math.sin(theta1.theta) ** 2 == pytest.approx(0.5, abs=1e-8)
    assert theta1.rho_sq.real == pytest.approx(3.0, abs=1e-8)
    assert abs(theta1.rho_sq.imag) < 1e-10


def test_saddle_equation_residuals_at_reported_saddles():
    for (p, w, b) in [(3, 3**1.5, math.sqrt(8.0)), (3, 9.0, 4.0), (4, 17.0, 5.0)]:
        rep = spike_saddles(p, w, b)
        for s in rep.saddles:
            r1, r2 = saddle_equation_residuals(p, w, b, s.theta, s.rho_sq)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10
            # independent check straight from the partial derivatives of f
            rho = math.sqrt(s.rho_sq.real)
            assert abs(df_dtheta(p, w, b, s.theta, rho)) < 1e-8
            assert abs(df_drho(p, w, b, s.theta, rho)) < 1e-8


def test_reduction_consistency_rho_sq():
    # rho^2 = T_p(w^-2 sin^{2-2p} theta) / sin^2 theta at every saddle.
    # At the threshold the extra saddle sits exactly on the branch point of
    # T_p, where the root is double: a 1e-12 residual only pins the value to
    # ~sqrt(1e-12/0.2) ~ 2e-6, so the tight tolerance applies to interior
    # saddles only.
    for (p, w, b), tol in [
        ((3, 9.0, 4.0), 1e-10),
        ((4, 17.0, 5.0), 1e-10),
        ((3, 3**1.5, math.sqrt(8.0)), 5e-6),
    ]:
        rep = spike_saddles(p, w, b)
        for s in rep.saddles:
            sin2 = math.sin(s.theta) ** 2
            expected = fc_function(p, sin2 ** (1 - p) / w**2) / sin2
            assert abs(s.rho_sq - expected) < tol


def test_dominance_is_argmax_of_direct_f():
    # f is evaluated from its defining expression; at the threshold point the
    # pi/2 saddle has the larger Re f, so it is reported dominant (criterion 8
    # checks with its finite-N quadrature, spiked_logZ in test_acceptance.py,
    # that the 2-d integral follows this saddle)
    rep = spike_saddles(3, 3**1.5, math.sqrt(8.0))
    f_vals = [s.f_value.real for s in rep.saddles]
    assert rep.dominant_index == int(np.argmax(f_vals))
    assert rep.saddles[0].f_value.real == pytest.approx(-0.4934452844, abs=1e-9)
    assert rep.saddles[1].f_value.real == pytest.approx(-0.7972674459, abs=1e-9)


def test_spike_f_direct_matches_independent_reduction():
    # on-saddle algebra: f = ln(T)/2 - (p-1)/(2p) T/s + (1-2s)/(2ps)
    for (p, w, b) in [(3, 3**1.5, math.sqrt(8.0)), (3, 9.0, 4.0)]:
        rep = spike_saddles(p, w, b)
        for s in rep.saddles:
            sin2 = math.sin(s.theta) ** 2
            T = (s.rho_sq * sin2).real
            reduced = (
                0.5 * math.log(T)
                - (p - 1) / (2 * p) * T / sin2
                + (1 - 2 * sin2) / (2 * p * sin2)
            )
            assert s.f_value.real == pytest.approx(reduced, abs=1e-10)


def test_spike_saddles_validation():
    with pytest.raises(DomainError):
        spike_saddles(2, 5.0, 1.0)
    with pytest.raises(CutContact):
        spike_saddles(3, 1.0, 1.0)
    rep = spike_saddles(3, 4.0, 0.5)  # below threshold, far from locus
    assert rep.theta1_error is not None
    assert len(rep.saddles) == 1


# ---------------------------------------------------------------- threshold

@pytest.mark.parametrize(
    "p,b_t",
    [
        (3, math.sqrt(8.0)),
        (4, 4.5),
        (5, math.sqrt(4**5 / 3**3)),
        (6, 125 / 16),
        (7, math.sqrt(6**7 / 5**5)),
        (8, 2401 / 216),
    ],
)
def test_threshold_values(p, b_t):
    res = spike_threshold(p)
    assert res.b_t == pytest.approx(b_t, rel=1e-12)
    assert res.y_c_below == pytest.approx(support_edge(p), rel=1e-12)
    assert res.y_c_at == pytest.approx(p ** (p / 2), rel=1e-12)


def test_threshold_double_root():
    for p in range(3, 9):
        res = spike_threshold(p)
        v_m = res.h_root
        assert abs(h_function(p, res.b_t, v_m)) < 1e-10
        h_plus = h_function(p, res.b_t, v_m * (1 + 1e-7))
        h_minus = h_function(p, res.b_t, v_m * (1 - 1e-7))
        assert abs(h_plus - h_minus) / (2e-7 * v_m) < 1e-5
        # max_v h(v) = 0 at threshold: both neighbours below zero
        assert h_plus <= 0 and h_minus <= 0


def test_threshold_requires_p3():
    with pytest.raises(DomainError):
        spike_threshold(2)


# ------------------------------------------------------------ singular locus

def test_singular_locus_below_threshold():
    assert singular_locus(3, 0.0) == pytest.approx(math.sqrt(27 / 4), rel=1e-12)
    assert singular_locus(3, 1.0) == pytest.approx(2.598076211, abs=1e-8)
    assert singular_locus(4, 2.0) == pytest.approx(support_edge(4), rel=1e-12)


def test_singular_locus_at_threshold():
    assert singular_locus(3, math.sqrt(8.0)) == pytest.approx(3**1.5, rel=1e-12)
    assert singular_locus(4, 4.5) == pytest.approx(16.0, rel=1e-12)


def test_singular_locus_continuous_from_above():
    b_t = math.sqrt(8.0)
    vals = [singular_locus(3, b_t * (1 + eps)) for eps in (1e-6, 1e-8)]
    for v in vals:
        assert v == pytest.approx(3**1.5, rel=1e-2)
    assert abs(vals[1] - 3**1.5) < abs(vals[0] - 3**1.5)


def test_singular_locus_monotone_above_threshold():
    b_t = math.sqrt(8.0)
    grid = [singular_locus(3, b) for b in np.linspace(b_t, 10 * b_t, 30)]
    assert all(b < a for b, a in zip(grid, grid[1:]))
    assert grid[-1] > 100  # grows without bound


def _b_t(p):
    return spike_threshold(p).b_t


@pytest.mark.parametrize(
    "p,b",
    [
        (3, 3.0),
        (4, 45.0),
        (6, 5 * _b_t(6)),
        (13, 1.001 * _b_t(13)),
        (50, 2 * _b_t(50)),
        (100, 1.1 * _b_t(100)),
    ],
)
def test_theta1_exists_below_locus_only(p, b):
    # the extra saddle reaches the branch point v_c of the curve exactly at
    # y_c: real theta_1 for y <= y_c, certified by its residuals, gone above
    y_c = singular_locus(p, b)
    below = spike_saddles(p, y_c * (1 - 1e-3), b)
    above = spike_saddles(p, y_c * (1 + 1e-3), b)
    assert len(below.saddles) == 2, below.theta1_error
    r1, r2 = saddle_equation_residuals(p, below.w, b, below.saddles[1].theta, below.saddles[1].rho_sq)
    assert max(abs(r1), abs(r2)) <= 1e-8
    assert len(above.saddles) == 1 and above.theta1_error is not None


def _mp_saddle(p, y, b, theta, rho_sq):
    """(sin^2 theta, rho^2) of the root of r1 = r2 = 0 near (theta, rho_sq),
    by Newton at 40 digits; r1 is divided by cos^2 theta, which only drops
    the theta = pi/2 solution."""
    with mpmath.workdps(40):
        p_, y_, b_ = mpmath.mpf(p), mpmath.mpf(y), mpmath.mpf(b)

        def equations(t, r):
            s = mpmath.sin(t) ** 2
            return [(b_ / y_) * r ** (p_ / 2) * mpmath.cos(t) ** (p_ - 2) - 1 / s,
                    1 / s - r + r**p_ / y_**2]

        t, r = mpmath.findroot(equations, (mpmath.mpf(theta), mpmath.mpf(rho_sq)))
        return mpmath.sin(t) ** 2, r


@pytest.mark.parametrize("p", [3, 4, 5, 6, 8, 20, 50])
def test_theta1_matches_mpmath_reference(p):
    # theta_1 beside the locus against the saddle equations solved directly
    # in (theta, rho^2) at 40 digits
    for ratio in (1.001, 1.1, 2, 5):
        b = ratio * _b_t(p)
        y = singular_locus(p, b) * (1 - 1e-3)
        rep = spike_saddles(p, y, b)
        assert len(rep.saddles) == 2, (ratio, rep.theta1_error)
        theta1 = rep.saddles[1]
        s_ref, rho_sq_ref = _mp_saddle(p, y, b, theta1.theta, theta1.rho_sq.real)
        assert abs(math.sin(theta1.theta) ** 2 - s_ref) <= 1e-13 * s_ref, ratio
        assert abs(theta1.rho_sq - rho_sq_ref) <= 1e-13 * rho_sq_ref, ratio


@pytest.mark.parametrize("p", [3, 4, 6, 13, 50])
def test_theta1_residual_increases_along_the_curve(p):
    # the claim the theta_1 search rests on: on the second saddle equation's
    # curve s(v) = ((1+v)^p/(y^2 v))^{1/(p-1)}, rho^2 = (1+v)/s, the first
    # equation's residual g = (b/y) rho^p (1-s)^{(p-2)/2} s - 1 (-1 where
    # s >= 1) is nondecreasing in v on [1/y^2, v_c].  Checked on a dense
    # grid in 30-digit arithmetic, and the search's ln(1 + g) agrees.
    rng = np.random.default_rng(p)
    for _ in range(3):
        b = _b_t(p) * 10 ** rng.uniform(0, 2)
        y = max(singular_locus(p, b) * 10 ** rng.uniform(-1, 0.2), 1.001 * support_edge(p))
        x_c = math.log(y * y / (p - 1))  # the search variable x = ln(y^2 v)
        with mpmath.workdps(30):
            y_, g = mpmath.mpf(y), []
            for x in np.concatenate([[0.0], np.geomspace(1e-9 * x_c, x_c, 400)]):
                v = mpmath.exp(x) / y_**2
                s = ((1 + v) ** p / (y_**2 * v)) ** (mpmath.mpf(1) / (p - 1))
                if s >= 1:
                    g.append(-1)
                    continue
                one_plus_g = (b / y_) * ((1 + v) / s) ** (mpmath.mpf(p) / 2) * (1 - s) ** (
                    mpmath.mpf(p - 2) / 2) * s
                g.append(one_plus_g - 1)
                assert _theta1_objective(p, y, b, x) == pytest.approx(
                    float(mpmath.log(one_plus_g)), rel=1e-9, abs=1e-9)
            assert all(a <= c for a, c in zip(g, g[1:])), (b, y)


@pytest.mark.parametrize(
    "p,b,y_c_hex",
    [
        (3, 3.0, "0x1.f2d4a45635643p+2"),
        (3, 4.0, "0x1.1bda35ea48931p+4"),
        (3, 12.0, "0x1.70da426d8505dp+7"),
        (4, 5.0, "0x1.49fbda7e474f9p+5"),
        (5, 8.0, "0x1.0e8a459118a00p+9"),
        (6, 15.0, "0x1.3fd55489f43e0p+15"),
    ],
)
def test_singular_locus_values_above_threshold(p, b, y_c_hex):
    # bit-exact values of the continuity-selected h-root, frozen from the
    # implementation that also ran a Re f dominance check beside it
    assert singular_locus(p, b).hex() == y_c_hex


@pytest.mark.parametrize("p, b_over_bt", [(68, 1000.0), (103, 10.0), (150, 2.0)])
def test_singular_locus_where_the_direct_power_overflows(monkeypatch, p, b_over_bt):
    # y_c ~ 1e228..1e278 is finite although v^{-(p-1)(p-2)/2} alone is not
    roots = []

    def spy(p, v):
        roots.append(v)
        return _y_c_from_root(p, v)

    monkeypatch.setattr(annealed, "_y_c_from_root", spy)
    y_c = singular_locus(p, b_over_bt * spike_threshold(p).b_t)
    (v,) = roots
    with pytest.raises(OverflowError):
        v ** (-(p - 1) * (p - 2) / 2)
    with mpmath.workdps(40):
        log_y = (
            -mpmath.mpf((p - 1) * (p - 2)) / 2 * mpmath.log(v)
            - (p - 1) * mpmath.log(p - 1)
            + mpmath.mpf(p) / 2 * mpmath.log(p)
        )
        assert float(abs(y_c / mpmath.exp(log_y) - 1)) < 1e-13


@pytest.mark.parametrize("p, b_over_bt", [(250, 1.01), (255, 1.5)])
def test_singular_locus_beyond_a_double_raises(p, b_over_bt):
    # y_c > 1.8e308 here; the root-first product would round to inf
    with pytest.raises(OverflowError):
        singular_locus(p, b_over_bt * spike_threshold(p).b_t)


@pytest.mark.parametrize("b", [math.nan, math.inf, -1.0])
def test_spike_rejects_bad_b(b):
    with pytest.raises(DomainError):
        singular_locus(3, b)
    with pytest.raises(DomainError):
        spike_saddles(3, 9.0, b)


def test_theta1_found_where_u_rounds_past_the_branch_point():
    # theta_1 at this p = 6 probe lies next to the branch point v_c of its
    # curve, the end of the search interval: it must be found and certified
    y = singular_locus(6, 9.5) * (1 - 1e-3)
    rep = spike_saddles(6, y, 9.5)
    assert len(rep.saddles) == 2
    for s in rep.saddles:
        r1, r2 = saddle_equation_residuals(6, y, 9.5, s.theta, s.rho_sq)
        assert max(abs(r1), abs(r2)) < 1e-8


@pytest.mark.parametrize("p", [3, 4])
def test_spike_locus_probe_side(p):
    # the dominant_saddle, f0 and f1 columns are read at this probe:
    # y_c (1 - 1e-3) at and above b_t, y_c (1 + 1e-3) below it
    b_t = spike_threshold(p).b_t
    below, above = spike_locus(p, 0.5 * b_t), spike_locus(p, 2.0 * b_t)
    assert below.probe.w == below.y_c * (1 + 1e-3)
    assert above.probe.w == above.y_c * (1 - 1e-3)


# ------------------------------------------------------------ Brent's method

def _recorded_brent_calls(monkeypatch):
    """(f, a, b, xtol, rtol) of every root search that singular_locus and
    spike_saddles make over seeded (p, b, y) around the locus."""
    calls = []
    port = annealed._brentq

    def spy(f, a, b, xtol, rtol):
        calls.append((f, a, b, xtol, rtol))
        return port(f, a, b, xtol, rtol)

    monkeypatch.setattr(annealed, "_brentq", spy)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = int(rng.integers(3, 201))
        try:
            singular_locus(p, spike_threshold(p).b_t * 10 ** rng.uniform(1e-9, 4))
        except OverflowError:  # y_c beyond a double, after the root search
            pass
    for _ in range(1500):
        p = int(rng.integers(3, 61))
        b = spike_threshold(p).b_t * 10 ** rng.uniform(1e-9, 3)
        y_c = singular_locus(p, b)
        if y_c < 1e150:  # the probe saddles overflow beyond ~1e154
            spike_saddles(p, y_c * rng.uniform(0.6, 1.02), b)
    monkeypatch.undo()
    return calls


def test_brentq_port_is_bitwise_scipy(monkeypatch):
    from scipy.optimize import brentq

    calls = _recorded_brent_calls(monkeypatch)
    sites = [c[3:] for c in calls]
    # h_function from singular_locus, _theta1_objective from _find_theta1
    assert sites.count((1e-300, 1e-15)) >= 1500 and sites.count((1e-16, 1e-15)) >= 1000
    port = annealed._brentq
    roots = []
    for f, a, b, xtol, rtol in calls:
        x = port(f, a, b, xtol, rtol)
        assert x == brentq(f, a, b, xtol=xtol, rtol=rtol), (a, b)
        roots.append(x)

    def both_raise_or_agree(scipy_error, make_f, a, b, xtol, rtol, **kw):
        # make_f() gives each solver a fresh f, as f may count its calls
        try:
            expected = brentq(make_f(), a, b, xtol=xtol, rtol=rtol, **kw)
        except scipy_error:
            with pytest.raises(RootFindFailure):
                port(make_f(), a, b, xtol, rtol, **kw)
            return True
        assert port(make_f(), a, b, xtol, rtol, **kw) == expected
        return False

    def nan_on_call(f, k):
        count = itertools.count(1)
        return lambda x: math.nan if next(count) == k else f(x)

    raised = {"maxiter": 0, "nan": 0, "sign": 0}
    for (f, a, b, xtol, rtol), root in zip(calls[::10], roots[::10]):
        same = lambda f=f: f
        for maxiter in (3, 8):  # 8 is about the median iteration count
            raised["maxiter"] += both_raise_or_agree(
                RuntimeError, same, a, b, xtol, rtol, maxiter=maxiter
            )
        for k in (1, 2, 4):
            nan_k = lambda f=f, k=k: nan_on_call(f, k)
            raised["nan"] += both_raise_or_agree(ValueError, nan_k, a, b, xtol, rtol)
        # a half of the bracket that stops short of the root: no sign change
        raised["sign"] += both_raise_or_agree(ValueError, same, a, a + (root - a) / 2, xtol, rtol)
    n = len(calls[::10])
    assert n < raised["maxiter"] < 2 * n and raised["nan"] == 3 * n and raised["sign"] == n, raised
