import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tensorspectra import cli, fuss_catalan
from tensorspectra import (
    critical_point,
    density_moment,
    expected_resolvent,
    fc_function,
    fc_function_boundary,
    fuss_catalan_number,
    pp_density,
    support_edge,
    wigner_density,
    wigner_density_roots,
)
from tensorspectra.errors import CutContact, DomainError, QuadratureFailure
from tensorspectra.fuss_catalan import _fc_series, _fc_track, _newton_polish

from conftest import reference_density_moment, reference_pp_density, reference_wigner_density


# ---------------------------------------------------------------- oracles

def binomial_fc(p, n):
    """Independent evaluation of the defining binomial formula."""
    return Fraction(math.comb(p * n + 1, n), p * n + 1)


def semicircle(y):
    return math.sqrt(max(4 - y * y, 0.0)) / (2 * math.pi)


def p2_density_closed(x):
    return math.sqrt(1 - x / 4) / (math.pi * math.sqrt(x))


def p3_density_closed(x):
    s = math.sqrt(1 - (4 / 27) * x)
    num = (1 + s) ** (2 / 3) - ((4 / 27) * x) ** (1 / 3)
    return (1 / (2 * math.pi * x ** (2 / 3))) * (3 ** 0.5 / 2 ** (1 / 3)) * num / (1 + s) ** (1 / 3)


def p3_rho_closed(y):
    s = math.sqrt(1 - y * y / (27 / 4))
    return (1 / (2 * math.pi * abs(y) ** (1 / 3))) * (27 / 4) ** (1 / 6) * (
        (1 + s) ** (1 / 3) - (1 - s) ** (1 / 3)
    )


def p3_resolvent_closed(w):
    w = complex(w)
    wc2 = 27 / 4
    s = np.sqrt(1 - wc2 / w**2)
    wcw = np.sqrt(wc2) / w
    return (1j / np.sqrt(3)) * ((s - 1j * wcw) ** (1 / 3) - (s + 1j * wcw) ** (1 / 3))


def stieltjes_quadrature(p, w):
    """Independent of the T_p route: integrate rho(y)/(w-y) over the support."""
    edge = support_edge(p)

    def make(part):
        def f(t):
            y = edge * math.sin(t)
            if abs(y) >= edge or y == 0.0:
                return 0.0
            val = wigner_density(p, y) / (w - y) * edge * math.cos(t)
            return part(val)

        return f

    re = quad(make(lambda z: z.real), -math.pi / 2, math.pi / 2, epsabs=1e-9, limit=300)[0]
    im = quad(make(lambda z: z.imag), -math.pi / 2, math.pi / 2, epsabs=1e-9, limit=300)[0]
    return re + 1j * im


# ---------------------------------------------------------------- numbers

def test_fuss_catalan_numbers_frozen():
    assert fuss_catalan_number(2, 3) == 5
    assert fuss_catalan_number(3, 0) == 1
    assert fuss_catalan_number(3, 2) == 3


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", range(9))
def test_fuss_catalan_numbers_match_binomial_formula(p, n):
    exact = binomial_fc(p, n)
    assert exact.denominator == 1
    assert fuss_catalan_number(p, n) == exact.numerator


def test_fuss_catalan_numbers_are_big_int_safe():
    val = fuss_catalan_number(6, 40)
    assert val == binomial_fc(6, 40).numerator
    assert val > 10**40


# ---------------------------------------------------------------- T_p

def test_fc_at_origin_and_critical_point():
    assert fc_function(3, 0.0) == 1.0
    assert fc_function(3, 4 / 27) == pytest.approx(1.5, abs=1e-12)


def test_fc_p2_closed_form():
    # T = 1 + 0.1 T^2 with the branch through T(0)=1
    expected = (1 - math.sqrt(0.6)) / 0.2
    assert fc_function(2, 0.1) == pytest.approx(expected, abs=1e-13)


def test_fc_series_equals_root_tracking_inside_half_radius():
    rng = np.random.default_rng(7)
    for p in (2, 3, 4, 5):
        u_c = critical_point(p)
        for _ in range(20):
            r = 0.5 * u_c * rng.uniform(0.05, 0.98)
            phi = rng.uniform(0, 2 * math.pi)
            u = r * complex(math.cos(phi), math.sin(phi))
            a, ok = _newton_polish(p, u, _fc_series(p, u))
            assert ok
            b = _fc_track(p, u)
            assert abs(a - b) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    r=st.floats(min_value=0.0, max_value=0.9),
    phi=st.floats(min_value=0.02, max_value=2 * math.pi - 0.02),
)
def test_fc_residual_invariant(p, r, phi):
    u = 3 * critical_point(p) * r * complex(math.cos(phi), math.sin(phi))
    t = fc_function(p, u)
    assert abs(t - 1 - u * t**p) < 1e-12


def test_fc_cut_contact():
    with pytest.raises(CutContact):
        fc_function(3, 0.5)


def test_fc_boundary_values_conjugate_and_positive_imag():
    for p in (2, 3, 4):
        u0 = 1.7 * critical_point(p)
        above = fc_function_boundary(p, u0, side=+1)
        below = fc_function_boundary(p, u0, side=-1)
        assert above == pytest.approx(below.conjugate(), abs=1e-12)
        assert above.imag > 0
        assert abs(above - 1 - u0 * above**p) < 1e-12


def test_fc_boundary_matches_epsilon_extrapolation():
    # Richardson extrapolation of T_p(u0 + i*eps) over eps = 1e-4, 1e-5, 1e-6
    p, u0 = 3, 0.3
    vals = [fc_function(p, u0 + 1j * e) for e in (1e-4, 1e-5, 1e-6)]
    # linear-in-eps extrapolation to eps=0 through the two smallest points
    extrap = (10 * vals[2] - vals[1]) / 9
    direct = fc_function_boundary(p, u0, side=+1)
    assert abs(direct - extrap) < 1e-7


# ---------------------------------------------------------------- P_p

def test_pp_density_frozen_points():
    assert pp_density(2, 2.0) == pytest.approx(1 / (2 * math.pi), abs=1e-12)
    assert pp_density(2, 4.0) == 0.0
    assert pp_density(3, 1.0) == pytest.approx(p3_density_closed(1.0), abs=1e-10)


def pp_from_roots(p, x):
    """P_p from the branch-tracked boundary value of T_p: rho(sqrt x)/sqrt x."""
    return wigner_density_roots(p, math.sqrt(x)) / math.sqrt(x)


@pytest.mark.parametrize("p,closed", [(2, p2_density_closed), (3, p3_density_closed)])
def test_pp_hypergeometric_matches_closed_forms(p, closed):
    # the name predates the single parametric route; it now covers the
    # whole grid up to the endpoint
    u_c = critical_point(p)
    grid = np.linspace(0.01 / u_c, 0.999 / u_c, 100)
    for x in grid:
        assert pp_density(p, x) == pytest.approx(closed(x), abs=1e-10)


@pytest.mark.parametrize("p,closed", [(2, p2_density_closed), (3, p3_density_closed)])
def test_pp_root_tracking_matches_closed_forms_to_endpoint(p, closed):
    u_c = critical_point(p)
    grid = np.linspace(0.01 / u_c, 0.999 / u_c, 60)
    for x in grid:
        assert pp_from_roots(p, x) == pytest.approx(closed(x), abs=1e-8)


def test_pp_methods_agree_on_overlap():
    for p in (2, 3, 4, 5):
        u_c = critical_point(p)
        for x in np.linspace(0.05 / u_c, 0.94 / u_c, 25):
            assert abs(pp_density(p, x) - pp_from_roots(p, x)) < 1e-8


def test_pp_endpoint_regime_and_domain_errors():
    u_c = critical_point(3)
    assert pp_density(3, 0.97 / u_c) > 0
    with pytest.raises(DomainError):
        pp_density(3, -1.0)
    with pytest.raises(DomainError):
        pp_density(3, 1.01 / u_c)


def mp_pp_density(p, x):
    """P_p(x) at 60 digits from the parametric form, solved by bisection in
    log(pi/p - phi) so that neither end of the support loses digits."""
    with mpmath.workdps(60):
        P, lx = mpmath.mpf(p), mpmath.log(mpmath.mpf(x))

        def log_x(d):  # d = pi/p - phi
            return (P * mpmath.log(mpmath.sin(P * d)) - mpmath.log(mpmath.sin(mpmath.pi / P - d))
                    - (P - 1) * mpmath.log(mpmath.sin(mpmath.pi / P + (P - 1) * d)))

        lo, hi = mpmath.mpf(-1000), mpmath.log(mpmath.pi / P)
        while hi - lo > mpmath.mpf(10) ** -50:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if log_x(mpmath.exp(mid)) < lx else (lo, mid)
        d = mpmath.exp(lo)
        phi = mpmath.pi / P - d
        return (mpmath.sin(phi) ** 2 * mpmath.sin((P - 1) * phi) ** (P - 2)
                / (mpmath.pi * mpmath.sin(P * d) ** (P - 1)))


@pytest.mark.parametrize("p", [2, 3, 4, 5, 10, 50, 150, 1000])
def test_pp_density_matches_mpmath(p):
    u_c = critical_point(p)
    for z in (1e-300, 1e-100, 1e-20, 1e-6, 0.01, 0.2, 0.5, 0.8, 0.9, 0.95, 0.97, 0.98, 0.985, 0.99):
        ref = mp_pp_density(p, z / u_c)
        assert abs(pp_density(p, z / u_c) - ref) <= 1e-12 * ref, z


@pytest.mark.parametrize("p", [2, 3, 4, 5, 10, 50, 150, 1000])
def test_pp_density_last_ulps_below_edge(p):
    x = 1.0 / critical_point(p)
    assert pp_density(p, x) == 0.0
    for _ in range(16):
        x = float(np.nextafter(x, 0.0))
        val = pp_density(p, x)
        assert math.isfinite(val) and val >= 0.0


# ---------------------------------------------------------------- rho

def test_wigner_density_semicircle_p2():
    for y in np.linspace(-1.99, 1.99, 200):
        assert wigner_density(2, y) == pytest.approx(semicircle(y), abs=1e-10)


def test_wigner_density_frozen_points():
    assert wigner_density(2, 0.0) == pytest.approx(1 / math.pi, abs=1e-12)
    assert wigner_density(2, 1.0) == pytest.approx(math.sqrt(3) / (2 * math.pi), abs=1e-12)
    assert wigner_density(3, 2.7) == 0.0


def test_wigner_density_even():
    for p in (2, 3, 4):
        for y in (0.3, 0.9, 1.7):
            assert wigner_density(p, y) == pytest.approx(wigner_density(p, -y), abs=1e-14)


def test_wigner_density_roots_frozen_points():
    assert wigner_density_roots(2, 1.0) == pytest.approx(semicircle(1.0), abs=1e-10)
    assert wigner_density_roots(3, support_edge(3)) == pytest.approx(0.0, abs=1e-6)
    assert wigner_density_roots(3, 1.0) == pytest.approx(wigner_density(3, 1.0), abs=1e-8)


def test_wigner_density_roots_matches_p3_closed_form():
    for y in np.linspace(0.05, 0.999 * support_edge(3), 50):
        assert wigner_density_roots(3, y) == pytest.approx(p3_rho_closed(y), abs=1e-8)


# ---------------------------------------------------------- array route

ARRAY_ORDERS = [*range(2, 13), 20, 50, 150, 1000]


def assert_one_point_calls_match(density, p, points, ref):
    """density(p, float) on points, one call each, gives floats with the bits
    of ref: no point's value depends on its neighbours in an array.  A
    one-point call runs the array Newton (~0.3-1 ms), so grids above 20
    points are checked at every 10th point."""
    step = 10 if len(points) > 20 else 1
    one = [density(p, v) for v in points.tolist()[::step]]
    assert all(type(v) is float for v in one)
    assert np.array(one).tobytes() == ref[::step].tobytes(), len(points)


@pytest.mark.parametrize("p", ARRAY_ORDERS)
def test_wigner_density_array_route_is_bitwise_scalar(p):
    # the scalar Newton loop kept in conftest is the reference: the array
    # route runs the same steps with math's functions, so every bit must agree
    edge = support_edge(p)
    grids = [np.linspace(-edge, edge, size) for size in (1, 2, 3, 7, 400, 1001)]
    # the origin, both edges and the last ulps inside them
    inner = [float(np.nextafter(edge, 0.0)), float(np.nextafter(-edge, 0.0))]
    grids.append(np.array([0.0, -0.0, edge, -edge, *inner, 1e-150, -1e-150]))
    for ys in grids:
        ref = np.array([reference_wigner_density(p, y) for y in ys.tolist()])
        assert wigner_density(p, ys).tobytes() == ref.tobytes(), ys.size
        assert_one_point_calls_match(wigner_density, p, ys, ref)


@pytest.mark.parametrize("p", ARRAY_ORDERS)
def test_pp_density_array_route_is_bitwise_scalar(p):
    top = 1.0 / critical_point(p)
    # x = 1/u_c, where u_c x >= 1 at most p, and the last ulps below it
    last = [top]
    for _ in range(16):
        last.append(float(np.nextafter(last[-1], 0.0)))
    for xs in (np.linspace(0.0, top, 402)[1:], np.geomspace(1e-300, top, 300), np.array(last)):
        ref = np.array([reference_pp_density(p, x) for x in xs.tolist()])
        assert pp_density(p, xs).tobytes() == ref.tobytes()
        assert_one_point_calls_match(pp_density, p, xs, ref)


def mp_wigner_density(p, y):
    """rho(y) at 60 digits: the parametric form solved for t = pi/p - phi,
    in log t, by mpmath's secant method from the leading-order root."""
    with mpmath.workdps(60):
        y = mpmath.mpf(y)
        log_x, q, c = 2 * mpmath.log(abs(y)), p - 1, mpmath.pi / p

        def resid(log_t):
            t = mpmath.exp(log_t)
            return (p * mpmath.log(mpmath.sin(p * t)) - mpmath.log(mpmath.sin(c - t))
                    - q * mpmath.log(mpmath.sin(c + q * t)) - log_x)

        start = mpmath.log(mpmath.sin(c) / p) + log_x / p
        t = mpmath.exp(mpmath.findroot(resid, (start, start + mpmath.mpf("1e-3"))))
        s1, sq = mpmath.sin(c - t), mpmath.sin(c + q * t)
        log_rho = (log_x / 2 - q * log_x / p + (p + 1) * mpmath.log(s1) / p
                   - mpmath.log(sq) / p - mpmath.log(mpmath.pi))
        return mpmath.exp(log_rho)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_wigner_density_below_the_subnormal_square(p):
    # y*y is subnormal or zero below |y| = 1.49e-154; log y^2 = 2 log|y| keeps
    # full precision there, scalar and array alike
    ys = [1e-155, 1e-160, 1e-200, 1e-300, 5e-324]
    got = wigner_density(p, np.array([*ys, *(-y for y in ys)]))
    for y, v, w in zip(ys, got[:5], got[5:]):
        ref = mp_wigner_density(p, y)
        assert abs(v - ref) <= 1e-12 * ref, y
        assert v == w == wigner_density(p, y) == wigner_density(p, -y)


def test_density_beyond_the_double_range_is_inf():
    # only the final exp saturates, as rho(0) = +inf does; finite points
    # of the same array keep the bits of their own scalar calls
    assert pp_density(1000, 5e-324) == math.inf
    assert wigner_density(1000, 1e-320) == math.inf
    xs = np.array([5e-324, 1e-300, 0.5])
    got = pp_density(1000, xs)
    assert got[0] == math.inf
    assert [v.hex() for v in got[1:].tolist()] == [pp_density(1000, x).hex() for x in (1e-300, 0.5)]
    ys = np.array([1e-320, -1e-320, 1e-100, 0.0])
    got = wigner_density(1000, ys)
    assert got[[0, 1, 3]].tolist() == [math.inf] * 3
    assert got[2].hex() == wigner_density(1000, 1e-100).hex()


def test_wigner_density_refuses_nan():
    with pytest.raises(DomainError):
        wigner_density(3, math.nan)
    with pytest.raises(DomainError):
        wigner_density(3, np.array([0.5, math.nan]))


def test_pp_density_array_route_refuses_like_scalar():
    with pytest.raises(DomainError) as scalar:
        pp_density(3, -1.0)
    with pytest.raises(DomainError) as array:
        pp_density(3, np.array([1.0, -1.0, 50.0]))
    assert str(array.value) == str(scalar.value)


# ---------------------------------------------------------------- omega

def test_resolvent_frozen_points():
    assert expected_resolvent(2, 3.0) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    w = 1e6
    assert abs(w * expected_resolvent(3, w) - 1) < 1e-10


def test_resolvent_large_w_series_tail():
    w = 10j
    omega = expected_resolvent(3, w)
    # 1/w + F_3(1)/w^3 + F_3(2)/w^5 + ...
    lead = 1 / w + fuss_catalan_number(3, 1) / w**3
    assert abs(omega - lead) < 2 * abs(fuss_catalan_number(3, 2) / w**5)


def test_resolvent_p3_closed_form():
    for w in (2.7, 3.0, 4.0, 10.0, -4.0, 5 + 2j, 10j):
        assert expected_resolvent(3, w) == pytest.approx(p3_resolvent_closed(w), abs=1e-11)


def test_resolvent_cut_contact():
    with pytest.raises(CutContact):
        expected_resolvent(3, 1.0)
    with pytest.raises(CutContact):
        expected_resolvent(2, 0.0)


@pytest.mark.parametrize("p,points", [
    (2, (2.8 + 0.5j, 4.0, 10j)),
    (3, (2.8 + 0.5j, 4.0, 10j)),
    (4, (3.2 + 0.5j, 4.5, 10j)),
])
def test_stieltjes_consistency(p, points):
    for w in points:
        lhs = expected_resolvent(p, w)
        rhs = stieltjes_quadrature(p, w)
        assert abs(lhs - rhs) < 1e-6


# ---------------------------------------------------------------- moments

@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_density_moments_match_fuss_catalan(p):
    for n in range(7):
        assert abs(density_moment(p, n) - fuss_catalan_number(p, n)) < 1e-6


@pytest.mark.parametrize("p", [2, 3, 7, 50, 150, 1000])
def test_density_moments_relative_at_large_p(p):
    for n in range(9):
        exact = fuss_catalan_number(p, n)
        assert abs(density_moment(p, n, tol=1e-13 * exact) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 10, 50, 150, 1000])
def test_density_moment_is_bitwise_the_per_n_loop(p):
    # at the default absolute tol and at a relative one; where the per-n
    # loop gives up, the shared curve gives up with the same estimate
    for n in range(9):
        for tol in (1e-7, 1e-13 * fuss_catalan_number(p, n)):
            try:
                ref = reference_density_moment(p, n, tol)
            except QuadratureFailure as exc:
                with pytest.raises(QuadratureFailure) as got:
                    density_moment(p, n, tol)
                assert got.value.error_estimate == exc.error_estimate
                continue
            assert density_moment(p, n, tol).hex() == ref.hex(), (n, tol)


def test_moments_job_evaluates_the_curve_once_per_order_and_half(monkeypatch, capsys):
    # a cold `moments --p 3 --nmax 6` needs orders 16 and 32 for every n:
    # 4 curves, each (order, half) once, where one n at a time took 28
    calls = []

    def counted(p, t, from_origin, xp):
        calls.append((t.shape, from_origin))
        return curve(p, t, from_origin, xp)

    curve = fuss_catalan._curve
    monkeypatch.setattr(fuss_catalan, "_curve", counted)
    fuss_catalan._moment_curve.cache_clear()
    assert cli.main(["moments", "--p", "3", "--nmax", "6"]) == 0
    assert len(calls) == len(set(calls)) == 4


def test_moment_curve_cache_stays_bounded():
    for p in range(2, 202):
        density_moment(p, 0)
    info = fuss_catalan._moment_curve.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < info.misses


def test_odd_moments_vanish():
    # rho is even, so signed odd-power integrals over the support cancel
    for p in (2, 3):
        edge = support_edge(p)

        def integrand(t):
            y = edge * math.sin(t)
            if abs(y) >= edge or y == 0.0:
                return 0.0
            return y**3 * wigner_density(p, y) * edge * math.cos(t)

        val = quad(integrand, -math.pi / 2, math.pi / 2, epsabs=1e-10, limit=200)[0]
        assert abs(val) < 1e-8


# ---------------------------------------------------------------- constants

def test_support_edge_identity():
    assert critical_point(3) == pytest.approx(4 / 27, abs=1e-16)
    for p in range(2, 9):
        assert abs(support_edge(p) ** 2 * critical_point(p) - 1.0) < 1e-14


def test_support_edge_identity_at_large_p():
    # every p to 1000, then spot checks to 10^4 and beyond, where u_c
    # leaves exact integer division
    orders = [*range(2, 1001), 2048, 4099, 8191, 9999, 10_000, 10_001, 65_537, 10**6]
    for p in orders:
        assert abs(support_edge(p) ** 2 * critical_point(p) - 1.0) < 1e-14, p


def test_critical_point_beyond_exact_range():
    for p in (10_001, 12_345):
        exact = (p - 1) ** (p - 1) / p**p
        assert abs(critical_point(p) - exact) <= 4 * math.ulp(exact)
