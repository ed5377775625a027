import math

import numpy as np
import pytest
from hypothesis import settings

from tensorspectra.errors import QuadratureFailure
from tensorspectra.fuss_catalan import _curve, critical_point, gl_panels, support_edge

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def reference_panels(func, edges, order):
    """The Gauss-Legendre rule one panel at a time, each on a 1-d array of
    nodes: the loop gl_panels replaced, kept as its bitwise reference."""
    x, wts = np.polynomial.legendre.leggauss(order)
    values = []
    for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
        mid, half = (a + b) / 2, (b - a) / 2
        values.append(half * np.sum(wts * func(mid + half * x)))
    return values


@pytest.fixture
def checked_gl_panels(monkeypatch):
    """install(module) replaces module.gl_panels with a wrapper that asserts
    each call equals reference_panels bit for bit; it returns the list that
    collects each call's reference values."""

    def install(module):
        calls = []

        def checked(func, edges, order):
            got = gl_panels(func, edges, order)
            ref = np.array(reference_panels(func, edges, order))
            assert got.tobytes() == ref.tobytes()
            calls.append(ref)
            return got

        monkeypatch.setattr(module, "gl_panels", checked)
        return calls

    return install


# (k, c_k) with sin(a)/a = 1 + sum c_k a^(2k), highest k first.
_SINC_TERMS = tuple((k, (-1) ** k / math.factorial(2 * k + 1)) for k in range(11, 0, -1))


def _reference_log_sinc(a):
    a2 = a * a
    s = ds = 0.0
    for k, c in _SINC_TERMS:
        s = (s + c) * a2
        ds = (ds + 2 * k * c) * a2
    return math.log1p(s), ds / (a * (1 + s))


def _reference_curve(p, t, from_origin):
    """(log_x, d log_x/dt, sin phi, sin((p-1) phi)) at one point t of the
    curve of P_p's parametric form, on math's functions."""
    q = p - 1
    sp = math.sin(p * t)
    if from_origin:
        phi = math.pi / p - t
        s1, sq = math.sin(phi), math.sin(math.pi / p + q * t)
        log_x = p * math.log(sp) - math.log(s1) - q * math.log(sq)
        slope = q * q * s1 / (sp * sq) + (2 * p - 1) * math.cos(p * t) / sp + math.cos(phi) / s1
    else:
        s1, sq = math.sin(t), math.sin(q * t)
        (lp, gp), (l1, g1), (lq, gq) = (
            _reference_log_sinc(p * t), _reference_log_sinc(t), _reference_log_sinc(q * t))
        log_x = p * lp - l1 - q * lq
        slope = p * p * gp - g1 - q * q * gq
    return log_x, slope, s1, sq


def reference_pp_density(p, x):
    """P_p(x) at one float x in (0, 1/u_c] by the scalar Newton loop that
    pp_density's array route replaced, kept as its bitwise reference.  It
    carries its own copy of the curve, so a change to the library's curve
    code shows up as a bit difference."""
    x = float(x)
    u_c = critical_point(p)
    assert 0.0 < x <= 1.0 / u_c
    z = u_c * x
    if z >= 1.0 or x == 1.0 / u_c:
        return 0.0
    eps4 = 4 * np.finfo(float).eps
    log_x = math.log(x)
    lo, hi = 0.0, math.pi / (2 * p)
    from_origin = log_x < -math.log(math.sin(hi)) - (p - 1) * math.log(math.cos(hi))
    if from_origin:
        target = log_x
        t = min(hi, math.sin(math.pi / p) * math.exp(log_x / p) / p)
    else:
        target = math.log(z)
        t = min(hi, math.sqrt(-2.0 * target / (p * (p - 1))))
    for _ in range(200):
        value, slope, s1, sq = _reference_curve(p, t, from_origin)
        resid = value - target
        if (resid < 0) == from_origin:
            lo = t
        else:
            hi = t
        step = resid / slope
        if abs(step) <= eps4 * t or hi - lo <= eps4 * hi:
            break
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    else:
        raise AssertionError(f"reference inversion for P_{p} did not converge at x={x}")
    log_p = (-(p - 1) * log_x + (p + 1) * math.log(s1) - math.log(sq)) / p
    return math.exp(log_p - math.log(math.pi))


def reference_wigner_density(p, y):
    """rho(y) = |y| P_p(y^2) at one float y, on reference_pp_density."""
    y = float(y)
    if abs(y) >= support_edge(p):
        return 0.0
    if y == 0.0:
        return 1.0 / math.pi if p == 2 else math.inf
    return abs(y) * reference_pp_density(p, y * y)


def reference_density_moment(p, n, tol=1e-7):
    """density_moment as one n at a time, each order evaluating the curve at
    its nodes afresh: the loop the shared curve replaced, kept as its
    bitwise reference."""
    half = math.pi / (2 * p)
    edge_scale = critical_point(p) ** -n

    def weighted(t, from_origin):
        log_x, slope, s1, sq, sp = _curve(p, t, from_origin, np)
        return np.exp(n * log_x) * s1 * sp * np.abs(slope) / (math.pi * sq)

    def origin(s):
        return 2 * half * s * weighted(half * s * s, True)

    def edge(t):
        return edge_scale * weighted(t, False)

    prev = None
    for order in (16, 32, 64, 128, 256, 512, 1024):
        val = (gl_panels(origin, np.array([0.0, 1.0]), order)[0]
               + gl_panels(edge, np.array([0.0, half]), order)[0])
        err = math.inf if prev is None else abs(val - prev)
        if err <= tol:
            return float(val)
        prev = val
    raise QuadratureFailure(
        f"moment quadrature error estimate {err} above tolerance {tol}",
        error_estimate=err,
    )
