"""Fuss-Catalan combinatorics and the generalized Wigner law.

The central object is the Fuss-Catalan generating function T_p(u), the
solution of T = 1 + u*T^p that is analytic at u = 0.  From it derive the
positive density P_p on (0, 1/u_c) whose moments are the Fuss-Catalan
numbers, the even spectral density rho(y) = |y| * P_p(y^2) supported on
(-edge, +edge) with edge = p^{p/2}/(p-1)^{(p-1)/2}, and the expected
resolvent omega(w) = T_p(w^{-2})/w.

The density has one evaluation route, the parametric form of P_p in an
angle phi (pp_density), which holds at every p: one Newton inversion
that runs on an array of points at once, a single float being an array
of one.  density_moment integrates in the same angle.  The
branch-tracked boundary value of T_p (wigner_density_roots) is an
independent route that tests compare against.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import (
    BranchTrackingFailed,
    CutContact,
    DomainError,
    QuadratureFailure,
    RootFindFailure,
)

__all__ = [
    "critical_point",
    "support_edge",
    "fuss_catalan_number",
    "fc_function",
    "fc_function_boundary",
    "pp_density",
    "wigner_density",
    "wigner_density_roots",
    "expected_resolvent",
    "density_moment",
]

_RESIDUAL_TOL = 1e-12
# Newton steps _newton_polish takes before it gives up.
_POLISH_MAXIT = 60
# Relative term size that ends _fc_series, and its most terms.
_SERIES_RTOL = 1e-16
_SERIES_NMAX = 5000
# Four ulps of 1: the relative tolerance of the branch-point test and of
# pp_density's Newton inversion.
_EPS4 = 4 * np.finfo(float).eps
# Lower end of the bracket of pp_density's Newton in the curve parameter t,
# and the smallest t it starts from.  Near the origin t is about sqrt(x)/2 at
# p = 2, which underflows once y = sqrt(x) is below ~4e-308 in wigner_density;
# there sin(phi) and sin((p-1) phi) round to 1 at any such t.
_T_MIN = sys.float_info.min
# Largest p whose u_c is divided out in exact integers; beyond it the powers
# run to hundreds of thousands of digits and take seconds, so logs are used.
_EXACT_U_C_MAX_P = 10_000


def critical_point(p: int) -> float:
    """u_c = (p-1)^(p-1)/p^p, the branch point of T_p on the positive axis.

    Correctly rounded up to p = 10^4; within a few ulps beyond.
    """
    _check_order(p)
    if p <= _EXACT_U_C_MAX_P:
        return (p - 1) ** (p - 1) / p**p
    return math.exp((p - 1) * math.log1p(-1 / p)) / p


def support_edge(p: int) -> float:
    """Endpoint of the spectral support, equal to 1/sqrt(u_c)."""
    return math.sqrt(1 / critical_point(p))


def _check_order(p):
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise DomainError(f"order p must be an integer >= 2, got {p!r}")


def fuss_catalan_number(p: int, n: int) -> int:
    """Exact Fuss-Catalan number binom(p*n+1, n)/(p*n+1), in integer arithmetic."""
    _check_order(p)
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    num = math.comb(p * n + 1, n)
    q, r = divmod(num, p * n + 1)
    if r:  # cannot happen: the quotient is a ballot number
        raise ArithmeticError("Fuss-Catalan quotient not integral")
    return q


def _newton_polish(p, u, t0):
    """Polish a root of u*T^p - T + 1 = 0 starting from t0.

    Returns (root, ok).  ok is False when Newton stalls or diverges.
    """
    t = complex(t0)
    for _ in range(_POLISH_MAXIT):
        g = u * t**p - t + 1.0
        if abs(g) < _RESIDUAL_TOL:
            return t, True
        gp = p * u * t ** (p - 1) - 1.0
        if gp == 0:
            return t, False
        step = g / gp
        if not (abs(step) < 1e6):
            return t, False
        t = t - step
    return t, abs(u * t**p - t + 1.0) < _RESIDUAL_TOL


def _fc_series(p, u):
    """Power series sum F_p(n) u^n with term-ratio stopping."""
    u = complex(u)
    total = 1.0 + 0j
    term = 1.0 + 0j
    fc_prev = 1
    for n in range(1, _SERIES_NMAX):
        fc = fuss_catalan_number(p, n)
        term *= u * (fc / fc_prev)
        fc_prev = fc
        total += term
        if abs(term) < _SERIES_RTOL * abs(total):
            return total
    raise BranchTrackingFailed(f"series for T_{p}({u}) did not converge")


def _fc_track_segment(p, u_from, u_to, t):
    """Continue the tracked root along one straight segment.

    Adaptive step halving; each accepted waypoint is Newton-polished to
    residual < 1e-12 and guarded against hopping to another sheet.
    """
    if u_to == u_from:
        return t
    s = 0.0
    ds = 1.0 / 8.0
    halvings = 0
    while s < 1.0:
        s_next = min(1.0, s + ds)
        u_next = u_from + (u_to - u_from) * s_next
        t_new, ok = _newton_polish(p, u_next, t)
        if ok and abs(t_new - t) > 0.5 * max(1.0, abs(t)):
            ok = False
        if ok:
            s = s_next
            t = t_new
            ds = min(2 * ds, 1.0 / 8.0)
            halvings = 0
        else:
            ds /= 2
            halvings += 1
            if halvings > 60:
                u_good = u_from + (u_to - u_from) * s
                raise BranchTrackingFailed(
                    f"lost the analytic branch of T_{p} near u={u_good}", last_good=(u_good, t)
                )
    return t


def _branch_waypoints(p, u):
    """Polyline from 0 to u that keeps clear of the branch point u_c.

    A straight segment is safe when it cannot come close to u_c; otherwise
    the path rises above (or below, matching the sign of Im u) the cut and
    descends vertically onto the target.
    """
    u_c = critical_point(p)
    if u.imag == 0.0 or abs(u) <= 0.9 * u_c:
        return [u]
    side = 1.0 if u.imag > 0 else -1.0
    h = 0.6 * max(u_c, abs(u))
    lift = max(h, abs(u.imag))
    return [1j * side * h, complex(u.real, side * lift), u]


def _fc_track(p, u):
    """Homotopy continuation of the analytic branch from u=0 along a
    cut-avoiding polyline."""
    u = complex(u)
    t = 1.0 + 0j
    prev = 0.0 + 0j
    for waypoint in _branch_waypoints(p, u):
        t = _fc_track_segment(p, prev, waypoint, t)
        prev = waypoint
    return t


def fc_function(p: int, u: complex) -> complex:
    """The Fuss-Catalan function T_p(u), analytic branch with T_p(0) = 1.

    Summed as the power series for |u| <= 0.45 u_c and tracked from u = 0
    along a cut-avoiding path beyond; either way the result satisfies
    |T - 1 - u T^p| < 1e-12.
    """
    _check_order(p)
    u = complex(u)
    u_c = critical_point(p)
    if u.imag == 0 and u.real >= u_c:
        if abs(u.real - u_c) <= _EPS4 * u_c:
            # branch point itself: the two colliding roots equal p/(p-1)
            return complex(p / (p - 1))
        raise CutContact(
            f"u={u.real} lies on the cut [u_c, oo) of T_{p}; "
            "use fc_function_boundary to pick a side"
        )
    if abs(u) <= 0.45 * u_c:
        val = _fc_series(p, u)
        # one Newton step keeps the residual at the 1e-12 contract even
        # when the series was truncated near its radius
        val, ok = _newton_polish(p, u, val)
        if not ok:
            raise BranchTrackingFailed(f"series polish failed for T_{p}({u})")
        return val
    return _fc_track(p, u)


def fc_function_boundary(p: int, u0: float, side: int = +1) -> complex:
    """Boundary value of T_p on the cut [u_c, oo), approached from Im u > 0
    (side=+1) or Im u < 0 (side=-1).

    The boundary root of u*T^p - T + 1 is a simple complex root for
    u0 > u_c, so after a short homotopy up to u0 + i*eps the root is
    polished at exactly eps = 0 (machine accurate, no extrapolation).
    """
    _check_order(p)
    u0 = float(u0)
    u_c = critical_point(p)
    if u0 < u_c:
        raise DomainError(f"u0={u0} is below the branch point u_c={u_c}")
    if side not in (+1, -1):
        raise DomainError("side must be +1 or -1")
    if abs(u0 - u_c) <= 1e-12 * u_c:
        return complex(p / (p - 1))
    # approach the cut on the requested side, then polish on the cut itself;
    # the boundary root is a simple complex root for u0 > u_c, so Newton at
    # exactly eps = 0 is regular (no extrapolation needed)
    eps = min(1e-6 * u_c, 0.01 * (u0 - u_c))
    u_eps = u0 + 1j * side * eps
    t_eps = _fc_track(p, u_eps)
    t, ok = _newton_polish(p, complex(u0), t_eps)
    if not ok:
        raise BranchTrackingFailed(
            f"boundary polish failed for T_{p}({u0})", last_good=(u_eps, t_eps)
        )
    return t


# (k, c_k) with sin(a)/a = 1 + sum c_k a^(2k), highest k first; 11 terms
# reach full double precision for |a| <= pi/2.
_SINC_TERMS = tuple((k, (-1) ** k / math.factorial(2 * k + 1)) for k in range(11, 0, -1))


def _log_sinc(a, xp):
    """log(sin(a)/a) and its derivative cot(a) - 1/a for 0 < a <= pi/2, from
    the Taylor series, so both keep full relative precision as a -> 0."""
    a2 = a * a
    s = ds = 0.0
    for k, c in _SINC_TERMS:
        s = (s + c) * a2
        ds = (ds + 2 * k * c) * a2
    return xp.log1p(s), ds / (a * (1 + s))


def _curve(p, t, from_origin, xp):
    """(log_x, d log_x/dt, sin phi, sin((p-1) phi), sin(p phi)) at an array t
    of points of pp_density's curve, with xp's functions (numpy, or _mathmap
    for math's bits).

    phi = pi/p - t on the half next to the origin and phi = t on the half
    next to the edge, t in (0, pi/(2p)], so every sine keeps full relative
    precision.  log_x is log x(phi) near the origin and log(u_c x(phi)) near
    the edge, where it is about -p(p-1) phi^2/2 and log sin terms would cancel.
    """
    q = p - 1
    sp = xp.sin(p * t)
    if from_origin:
        phi = math.pi / p - t
        s1, sq = xp.sin(phi), xp.sin(math.pi / p + q * t)
        log_x = p * xp.log(sp) - xp.log(s1) - q * xp.log(sq)
        # -(p^2 cot(p phi) - cot(phi) - q^2 cot(q phi)) as a sum of positive terms
        slope = q * q * s1 / (sp * sq) + (2 * p - 1) * xp.cos(p * t) / sp + xp.cos(phi) / s1
    else:
        s1, sq = xp.sin(t), xp.sin(q * t)
        (lp, gp), (l1, g1), (lq, gq) = _log_sinc(p * t, xp), _log_sinc(t, xp), _log_sinc(q * t, xp)
        log_x = p * lp - l1 - q * lq
        slope = p * p * gp - g1 - q * q * gq
    return log_x, slope, s1, sq, sp


def _elementwise(f):
    def mapped(a):
        return np.fromiter(map(f, a.tolist()), float, a.size)

    return mapped


def _exp_or_inf(a):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


# math's functions mapped over a 1-d array.  numpy's log, exp and log1p
# differ from math's in the last bit on some inputs; pp_density calls these,
# so every value has the bits of the same Newton run point by point on math.
# exp_or_inf, the final exp of a density, gives +inf beyond the double range.
_mathmap = SimpleNamespace(
    sin=_elementwise(math.sin),
    cos=_elementwise(math.cos),
    log=_elementwise(math.log),
    log1p=_elementwise(math.log1p),
    exp=_elementwise(math.exp),
    exp_or_inf=_elementwise(_exp_or_inf),
)


def pp_density(p: int, x: float | np.ndarray) -> float | np.ndarray:
    """The positive Fuss-Catalan density P_p on (0, 1/u_c].

    Moments of P_p against x^n are the Fuss-Catalan numbers F_p(n).  Uses
    the parametrization of the support by phi in (0, pi/p) (Haagerup and
    Moller, arXiv:1211.4457; Mlotkowski, Doc. Math. 15, 2010):

        x(phi) = sin(p phi)^p / (sin(phi) sin((p-1) phi)^(p-1))
        P_p(x) = x^(-(p-1)/p) sin(phi)^((p+1)/p) / (pi sin((p-1) phi)^(1/p))

    phi(x) is found by safeguarded Newton in log x, and P_p is evaluated in
    logs, so nothing overflows or cancels at any p.  x may be a float or a
    1-d float array: the Newton runs on every point at once, each point with
    its own bracket and stopping test, so no value depends on the others.
    A float x returns a float.  Where P_p exceeds the largest double (x of
    5e-324 at p = 100) it is reported as +inf.
    """
    _check_order(p)
    scalar = not isinstance(x, np.ndarray)
    x = np.array([float(x)]) if scalar else np.asarray(x, dtype=float)
    u_c = critical_point(p)
    outside = ~((0.0 < x) & (x <= 1.0 / u_c))
    if outside.any():
        raise DomainError(f"x={float(x[outside.argmax()])} outside the support (0, {1/u_c}]")
    out = _mathmap.exp_or_inf(_log_pp(p, x, _mathmap.log(x)))
    return float(out[0]) if scalar else out


def _log_pp(p, x, log_x):
    """log P_p on a 1-d array of points x of the support, given log x; -inf
    where P_p is 0 (at the edge 1/u_c)."""
    u_c = critical_point(p)
    z = u_c * x
    live = ~((z >= 1.0) | (x == 1.0 / u_c))
    x, z, log_x = x[live], z[live], log_x[live]
    hi = math.pi / (2 * p)
    # the curve's midpoint t = hi, where sin(p phi) = 1, picks the half
    from_origin = log_x < -math.log(math.sin(hi)) - (p - 1) * math.log(math.cos(hi))
    s1, sq, failed = np.empty(x.size), np.empty(x.size), np.empty(x.size, dtype=bool)
    for origin_half, half in ((True, from_origin), (False, ~from_origin)):
        if origin_half:
            target = log_x[half]
            t0 = math.sin(math.pi / p) * _mathmap.exp(target / p) / p
            t = np.clip(t0, _T_MIN, hi)
        else:
            target = _mathmap.log(z[half])
            t = np.minimum(hi, np.sqrt(-2.0 * target / (p * (p - 1))))
        s1[half], sq[half], failed[half] = _invert_curve(p, t, target, origin_half)
    if failed.any():
        raise RootFindFailure(
            f"parametric inversion for P_{p} did not converge at x={float(x[failed.argmax()])}"
        )
    out = np.full(live.size, -math.inf)
    out[live] = (-(p - 1) * log_x + (p + 1) * _mathmap.log(s1) - _mathmap.log(sq)) / p - math.log(math.pi)
    return out


def _invert_curve(p, t, target, from_origin):
    """pp_density's safeguarded Newton on one half of the curve, run on all
    points at once; each keeps its own bracket and stops on its own test.

    Returns (sin phi, sin((p-1) phi), failed), failed marking the points
    still unconverged after 200 steps.
    """
    n = t.size
    lo, hi = np.full(n, _T_MIN), np.full(n, math.pi / (2 * p))
    s1, sq = np.empty(n), np.empty(n)
    todo = np.arange(n)
    for _ in range(200):
        if not todo.size:
            break
        value, slope, s1_t, sq_t, _ = _curve(p, t, from_origin, _mathmap)
        resid = value - target
        # log_x rises with t from the origin and falls with t from the edge
        root_above = (resid < 0) == from_origin
        lo, hi = np.where(root_above, t, lo), np.where(root_above, hi, t)
        step = resid / slope
        done = (np.abs(step) <= _EPS4 * t) | (hi - lo <= _EPS4 * hi)
        s1[todo[done]], sq[todo[done]] = s1_t[done], sq_t[done]
        going = ~done
        todo, target, lo, hi = todo[going], target[going], lo[going], hi[going]
        t = t[going] - step[going]
        t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
    failed = np.zeros(n, dtype=bool)
    failed[todo] = True
    return s1, sq, failed


def wigner_density(p: int, y: float | np.ndarray) -> float | np.ndarray:
    """Generalized Wigner spectral density rho(y) = |y| P_p(y^2).

    Even in y, supported on the open interval (-edge, edge), normalized to
    total mass 1.  For p >= 3 the density has an integrable |y|^{(2-p)/p}
    singularity at the origin; rho(0) is reported as +inf there.  y may be
    a float or a 1-d float array, evaluated on pp_density's route in one
    pass; a float y returns a float.  Below |y| = 1.49e-154, where y^2 is
    subnormal or zero, log y^2 is taken as 2 log|y| and rho is formed in logs;
    where rho then exceeds the largest double (|y| ~ 1e-320 at p = 1000) it
    is reported as +inf, as at the origin.
    """
    _check_order(p)
    scalar = not isinstance(y, np.ndarray)
    y = np.array([float(y)]) if scalar else np.asarray(y, dtype=float)
    if np.isnan(y).any():
        raise DomainError("y must be a real number, got nan")
    out = np.zeros(y.shape)
    inside = np.abs(y) < support_edge(p)
    out[inside & (y == 0.0)] = 1.0 / math.pi if p == 2 else math.inf
    rest = inside & (y != 0.0)
    a = np.abs(y[rest])
    x = a * a
    tiny = x < sys.float_info.min
    log_a = _mathmap.log(a[tiny])
    log_x = _mathmap.log(np.where(tiny, 1.0, x))
    log_x[tiny] = 2 * log_a
    log_p = _log_pp(p, x, log_x)
    rho = np.empty(a.size)
    # P_p(x) < e^701 for x >= sys.float_info.min at every p
    rho[~tiny] = a[~tiny] * _mathmap.exp(log_p[~tiny])
    rho[tiny] = _mathmap.exp_or_inf(log_a + log_p[tiny])
    out[rest] = rho
    return float(out[0]) if scalar else out


def wigner_density_roots(p: int, y: float) -> float:
    """Spectral density from the boundary value of the resolvent.

    Evaluates (1/pi) Im omega(y - i0+) by branch tracking T_p around its
    branch point; independent of the parametric route of wigner_density.
    """
    _check_order(p)
    y = float(y)
    if y == 0.0:
        raise DomainError("density-from-resolvent needs y != 0")
    edge = support_edge(p)
    if abs(y) >= edge * (1 - 1e-14):
        return 0.0
    t_plus = fc_function_boundary(p, 1.0 / (y * y), side=+1)
    return max(t_plus.imag / (math.pi * abs(y)), 0.0)


def expected_resolvent(p: int, w: complex) -> complex:
    """Expected resolvent omega(w) = T_p(w^{-2})/w of the tensor ensemble.

    Defined off the real cut [-edge, edge]; behaves as 1/w at large |w|
    and satisfies the Stieltjes identity against wigner_density.
    """
    _check_order(p)
    w = complex(w)
    if w == 0:
        raise CutContact("w=0 lies on the spectral cut")
    if w.imag == 0 and abs(w.real) <= support_edge(p):
        raise CutContact(f"w={w.real} lies on the spectral cut")
    u = 1.0 / (w * w)
    return fc_function(p, u) / w


def density_moment(p: int, n: int, tol: float = 1e-7) -> float:
    """Even moment of the spectral density: integral of y^{2n} rho(y) dy.

    Equals fuss_catalan_number(p, n) up to quadrature error (absolute
    tolerance `tol`).  x^n P_p(x) dx is integrated in pp_density's angle,
    where P_p |dx/dphi| = sin(phi) sin(p phi) |d log x/dphi| / (pi sin((p-1) phi))
    is smooth; the Gauss-Legendre order doubles until two orders agree to `tol`.
    The curve at each order's nodes is computed once and shared by every n.
    """
    _check_order(p)
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    half = math.pi / (2 * p)
    edge_scale = critical_point(p) ** -n  # the edge half's log_x is log(u_c x)

    def rule(order, from_origin):
        width, wts, s, (log_x, slope, s1, sq, sp) = _moment_curve(p, order, from_origin)
        f = np.exp(n * log_x) * s1 * sp * np.abs(slope) / (math.pi * sq)
        f = 2 * half * s * f if from_origin else edge_scale * f
        return (width * np.sum(wts * f, axis=1))[0]

    prev = None
    for order in (16, 32, 64, 128, 256, 512, 1024):
        val = rule(order, True) + rule(order, False)
        err = math.inf if prev is None else abs(val - prev)
        if err <= tol:
            return float(val)
        prev = val
    raise QuadratureFailure(
        f"moment quadrature error estimate {err} above tolerance {tol}",
        error_estimate=err,
    )


@lru_cache(maxsize=128)
def _moment_curve(p, order, from_origin):
    """density_moment's Gauss-Legendre rule of the given order on one half
    of pp_density's curve, with the curve at its nodes:
    (panel half-width, weights, s, _curve(p, t)).

    The origin half has nodes s on [0, 1] and t = (pi/2p) s^2, which moves
    the nodes away from the pole of 1/sin((p-1) phi) at t = -pi/(p(p-1)),
    just past this half's end; the edge half has nodes s = t on [0, pi/2p].
    The arrays are read-only: every call with the same key shares them.
    """
    half = math.pi / (2 * p)
    width, s, wts = _panel_nodes(np.array([0.0, 1.0 if from_origin else half]), order)
    curve = _curve(p, half * s * s if from_origin else s, from_origin, np)
    for a in (width, s, *curve):
        a.flags.writeable = False
    return width, wts, s, curve


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_panels(func, edges, order):
    """Gauss-Legendre rule of the given order on every panel
    [edges[k], edges[k+1]] of a 1-d array of edges, one value per panel.

    func is called once, on the (panels, order) array of all nodes.
    """
    half, nodes, wts = _panel_nodes(edges, order)
    return half * np.sum(wts * func(nodes), axis=1)


def _panel_nodes(edges, order):
    """(half-widths, (panels, order) nodes, weights) of gl_panels' rule."""
    x, wts = _gl_nodes(order)
    mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    return half, mid[:, None] + half[:, None] * x, wts
