"""Fuss-Catalan combinatorics and the generalized Wigner law.

The central object is the Fuss-Catalan generating function T_p(u), the
solution of T = 1 + u*T^p that is analytic at u = 0.  From it derive the
positive density P_p on (0, 1/u_c) whose moments are the Fuss-Catalan
numbers, the even spectral density rho(y) = |y| * P_p(y^2) supported on
(-edge, +edge) with edge = p^{p/2}/(p-1)^{(p-1)/2}, and the expected
resolvent omega(w) = T_p(w^{-2})/w.

Two independent evaluation routes are kept for the density: a
hypergeometric power series (reliable away from the support endpoint)
and a branch-tracked polynomial root ("root tracking", reliable
everywhere including the endpoint).  Tests cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, gammasgn

from .errors import (
    BranchTrackingFailed,
    CutContact,
    DomainError,
    EndpointRegime,
    QuadratureFailure,
)

__all__ = [
    "FussCatalanBranch",
    "critical_point",
    "support_edge",
    "fuss_catalan_number",
    "fc_branch",
    "fc_function",
    "fc_function_boundary",
    "pp_density",
    "wigner_density",
    "wigner_density_roots",
    "expected_resolvent",
    "density_moment",
]

# Hypergeometric series declared unreliable beyond this fraction of the
# critical coupling; the root-tracked density takes over there.
SERIES_SAFETY_BOUND = 0.95

_RESIDUAL_TOL = 1e-12


def critical_point(p: int) -> float:
    """u_c = (p-1)^(p-1)/p^p, the branch point of T_p on the positive axis."""
    _check_order(p)
    return (p - 1) ** (p - 1) / p**p


def support_edge(p: int) -> float:
    """Endpoint of the spectral support, equal to 1/sqrt(u_c)."""
    _check_order(p)
    return p ** (p / 2) / (p - 1) ** ((p - 1) / 2)


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


@dataclass
class FussCatalanBranch:
    """Value of T_p at one point together with the homotopy path used.

    The path starts at u=0 (where T_p = 1) and every accepted waypoint
    satisfies |T - 1 - u*T^p| < 1e-12.
    """

    p: int
    u: complex
    value: complex
    path: list = field(default_factory=list)

    def residual(self) -> float:
        return abs(self.value - 1 - self.u * self.value**self.p)


def _newton_polish(p, u, t0, tol=_RESIDUAL_TOL, maxit=60):
    """Polish a root of u*T^p - T + 1 = 0 starting from t0.

    Returns (root, ok).  ok is False when Newton stalls or diverges.
    """
    t = complex(t0)
    for _ in range(maxit):
        g = u * t**p - t + 1.0
        if abs(g) < tol:
            return t, True
        gp = p * u * t ** (p - 1) - 1.0
        if gp == 0:
            return t, False
        step = g / gp
        if not (abs(step) < 1e6):
            return t, False
        t = t - step
    return t, abs(u * t**p - t + 1.0) < tol


def _fc_series(p, u, rtol=1e-16, nmax=5000):
    """Power series sum F_p(n) u^n with term-ratio stopping."""
    u = complex(u)
    total = 1.0 + 0j
    term = 1.0 + 0j
    fc_prev = 1
    for n in range(1, nmax):
        fc = fuss_catalan_number(p, n)
        term *= u * (fc / fc_prev)
        fc_prev = fc
        total += term
        if abs(term) < rtol * abs(total):
            return total
    raise BranchTrackingFailed(f"series for T_{p}({u}) did not converge")


def _fc_track_segment(p, u_from, u_to, t, path):
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
            path.append(u_next)
            ds = min(2 * ds, 1.0 / 8.0)
            halvings = 0
        else:
            ds /= 2
            halvings += 1
            if halvings > 60:
                raise BranchTrackingFailed(
                    f"lost the analytic branch of T_{p} near u={u_from + (u_to - u_from) * s}",
                    last_good=FussCatalanBranch(p, path[-1], t, list(path)),
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
    path = [0.0 + 0j]
    prev = 0.0 + 0j
    for waypoint in _branch_waypoints(p, u):
        t = _fc_track_segment(p, prev, waypoint, t, path)
        prev = waypoint
    return FussCatalanBranch(p, u, t, path)


def fc_branch(p: int, u: complex, method: str = "auto") -> FussCatalanBranch:
    """T_p(u) on the branch analytic at u=0, with the tracking path attached."""
    _check_order(p)
    u = complex(u)
    u_c = critical_point(p)
    if u.imag == 0 and u.real >= u_c:
        if abs(u.real - u_c) <= 4 * np.finfo(float).eps * u_c:
            # branch point itself: the two colliding roots equal p/(p-1)
            t_c = p / (p - 1)
            return FussCatalanBranch(p, u, complex(t_c), [0j, u])
        raise CutContact(
            f"u={u.real} lies on the cut [u_c, oo) of T_{p}; "
            "use fc_function_boundary to pick a side"
        )
    if method not in ("auto", "series", "root_tracking"):
        raise DomainError(f"unknown method {method!r}")
    if method == "series" or (method == "auto" and abs(u) <= 0.45 * u_c):
        val = _fc_series(p, u)
        # one Newton step keeps the residual at the 1e-12 contract even
        # when the series was truncated near its radius
        val, ok = _newton_polish(p, u, val)
        if not ok:
            raise BranchTrackingFailed(f"series polish failed for T_{p}({u})")
        return FussCatalanBranch(p, u, val, [0j, u])
    return _fc_track(p, u)


def fc_function(p: int, u: complex, method: str = "auto") -> complex:
    """The Fuss-Catalan function T_p(u), analytic branch with T_p(0) = 1."""
    return fc_branch(p, u, method=method).value


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
    branch = _fc_track(p, u0 + 1j * side * eps)
    t, ok = _newton_polish(p, complex(u0), branch.value)
    if not ok:
        raise BranchTrackingFailed(
            f"boundary polish failed for T_{p}({u0})", last_good=branch
        )
    return t


def _lambda_coefficient(k: int, p: int) -> float:
    """Coefficient of the x^{(k-p)/p} term of P_p in log-Gamma arithmetic.

    Gamma((j-k)/p) has negative arguments for j < k; magnitudes go through
    gammaln (log of |Gamma|) and the signs are handled explicitly.
    """
    u_c = critical_point(p)
    logmag = 0.0
    sign = 1.0
    for j in range(1, p):
        if j == k:
            continue
        a = (j - k) / p
        logmag += gammaln(a)
        sign *= gammasgn(a)
    for j in range(1, p):
        a = (j + 1) / (p - 1) - k / p
        logmag -= gammaln(a)
        sign /= gammasgn(a)
    pref = (p - 1) ** (-1.5) * math.sqrt(p / (2 * math.pi)) * u_c ** (k / p)
    return pref * sign * math.exp(logmag)


def _pfq_series(a_list, b_list, z, rtol=1e-16, nmax=200_000):
    """Generalized hypergeometric sum by direct term recursion."""
    term = 1.0
    total = 1.0
    for n in range(nmax):
        ratio = z / (n + 1)
        for a in a_list:
            ratio *= a + n
        for b in b_list:
            ratio /= b + n
        term *= ratio
        total += term
        if abs(term) <= rtol * abs(total):
            return total
    raise EndpointRegime(f"hypergeometric series stalled at z={z}")


def _pp_hypergeometric(p, x):
    u_c = critical_point(p)
    z = u_c * x
    total = 0.0
    for k in range(1, p):
        a_list = [1 - (1 + j) / (p - 1) + k / p for j in range(1, p)]
        b_list = [1 + (k - j) / p for j in range(1, p) if j != k]
        total += _lambda_coefficient(k, p) * x ** ((k - p) / p) * _pfq_series(a_list, b_list, z)
    return total


def _pp_root_tracked(p, x):
    # P_p(x) = Im T_p(1/x + i0) / (pi * x); the +i0 side makes it positive
    t_plus = fc_function_boundary(p, 1.0 / x, side=+1)
    val = t_plus.imag / (math.pi * x)
    return max(val, 0.0)


def pp_density(p: int, x: float, method: str = "auto") -> float:
    """The positive Fuss-Catalan density P_p on (0, 1/u_c].

    Moments of P_p against x^n are the Fuss-Catalan numbers F_p(n).
    method="hypergeometric" raises EndpointRegime for u_c*x > 0.95 where
    the series route is declared unreliable; "auto" switches to the
    root-tracked evaluation there.
    """
    _check_order(p)
    x = float(x)
    u_c = critical_point(p)
    if not 0.0 < x <= 1.0 / u_c:
        raise DomainError(f"x={x} outside the support (0, {1/u_c}]")
    if x == 1.0 / u_c:
        return 0.0
    z = u_c * x
    if method == "hypergeometric":
        if z > SERIES_SAFETY_BOUND:
            raise EndpointRegime(
                f"u_c*x = {z} > {SERIES_SAFETY_BOUND}: use root tracking near the endpoint"
            )
        return max(_pp_hypergeometric(p, x), 0.0)
    if method == "root_tracking":
        return _pp_root_tracked(p, x)
    if method == "auto":
        if z <= SERIES_SAFETY_BOUND:
            return max(_pp_hypergeometric(p, x), 0.0)
        return _pp_root_tracked(p, x)
    raise DomainError(f"unknown method {method!r}")


def wigner_density(p: int, y: float, method: str = "auto") -> float:
    """Generalized Wigner spectral density rho(y) = |y| P_p(y^2).

    Even in y, supported on the open interval (-edge, edge), normalized to
    total mass 1.  For p >= 3 the density has an integrable |y|^{(2-p)/p}
    singularity at the origin; rho(0) is reported as +inf there.
    """
    _check_order(p)
    y = float(y)
    edge = support_edge(p)
    if abs(y) >= edge:
        return 0.0
    if y == 0.0:
        return 1.0 / math.pi if p == 2 else math.inf
    return abs(y) * pp_density(p, y * y, method=method)


def wigner_density_roots(p: int, y: float) -> float:
    """Spectral density from the boundary value of the resolvent.

    Evaluates (1/pi) Im omega(y - i0+) by branch tracking T_p around its
    branch point; independent of the hypergeometric route.
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
    tolerance `tol`).  Integration is done in x = y^2 against P_p with the
    substitution x = sin(t)^2/u_c, which absorbs the square-root vanishing
    at the soft edge.
    """
    _check_order(p)
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    u_c = critical_point(p)
    xmax = 1.0 / u_c

    def integrand(t):
        st = math.sin(t)
        x = xmax * st * st
        if x <= 0.0 or x >= xmax:
            return 0.0
        # dx = 2*xmax*sin(t)*cos(t) dt
        return (x**n) * pp_density(p, x) * 2.0 * xmax * st * math.cos(t)

    res = quad(
        integrand,
        0.0,
        math.pi / 2,
        epsabs=0.1 * tol,
        epsrel=1e-13,
        limit=300,
        full_output=1,
    )
    val, err = res[0], res[1]
    if err > tol:
        raise QuadratureFailure(
            f"moment quadrature error estimate {err} above tolerance {tol}",
            error_estimate=err,
        )
    return val
