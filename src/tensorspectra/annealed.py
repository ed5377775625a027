"""Large-N annealed integrals and the spiked-tensor transition.

The annealed partition function reduces to a radial integral of
rho^{-1} exp(N f(rho)) with f(rho) = ln rho - rho^2/2 + rho^{2p}/(2 p w^2)
along a tilted ray; its saddle rho_0^2 = T_p(w^{-2}) reproduces the
expected resolvent T_p(w^{-2})/w.

With a rank-one spike of strength b the angle theta between the
integration vector and the spike direction survives the large-N limit:

    f(theta, rho) = ln sin(theta) + ln rho - rho^2/2
                    + (b/(w p)) rho^p cos^p(theta) + rho^{2p}/(2 p w^2)

The saddle equations always admit theta_0 = pi/2 (no-spike saddle).  At
real w = y > 0, with s = sin^2(theta) and T = rho^2 s = 1 + v, the second
one is the closed-form curve s^{p-1} = (1+v)^p / (y^2 v) for v in
[1/y^2, v_c], where v_c = 1/(p-1) is the branch point of T_p.  Along it s
decreases (d ln s/dv is proportional to p/(1+v) - 1/v < 0), so the first
equation's residual g = (b/y) rho^p (1-s)^{(p-2)/2} s - 1
= (b/y) T^{p/2} (1/s - 1)^{(p-2)/2} - 1 increases in v (g = -1 where
s >= 1): the extra saddle theta_1 exists iff g(v_c) >= 0, and is then the
one root of g.  The detection threshold b_t and the singular locus y_c(b)
follow from the scalar function h(x) = 1 - (p-1) x^{p-2} - b^{-2/(p-2)}/x.

All f values reported here are evaluated from the defining expression
above, never from reduced forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutContact, DomainError, QuadratureFailure, RootFindFailure
from .fuss_catalan import fc_function, gl_panels, support_edge

__all__ = [
    "SaddlePoint",
    "SaddleReport",
    "ThresholdResult",
    "annealed_logZ",
    "annealed_resolvent",
    "spike_f",
    "saddle_equation_residuals",
    "spike_saddles",
    "spike_threshold",
    "singular_locus",
    "LocusReport",
    "spike_locus",
]

QUADRATURE_N_CAP = 10_000
# Step of _d2_real's central second difference.
_D2_STEP = 1e-4


# ----------------------------------------------------------------- radial

def _check_w(p, w):
    w = complex(w)
    if w == 0:
        raise CutContact("w = 0 lies on the singular locus")
    if w.imag == 0 and abs(w.real) <= support_edge(p):
        raise CutContact(
            f"w = {w.real} lies on the real cut [-{support_edge(p)}, {support_edge(p)}]"
        )
    return w


def _check_b(b):
    if not (math.isfinite(b) and b >= 0):
        raise DomainError(f"b must be finite and >= 0, got {b}")


def _tilt_angle(w, p):
    """Ray angle (psi -/+ pi/2)/p per half plane; psi = 0 uses the + boundary."""
    psi = cmath.phase(w)
    return ((psi - math.pi / 2) if psi >= 0 else (psi + math.pi / 2)) / p


def _radial_f(p, w, rho):
    return np.log(rho) - rho**2 / 2 + rho ** (2 * p) / (2 * p * w**2)


def annealed_logZ(p: int, w: complex, N: int, mode: str = "saddle") -> complex:
    """(1/N) log of the annealed radial integral, constants dropped.

    Only w-derivatives are meaningful.  "saddle" returns f(rho_0) with
    rho_0^2 = T_p(w^{-2}); "quadrature" integrates rho^{-1} e^{N f} at the
    given finite N on a contour homologous to the tilted ray
    exp(i (psi -/+ pi/2)/p) R+ (deformed through the saddle, see below).
    """
    if p < 2:
        raise DomainError("p must be >= 2")
    w = _check_w(p, w)
    if mode == "saddle":
        rho0_sq = fc_function(p, 1 / w**2)
        return _radial_f(p, w, np.sqrt(complex(rho0_sq)))
    if mode != "quadrature":
        raise DomainError(f"unknown mode {mode!r}")
    if not 1 <= N <= QUADRATURE_N_CAP:
        raise DomainError(f"quadrature mode needs 1 <= N <= {QUADRATURE_N_CAP}")

    tilt = cmath.exp(1j * _tilt_angle(w, p))

    # Contour: straight from 0 to the saddle rho_0, then the prescribed
    # tilted direction out to the decay radius.  This is homologous to the
    # bare tilted ray (both ends agree, the swept sector decays) but keeps
    # the integrand's modulus maximal AT the saddle; on the bare ray the
    # value is reproduced only through O(e^{-c N}) phase cancellation,
    # which double precision cannot resolve for N beyond ~100.
    rho0 = np.sqrt(complex(fc_function(p, 1 / w**2)))
    f0 = _radial_f(p, w, rho0)
    sigma = 1.0 / math.sqrt(
        N * max(abs(_d2_real(lambda t: _radial_f(p, w, rho0 + t * tilt), 0.0)), 1e-8)
    )

    decay = (math.log(1e18) + 4.0) / N
    span = sigma
    while (_radial_f(p, w, rho0 + span * tilt).real - f0.real) > -decay:
        span *= 1.25
        if span > 1e3:
            raise QuadratureFailure("integrand failed to decay along the tilted leg")

    def leg1(t):
        # rho = rho0 * t, d(rho)/rho = dt/t
        return np.exp(N * (_radial_f(p, w, rho0 * t) - f0)) / t

    def leg2(s):
        rho = rho0 + tilt * s
        return np.exp(N * (_radial_f(p, w, rho) - f0)) * tilt / rho

    sig_t = min(sigma / abs(rho0), 0.45)
    # panel edges, strictly increasing (sorted sets)
    cuts1 = sorted({0.0, 0.25, 0.5} | {max(1 - c * sig_t, 0.0) for c in (16, 8, 4, 2, 1)} | {1.0})
    cuts2 = sorted({0.0} | {min(c * sigma, span) for c in (1, 2, 4, 8, 16)} | {span})
    legs = ((leg1, np.array(cuts1)), (leg2, np.array(cuts2)))

    prev = None
    total = None
    for order in (32, 64, 128):
        total = 0.0 + 0j
        for leg, edges in legs:
            for panel in gl_panels(leg, edges, order):
                total += panel
        if prev is not None and abs(total - prev) <= 1e-13 * abs(total):
            prev = total
            break
        prev = total
    else:
        if abs(total - prev) > 1e-10 * abs(total):
            raise QuadratureFailure("panel refinement did not converge")
    return f0 + np.log(total) / N


def _d2_real(f, r):
    return (f(r + _D2_STEP).real - 2 * f(r).real + f(r - _D2_STEP).real) / _D2_STEP**2


def annealed_resolvent(p: int, w: complex, N: int = 0, mode: str = "saddle") -> complex:
    """Resolvent 1/w - p d/dw [(1/N) ln <Z>]; the saddle mode is exact large N.

    In quadrature mode the derivative is a central finite difference of
    annealed_logZ, converging to the saddle value like 1/N.
    """
    w = _check_w(p, w)
    if mode == "saddle":
        return fc_function(p, 1 / w**2) / w
    h = 1e-4 * max(abs(w), 1.0)
    lp = annealed_logZ(p, w + h, N, mode="quadrature")
    lm = annealed_logZ(p, w - h, N, mode="quadrature")
    return 1 / w - p * (lp - lm) / (2 * h)


# ------------------------------------------------------------------ spiked

def spike_f(p: int, w: complex, b: float, theta: float, rho_sq: complex) -> complex:
    """f(theta, rho) evaluated from its defining expression."""
    rho = np.sqrt(complex(rho_sq))
    try:
        quartic = complex(rho_sq) ** p / (2 * p * w**2)
    except OverflowError:  # w^2 or rho^{2p} overflows where the term need not
        quartic = _power_over_w_sq(rho_sq, p, w) / (2 * p)
    return (
        cmath.log(math.sin(theta))
        + np.log(rho)
        - rho_sq / 2
        + (b / (w * p)) * rho**p * math.cos(theta) ** p
        + quartic
    )


def saddle_equation_residuals(p, w, b, theta, rho_sq):
    """Residuals of the two saddle equations at (theta, rho^2).

    r1: (b/w) rho^p cos^p(theta) - cos^2/sin^2;
    r2: 1/sin^2(theta) - rho^2 + rho^{2p}/w^2.
    """
    rho = np.sqrt(complex(rho_sq))
    s, c = math.sin(theta), math.cos(theta)
    r1 = (b / w) * rho**p * c**p - (c / s) ** 2
    try:
        r2 = 1 / s**2 - rho_sq + complex(rho_sq) ** p / w**2
    except OverflowError:  # w^2 or rho^{2p} overflows where r2 need not
        r2 = 1 / s**2 - rho_sq + _power_over_w_sq(rho_sq, p, w)
    return r1, r2


def _power_over_w_sq(rho_sq, p, w):
    """rho^{2p}/w^2 in logs, for where rho^{2p} or w^2 alone overflows."""
    return cmath.exp(p * cmath.log(rho_sq) - 2 * cmath.log(w))


@dataclass(frozen=True)
class SaddlePoint:
    theta: float
    rho_sq: complex
    f_value: complex


@dataclass(frozen=True)
class SaddleReport:
    """Saddles of the spiked radial-angular integral at one (w, b)."""

    p: int
    w: complex
    b: float
    saddles: tuple
    dominant_index: int
    theta1_error: str | None = None

    @property
    def dominant(self) -> SaddlePoint:
        return self.saddles[self.dominant_index]


def _saddle_curve(p, y, x):
    """(v, ln(1/s)) on the second saddle equation's curve at x = ln(y^2 v)."""
    try:
        v = math.exp(x) / y / y
    except OverflowError:  # e^x overflows where v need not
        v = math.exp(x - 2 * math.log(y))
    return v, (x - p * math.log1p(v)) / (p - 1)


def _theta1_objective(p, y, b, x):
    """ln(1 + g) at x = ln(y^2 v), y > 0; where s >= 1, -1e300 (a finite
    stand-in for -inf, which Brent's interpolation cannot use)."""
    v, sigma = _saddle_curve(p, y, x)
    if sigma <= 0:
        return -1e300
    return math.log(b / y) + p / 2 * math.log1p(v) + (p - 2) / 2 * math.log(math.expm1(sigma))


def spike_saddles(p: int, w: complex, b: float) -> SaddleReport:
    """Saddle points of the spiked model at coupling w and SNR b.

    Always contains the theta_0 = pi/2 saddle with rho_0^2 = T_p(w^{-2}).
    At real w it adds theta_1, the one root of the residual g, which
    increases along the closed-form curve of the second saddle equation
    (module docstring); theta_1 exists iff g(v_c) >= 0.  The dominant
    saddle maximizes Re f, with f evaluated from its defining expression.
    """
    if p < 3:
        raise DomainError("the spiked model requires p >= 3")
    _check_b(b)
    w = _check_w(p, w)

    try:
        u = 1 / w**2
    except OverflowError:  # w^2 overflows where 1/w^2 need not
        u = (1 / w) ** 2
    rho0_sq = fc_function(p, u)
    saddles = [SaddlePoint(math.pi / 2, rho0_sq, spike_f(p, w, b, math.pi / 2, rho0_sq))]
    theta1_error = None

    if b > 0:
        if w.imag != 0:
            theta1_error = "theta_1 search implemented for real w only"
        else:
            y = w.real
            try:
                s1, rho1_sq = _find_theta1(p, y, b)
            except RootFindFailure as exc:
                theta1_error = str(exc)
            else:
                theta1 = math.asin(math.sqrt(s1))
                r1, r2 = saddle_equation_residuals(p, y, b, theta1, rho1_sq)
                if max(abs(r1), abs(r2)) > 1e-8:
                    theta1_error = f"theta_1 candidate rejected (residual {max(abs(r1), abs(r2)):.2e})"
                else:
                    saddles.append(
                        SaddlePoint(theta1, rho1_sq, spike_f(p, w, b, theta1, rho1_sq))
                    )

    dominant = max(range(len(saddles)), key=lambda i: saddles[i].f_value.real)
    return SaddleReport(p, w, float(b), tuple(saddles), dominant, theta1_error)


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq's C loop, with its
    arithmetic and branch order, so it returns scipy's root bit for bit.
    Where scipy raises (a NaN value of f, no sign change over [a, b], no
    convergence in maxiter iterations), this raises RootFindFailure.
    The sign tests compare with 0 where C tests signbit: the two agree on
    the nonzero, non-NaN values they see.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise RootFindFailure(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise RootFindFailure(f"f({a!r}) and f({b!r}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides by 0 to inf or NaN, which the test below rejects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RootFindFailure(f"Brent's method did not converge in {maxiter} iterations")


def _find_theta1(p, y, b):
    """(s, rho^2) at the root of g, sought as the root of ln(1 + g) in
    x = ln(y^2 v) over [0, ln(y^2 v_c)]: v and g span hundreds of decades.
    x is resolved to 1e-16, below which s stops changing.

    v_c itself is accepted when g vanishes there, which happens exactly at
    the detection threshold.  There is no root at y < 0, where g < 0.
    """
    x_c = 2 * math.log(abs(y)) - math.log(p - 1)
    ln_g1 = _theta1_objective(p, y, b, x_c) if y > 0 else -math.inf
    if ln_g1 < -1e-10:
        raise RootFindFailure(
            f"no theta_1 bracket for p={p}, w={y}, b={b} (no real extra saddle)"
        )
    x = x_c
    if ln_g1 > 1e-10:
        x = _brentq(lambda t: _theta1_objective(p, y, b, t), 0.0, x_c, xtol=1e-16, rtol=1e-15)
    v, sigma = _saddle_curve(p, y, x)
    s = math.exp(-sigma)
    if s >= 1:
        raise RootFindFailure(f"theta_1 for p={p}, w={y}, b={b} rounds to pi/2")
    return s, complex((1 + v) / s)


# --------------------------------------------------------------- threshold

def h_function(p: int, b: float, v: float) -> float:
    """h(v) = 1 - (p-1) v^{p-2} - b^{-2/(p-2)} / v; its roots locate theta_1."""
    return 1 - (p - 1) * v ** (p - 2) - b ** (-2 / (p - 2)) / v


def _h_peak(p, b):
    """Location v_m of the maximum of h and the value h(v_m)."""
    v_m = ((p - 1) * (p - 2)) ** (-1 / (p - 1)) * b ** (-2 / ((p - 1) * (p - 2)))
    return v_m, h_function(p, b, v_m)


@dataclass(frozen=True)
class ThresholdResult:
    """Detection threshold data: b_t and the singular points on both sides."""

    p: int
    b_t: float
    y_c_below: float
    h_root: float

    @property
    def y_c_at(self) -> float:
        """The locus p^{p/2} at b_t; computed on access, since it overflows
        a float from p = 256 on while every value below b_t stays finite."""
        return self.p ** (self.p / 2)


def spike_threshold(p: int) -> ThresholdResult:
    """Detection threshold b_t^2 = (p-1)^p / (p-2)^{p-2}, in closed form.

    b_t is the smallest b at which max_v h(v) reaches zero, i.e. h develops
    real roots; there the double root v_m = h_root satisfies
    h(v_m) = h'(v_m) = 0.
    """
    if p < 3:
        raise DomainError("the detection threshold requires p >= 3")
    b_t = math.sqrt((p - 1) ** p / (p - 2) ** (p - 2))
    return ThresholdResult(
        p=p,
        b_t=b_t,
        y_c_below=support_edge(p),
        h_root=_h_peak(p, b_t)[0],
    )


def _y_c_from_root(p, v):
    # invert v = y^{-2/((p-1)(p-2))} (p-1)^{-2/(p-2)} p^{p/((p-1)(p-2))}
    D = (p - 1) * (p - 2)
    try:
        return v ** (-D / 2) * (p - 1) ** (-(p - 1)) * p ** (p / 2)
    except OverflowError:
        # v^{-D/2} alone overflows where y_c need not: take the (p-1)th root first
        y = (v ** (-(p - 2) / 2) / (p - 1)) ** (p - 1) * p ** (p / 2)
        if math.isinf(y):
            raise
        return y


def singular_locus(p: int, b: float) -> float:
    """Largest non-removable singularity y_c of the spiked resolvent.

    Below the threshold the locus is the no-spike edge
    p^{p/2}/(p-1)^{(p-1)/2}; at and above b_t the smaller positive root of
    h maps to y_c, which jumps to p^{p/2} at b_t and grows with b.  The
    theta_1 saddle that is real up to y_c is subdominant by Re f there
    (criterion 8's finite-N quadrature shows the integral follows theta_0);
    the root is selected by continuity from b_t, not by dominance.
    """
    if p < 3:
        raise DomainError("the spiked model requires p >= 3")
    _check_b(b)
    threshold = spike_threshold(p)
    if b < threshold.b_t * (1 - 1e-12):
        return threshold.y_c_below
    if abs(b - threshold.b_t) <= 1e-12 * threshold.b_t:
        return threshold.y_c_at

    v_m, h_at = _h_peak(p, b)
    if h_at < 0:
        raise RootFindFailure("h has no real roots above threshold?")
    lo = v_m
    while h_function(p, b, lo) > 0:
        lo /= 2
        if lo < 1e-300:
            raise RootFindFailure("failed to bracket the lower root of h")
    v_minus = _brentq(lambda v: h_function(p, b, v), lo, v_m, xtol=1e-300, rtol=1e-15)
    return _y_c_from_root(p, v_minus)


@dataclass(frozen=True)
class LocusReport:
    """y_c, the extra saddle's (theta, rho^2) at y_c, and the saddles at
    y_c (1 -/+ 1e-3): inside the locus at and above b_t, where theta_1 is
    real; outside below b_t, where the locus is the cut endpoint itself."""

    y_c: float
    theta_c: float
    rho_c_sq: float
    probe: SaddleReport


def spike_locus(p: int, b: float) -> LocusReport:
    """The singular locus at SNR b with the saddles beside it."""
    y_c = singular_locus(p, b)
    s_c = min(y_c ** (-2 / (p - 1)) * p ** (p / (p - 1)) / (p - 1), 1.0)
    rho_c_sq = y_c ** (2 / (p - 1)) * p ** (-1 / (p - 1))
    if b >= spike_threshold(p).b_t:
        probe = y_c * (1 - 1e-3)
    else:
        probe = y_c * (1 + 1e-3)
    return LocusReport(y_c, math.asin(math.sqrt(s_c)), rho_c_sq, spike_saddles(p, probe, b))
