"""Zero-dimensional phi^p toy model: sector sums and their discontinuities.

The partition function Z(g) of the weight exp(-phi^2/2 + g^{(p-2)/2} phi^p / p)
has a divergent perturbative series; in each angular sector
S_q = { arg g in (q w, (q+1) w) }, w = 2 pi/(p-2), the tilted-line integral

    Z_q(g) = integral over e^{i theta_q} R,  theta_q = (p-2)/(2p) (alpha_q - alpha)

is its Borel sum (alpha_q is the sector bisectrix).  Neighbouring sector
sums can differ: the jump at a cut-carrying boundary is controlled by the
real instantons and approaches i*eta/sqrt(p-2) * exp(-(p-2)/(2p|g|)) as
|g| -> 0 (eta = 1 for p odd, 2 for p even).  Below ~1e-9 it is integrated
over the real instanton's steepest-descent contour (Lefschetz thimble).

Angles are passed as explicit real numbers (not reduced mod 2 pi): the two
sides of a cut differ exactly by that 2 pi bookkeeping.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BranchTrackingFailed, DomainError, OutsideWedge, ParityError, QuadratureFailure
from .fuss_catalan import gl_panels

__all__ = [
    "SectorSpec",
    "perturbative_coeff",
    "sector_Z",
    "discontinuity",
    "instanton_discontinuity",
    "instanton_points",
    "taylor_rest_check",
    "rescaled_Z",
]

# Relative change between panel doublings that ends _line_quadrature.
_LINE_RTOL = 1e-12


@dataclass(frozen=True)
class SectorSpec:
    """Angular sector S_q of the coupling plane with its bisectrix, and the
    number eta of real instantons trapped at its lower boundary arg g = q w."""

    p: int
    q: int
    omega: float = field(init=False)
    alpha_q: float = field(init=False)
    eta: int = field(init=False)

    def __post_init__(self):
        if self.p < 3:
            raise DomainError("sectors exist for p >= 3")
        if not 0 <= self.q <= self.p - 3:
            raise DomainError(f"sector index must lie in [0, {self.p - 3}]")
        omega = 2 * math.pi / (self.p - 2)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alpha_q", (self.q + 0.5) * omega)
        # phi_r of instanton_points is real iff 2r - q = 0 mod p - 2
        eta = sum((2 * r - self.q) % (self.p - 2) == 0 for r in range(self.p - 2))
        object.__setattr__(self, "eta", eta)

    def wedge(self):
        """Convergence range of alpha: the sector extended by +-pi/2."""
        return (self.q * self.omega - math.pi / 2, (self.q + 1) * self.omega + math.pi / 2)


def perturbative_coeff(p: int, n: int) -> Fraction:
    """Exact coefficient (np)! / (n! (np/2)! (2^{p/2} p)^n) of g^{n(p-2)/2}.

    np even is required (odd Gaussian moments vanish); 2^{np/2} is then an
    integer, so the value is an exact rational.
    """
    if p < 3 or n < 0:
        raise DomainError("need p >= 3 and n >= 0")
    if (n * p) % 2:
        raise ParityError(f"n*p = {n * p} is odd; the coefficient vanishes")
    half = n * p // 2
    return Fraction(
        math.factorial(n * p),
        math.factorial(n) * math.factorial(half) * 2**half * p**n,
    )


def _resolve_alpha(p, g, q, alpha):
    """Pick the angle determination inside sector q's convergence wedge."""
    spec = SectorSpec(p, q)
    lo, hi = spec.wedge()
    if alpha is None:
        base = cmath.phase(complex(g)) % (2 * math.pi)
        candidates = [base + 2 * math.pi * k for k in (-1, 0, 1)]
        inside_sector = [
            a for a in candidates if q * spec.omega <= a <= (q + 1) * spec.omega
        ]
        if inside_sector:
            return spec, inside_sector[0]
        inside_wedge = [a for a in candidates if lo < a < hi]
        if not inside_wedge:
            raise OutsideWedge(
                f"arg(g) = {base} has no determination in the wedge ({lo}, {hi})"
            )
        return spec, inside_wedge[0]
    alpha = float(alpha)
    if not lo <= alpha <= hi:
        raise OutsideWedge(f"alpha = {alpha} outside the wedge [{lo}, {hi}] of sector {q}")
    return spec, alpha


@lru_cache(maxsize=16)
def _node_powers(p, shape, data):
    """(x^2, x^p) at the float64 nodes whose bytes are data, read-only.

    R depends on cos 2 theta alone, so every |g| of a sweep and both sector
    sums of a discontinuity integrate over the same nodes at each level.
    The cache is bounded because sector_Z takes any alpha and tilt_offset.
    """
    x = np.frombuffer(data).reshape(shape)
    powers = x**2, x**p
    for a in powers:
        a.flags.writeable = False
    return powers


def _line_quadrature(coef2, coefp, p):
    """(2 pi)^{-1/2} integral over R of exp(-coef2 x^2/2 + coefp x^p) dx."""
    cosfac = coef2.real
    if cosfac <= 0:
        raise OutsideWedge("Gaussian factor does not decay on this contour")
    R = math.sqrt(2 * math.log(1e18) / cosfac)

    def integrand(x):
        x2, xp = _node_powers(p, x.shape, x.tobytes())
        return np.exp(-coef2 * x2 / 2 + coefp * xp)

    prev = None
    npanels = 8
    for _ in range(10):
        edges = np.linspace(-R, R, npanels + 1)
        # summed over the numpy array, so total stays np.complex128: the final
        # division by sqrt(2 pi) rounds differently on a Python complex
        total = sum(gl_panels(integrand, edges, 32))
        if prev is not None and abs(total - prev) <= _LINE_RTOL * max(abs(total), 1e-8):
            return total / math.sqrt(2 * math.pi)
        prev = total
        npanels *= 2
    raise QuadratureFailure("tilted-line quadrature did not converge")


def sector_Z(
    p: int,
    g,
    q: int,
    *,
    alpha: float | None = None,
    tilt_offset: float = 0.0,
) -> complex:
    """Sector partition function Z_q at coupling g.

    g may be complex (angle resolved into sector q's wedge) or a
    magnitude with the angle passed explicitly via `alpha` (kept as a real
    number, so the two sides of a cut are distinguishable).  `tilt_offset`
    turns the integration line away from its default angle; within the
    wedge the value does not depend on it.
    """
    g_abs = abs(g) if alpha is None else float(abs(g))
    if g_abs == 0:
        return 1.0 + 0j
    spec, alpha = _resolve_alpha(p, g, q, alpha)
    theta = (p - 2) / (2 * p) * (spec.alpha_q - alpha) + tilt_offset
    coef2 = cmath.exp(2j * theta)
    coefp = g_abs ** ((p - 2) / 2) * cmath.exp(1j * (p - 2) / 2 * alpha + 1j * p * theta) / p
    # e^{i theta}: Jacobian of the rotation phi = e^{i theta} x
    return cmath.exp(1j * theta) * _line_quadrature(coef2, coefp, p)


def discontinuity(p: int, g_abs: float, q: int) -> complex:
    """Jump Z_q(|g| e^{i(q w)+}) - Z_{q-1}(|g| e^{i(q w)-}) at a sector boundary.

    Z_{-1} means Z_{p-3} approached at angle 2 pi.  The jump is exactly 0
    unless real instantons are trapped (spec.eta of them); its small |g|
    limit is instanton_discontinuity.  Where e^{-S_*} >= 1e-9 the two sector
    sums are subtracted; below, where that would leave rounding noise, the
    jump is integrated over the thimbles of the trapped instantons.
    """
    if g_abs <= 0:
        raise DomainError("g_abs must be positive")
    spec = SectorSpec(p, q)
    if spec.eta == 0:
        return 0j
    if math.exp(-(p - 2) / (2 * p * g_abs)) < 1e-9:
        return _thimble_jump(p, g_abs, spec.eta)
    # the lower side: Z_{q-1} at the same angle, or Z_{p-3} one turn on
    q_lower, k_lower = (q - 1, q) if q >= 1 else (p - 3, p - 2)
    upper = sector_Z(p, g_abs, q, alpha=q * spec.omega)
    return upper - sector_Z(p, g_abs, q_lower, alpha=k_lower * spec.omega)


def _thimble_jump(p, g_abs, eta):
    """Jump through eta trapped real instantons phi_*, on their thimbles.

    With phi = phi_*(1+u), S - S_* = -u^2 R(u)/|g|, R(u) = (p-2)/2 +
    sum_{k=3..p} C(p,k)/p u^{k-2}.  On the thimble H(u) = u sqrt(R(u)) =
    i s sqrt|g| (s real), e^{-S} = e^{-S_*} e^{-s^2} and u(-s) = conj u(s),
    so the jump is i eta e^{-S_*} sqrt(2/pi) int_0^inf e^{-s^2} Re(1/H') ds,
    whose integrand never exceeds its value at s = 0: nothing cancels.
    """
    rc = [math.comb(p, k) / p for k in range(p, 2, -1)] + [(p - 2) / 2]

    def integrand(s):
        # nodes come in increasing s: Newton starts from the previous node's
        # u, and sqrt(R) stays on the branch continuous with it
        out, u, root = np.empty(s.size), 0j, math.sqrt((p - 2) / 2)
        for i, target in enumerate(1j * math.sqrt(g_abs) * s.ravel()):
            for _ in range(30):
                R = dR = 0j
                for c in rc:  # Horner for R and R'
                    R, dR = R * u + c, dR * u + R
                r = cmath.sqrt(R)
                root = r if abs(r - root) <= abs(r + root) else -r
                dH = root + u * dR / (2 * root)
                step = (u * root - target) / dH
                if abs(step) <= 1e-15 * abs(u):
                    break
                u -= step
            else:
                raise BranchTrackingFailed(f"thimble continuation lost u at node {i}")
            out[i] = (1 / dH).real
        return np.exp(-s * s) * out.reshape(s.shape)

    total = sum(gl_panels(integrand, np.linspace(0.0, 6.5, 9), 32))  # e^{-6.5^2} = 4e-19
    jump = eta * math.exp(-(p - 2) / (2 * p * g_abs)) * math.sqrt(2 / math.pi) * total
    # a Python complex: a 0/0 ratio then raises ZeroDivisionError, not numpy's nan
    return complex(0.0, jump)


def instanton_discontinuity(p: int, g_abs: float) -> complex:
    """Small-coupling limit of the cut jump: i eta/sqrt(p-2) e^{-(p-2)/(2p|g|)}."""
    if p < 3 or g_abs <= 0:
        raise DomainError("need p >= 3 and g_abs > 0")
    eta = 1 if p % 2 else 2
    return 1j * eta / math.sqrt(p - 2) * math.exp(-(p - 2) / (2 * p * g_abs))


def instanton_points(p: int, g_abs: float, q: int = 0):
    """Instantons phi_r = |g|^{-1/2} e^{i w (r - q/2)} with their actions.

    The action of phi_r is (p-2)/(2p|g|) e^{2 i w (r - q/2)}; phi_r is a
    stationary point of phi^2/2 - g^{(p-2)/2} phi^p/p at arg(g) = q w.
    """
    spec = SectorSpec(p, q)
    out = []
    for r in range(p - 2):
        phase = cmath.exp(1j * spec.omega * (r - q / 2))
        phi = g_abs**-0.5 * phase
        action = (p - 2) / (2 * p * g_abs) * phase**2
        out.append((phi, action))
    return out


def taylor_rest_check(
    p: int, g, q: int, n: int, *, alpha: float | None = None
) -> dict:
    """Taylor rest |Z_q - partial series| against the factorial bound.

    Returns {"lhs": ..., "bound": ...} where the bound is
    (1/n!) (|g|^{n(p-2)/2}/p^n) (np)!/(2^{np/2} Gamma(np/2+1))
    / cos((p-2)(alpha_q-alpha)/p)^{np+1/2}.
    """
    if n < 0 or n > 12:
        raise DomainError("n must be in [0, 12]")
    spec, alpha = _resolve_alpha(p, g, q, alpha)
    g_abs = abs(g)
    z = sector_Z(p, g_abs, q, alpha=alpha)
    partial = 0j
    for k in range(n):
        if (k * p) % 2:
            continue
        a_k = float(perturbative_coeff(p, k))
        partial += a_k * g_abs ** (k * (p - 2) / 2) * cmath.exp(1j * alpha * k * (p - 2) / 2)
    lhs = abs(z - partial)
    ang = (p - 2) / p * (spec.alpha_q - alpha)
    cosfac = math.cos(ang)
    if cosfac <= 0:
        raise OutsideWedge("cosine factor nonpositive: outside the extended sector")
    log_moment = math.lgamma(n * p + 1) - (n * p / 2) * math.log(2) - math.lgamma(n * p / 2 + 1)
    bound = (
        math.exp(log_moment - math.lgamma(n + 1))
        * g_abs ** (n * (p - 2) / 2)
        / p**n
        / cosfac ** (n * p + 0.5)
    )
    return {"lhs": lhs, "bound": bound}


def rescaled_Z(p: int, w, halfplane: str = "+") -> complex:
    """Partition function in the rescaled coupling w, on the +/- boundary sum.

    Integrates exp(-phi^2/2 + phi^p/(p w)) along e^{i theta} R with
    theta = (psi -/+ pi/2)/p, psi = arg w; defined for |psi -/+ pi/2| < p pi/4.
    Equals sector_Z at g = w^{-2/(p-2)} under the matching determination.
    """
    if p < 3:
        raise DomainError("rescaled coupling requires p >= 3")
    if halfplane not in ("+", "-"):
        raise DomainError("halfplane must be '+' or '-'")
    w = complex(w)
    if w == 0:
        raise DomainError("w must be nonzero")
    psi = cmath.phase(w)
    if w.imag == 0 and w.real < 0 and halfplane == "-":
        psi = -math.pi  # lower-half-plane boundary of the negative axis
    theta = (psi - math.pi / 2) / p if halfplane == "+" else (psi + math.pi / 2) / p
    if abs(psi - (math.pi / 2 if halfplane == "+" else -math.pi / 2)) >= p * math.pi / 4:
        raise OutsideWedge(f"psi = {psi} outside the {halfplane} analyticity wedge")
    coef2 = cmath.exp(2j * theta)
    coefp = cmath.exp(1j * p * theta) / (p * w)
    return cmath.exp(1j * theta) * _line_quadrature(coef2, coefp, p)
