import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from tensorspectra import borel, cli
from tensorspectra.borel import (
    SectorSpec,
    _line_quadrature,
    _thimble_jump,
    discontinuity,
    instanton_discontinuity,
    instanton_points,
    perturbative_coeff,
    rescaled_Z,
    sector_Z,
    taylor_rest_check,
)
from tensorspectra.errors import DomainError, OutsideWedge, ParityError, QuadratureFailure
from tensorspectra.fuss_catalan import gl_panels


# ------------------------------------------------------------- coefficients

def test_perturbative_coeff_frozen():
    assert perturbative_coeff(4, 1) == Fraction(3, 4)
    assert perturbative_coeff(3, 2) == Fraction(5, 6)
    assert perturbative_coeff(5, 0) == 1
    assert perturbative_coeff(7, 0) == 1


def test_perturbative_coeff_matches_gaussian_moment_formula():
    # independent route: a_n = E[phi^{np}] / (n! p^n 2^{...}) via double factorial
    for p, n in [(4, 2), (4, 3), (3, 4), (6, 2)]:
        m = n * p
        double_fact = 1
        for k in range(m - 1, 0, -2):
            double_fact *= k
        expected = Fraction(double_fact, math.factorial(n) * p**n)
        assert perturbative_coeff(p, n) == expected


def test_perturbative_coeff_parity():
    with pytest.raises(ParityError):
        perturbative_coeff(3, 1)
    with pytest.raises(ParityError):
        perturbative_coeff(5, 3)


# ------------------------------------------------------------------ sectors

def test_sector_spec_invariants():
    s = SectorSpec(5, 1)
    assert s.omega == pytest.approx(2 * math.pi / 3)
    assert s.alpha_q == pytest.approx(1.5 * s.omega)
    assert s.omega * 1 < s.alpha_q < s.omega * 2
    assert SectorSpec(3, 0).eta == 1
    assert SectorSpec(4, 0).eta == 2
    # trapped real instantons at each boundary q: 1 at odd p, 2 or 0 at even p
    assert [SectorSpec(5, q).eta for q in range(3)] == [1, 1, 1]
    assert [SectorSpec(4, q).eta for q in range(2)] == [2, 0]
    assert [SectorSpec(8, q).eta for q in range(6)] == [2, 0, 2, 0, 2, 0]
    with pytest.raises(DomainError):
        SectorSpec(4, 2)


def test_sector_Z_normalization_and_small_g():
    assert sector_Z(3, 0.0, 0) == 1.0
    val = sector_Z(3, 1e-9, 0, alpha=0.7)
    assert abs(val - 1) < 1e-6


def test_sector_Z_outside_wedge():
    with pytest.raises(OutsideWedge):
        sector_Z(4, 0.1, 0, alpha=5.0)  # wedge of q=0 is (-pi/2, 3pi/2)


def test_sector_Z_agrees_with_optimal_truncation():
    # at the bisectrix the factorial rest bound equals the first omitted
    # term; off it a cos^{-(np+1/2)} amplification applies, so allow 2x
    g = 0.01
    spec = SectorSpec(4, 0)
    terms = [
        float(perturbative_coeff(4, k)) * g**k * cmath.exp(1j * spec.alpha_q * k)
        for k in range(12)
    ]
    k_opt = int(np.argmin([abs(t) for t in terms[1:]])) + 1
    partial = sum(terms[:k_opt])
    z = sector_Z(4, g, 0, alpha=spec.alpha_q)
    assert abs(z - partial) <= abs(terms[k_opt]) * 2.0


def test_sector_Z_high_precision_matches_doubles():
    a = sector_Z(3, 0.05, 0, alpha=math.pi)
    b = complex(_sector_Z_60_digits(3, 0.05, 0, mpmath.mpf(math.pi)))
    assert abs(a - b) < 1e-12


def test_sector_Z_contour_robustness():
    base = sector_Z(3, 0.05, 0, alpha=math.pi)
    tilted_up = sector_Z(3, 0.05, 0, alpha=math.pi, tilt_offset=0.01)
    tilted_dn = sector_Z(3, 0.05, 0, alpha=math.pi, tilt_offset=-0.01)
    assert abs(base - tilted_up) < 1e-10
    assert abs(base - tilted_dn) < 1e-10


def test_sector_Z_cauchy_riemann_probe():
    r0, a0, h = 0.05, 1.2, 1e-5
    dr = (sector_Z(4, r0 + h, 0, alpha=a0) - sector_Z(4, r0 - h, 0, alpha=a0)) / (2 * h)
    da = (sector_Z(4, r0, 0, alpha=a0 + h) - sector_Z(4, r0, 0, alpha=a0 - h)) / (2 * h)
    dbar = cmath.exp(1j * a0) * (dr + 1j / r0 * da) / 2
    assert abs(dbar) < 1e-6


def test_sector_Z_periodicity():
    # Z(e^{i eta omega} g) = Z(g): shifting sector and angle together
    w5 = 2 * math.pi / 3
    assert abs(
        sector_Z(5, 0.1, 0, alpha=0.4) - sector_Z(5, 0.1, 1, alpha=0.4 + w5)
    ) < 1e-10
    w6 = math.pi / 2
    assert abs(
        sector_Z(6, 0.1, 0, alpha=0.3) - sector_Z(6, 0.1, 2, alpha=0.3 + 2 * w6)
    ) < 1e-10


def test_line_quadrature_is_bitwise_the_panel_loop(checked_gl_panels):
    # 200 seeded sector lines: every refinement level's panels equal the
    # one-panel-at-a-time loop, and so does the returned sum
    levels = checked_gl_panels(borel)
    rng = np.random.default_rng(2020)
    for _ in range(200):
        p = int(rng.integers(3, 7))
        spec = SectorSpec(p, int(rng.integers(0, p - 2)))
        alpha = spec.omega * (spec.q + rng.uniform(0.0, 1.0))
        g = rng.uniform(0.02, 0.5)
        theta = (p - 2) / (2 * p) * (spec.alpha_q - alpha)
        coef2 = cmath.exp(2j * theta)
        coefp = g ** ((p - 2) / 2) * cmath.exp(1j * (p - 2) / 2 * alpha + 1j * p * theta) / p
        got = _line_quadrature(coef2, coefp, p)
        # the old loop summed np.complex128 panels, then divided
        ref = sum(levels[-1]) / math.sqrt(2 * math.pi)
        assert got == ref and type(got) is type(ref)


def reference_line_quadrature(coef2, coefp, p):
    """_line_quadrature with x^2 and x^p evaluated afresh at every level of
    every call: the body the shared node powers replaced, kept as its
    bitwise reference."""
    cosfac = coef2.real
    if cosfac <= 0:
        raise OutsideWedge("Gaussian factor does not decay on this contour")
    R = math.sqrt(2 * math.log(1e18) / cosfac)

    def integrand(x):
        return np.exp(-coef2 * x**2 / 2 + coefp * x**p)

    prev = None
    npanels = 8
    for _ in range(10):
        edges = np.linspace(-R, R, npanels + 1)
        total = sum(gl_panels(integrand, edges, 32))
        if prev is not None and abs(total - prev) <= 1e-12 * max(abs(total), 1e-8):
            return total / math.sqrt(2 * math.pi)
        prev = total
        npanels *= 2
    raise QuadratureFailure("tilted-line quadrature did not converge")


def _bits(value):
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return (type(value), float(value.real).hex(), float(value.imag).hex())


def test_public_values_are_bitwise_the_uncached_quadrature(monkeypatch):
    # a seeded grid over p = 3..6, sectors, angles, couplings and tilts, on
    # a cold cache, then warm, then with the reference quadrature
    rng = np.random.default_rng(1717)
    cases = []
    for _ in range(24):
        p = int(rng.integers(3, 7))
        spec = SectorSpec(p, int(rng.integers(0, p - 2)))
        alpha = spec.omega * (spec.q + rng.uniform(0.1, 0.9))
        g = rng.uniform(0.02, 0.1)
        tilt = float(rng.choice([0.0, 0.01, -0.02, 0.03, -0.05]))
        w = rng.uniform(2.0, 5.0) * cmath.exp(1j * (math.pi / 2 + rng.uniform(-0.3, 0.3)))
        cases.append(lambda p=p, q=spec.q, g=g, a=alpha, t=tilt: sector_Z(p, g, q, alpha=a, tilt_offset=t))
        cases.append(lambda p=p, q=spec.q, g=g, a=alpha: sector_Z(p, g * cmath.exp(1j * a), q))
        cases.append(lambda p=p, q=spec.q, g=g, a=alpha: taylor_rest_check(p, g, q, 5, alpha=a))
        cases.append(lambda p=p, w=w: rescaled_Z(p, w, "+"))
        cases.append(lambda p=p, w=w: rescaled_Z(p, w.conjugate(), "-"))
    for p, q in TRAPPED:
        for g in (0.03, 0.07, 0.1):
            cases.append(lambda p=p, q=q, g=g: discontinuity(p, g, q))

    def values():
        return [_bits(case()) for case in cases]

    borel._node_powers.cache_clear()
    cold, warm = values(), values()
    monkeypatch.setattr(borel, "_line_quadrature", reference_line_quadrature)
    ref = values()
    assert cold == warm == ref


def test_borel_sweep_computes_node_powers_once_per_level(capsys):
    # all nine |g| and both sector sums share R: levels of 8 and 16 panels,
    # where every sector sum took its own (36 evaluations)
    borel._node_powers.cache_clear()
    assert cli.main(["borel", "--p", "3", "--g-sweep", "0.02:0.1:0.01"]) == 0
    info = borel._node_powers.cache_info()
    assert (info.misses, info.hits) == (2, 34)


def test_node_power_cache_stays_bounded():
    # every tilt moves R, so each call brings new nodes
    borel._node_powers.cache_clear()
    for k in range(1000):
        sector_Z(3, 0.05, 0, alpha=math.pi, tilt_offset=1e-4 * k)
    info = borel._node_powers.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert info.misses >= 1000


# ------------------------------------------------------------ discontinuity

def test_discontinuity_p3_matches_instanton_at_g01():
    d = discontinuity(3, 0.1, 0)
    ref = instanton_discontinuity(3, 0.1)
    assert ref == pytest.approx(1j * math.exp(-5 / 3), abs=1e-12)
    assert abs(d - ref) < 0.15 * abs(ref)
    assert abs(d.real) < 1e-12  # purely imaginary jump


def test_discontinuity_p4_negative_axis_vanishes():
    # no real instanton is trapped there: the jump is 0 on both routes
    for p, q in [(4, 1), (6, 1), (6, 3), (8, 5)]:
        for g_abs in (0.1, 0.05, 0.002):
            assert discontinuity(p, g_abs, q) == 0, (p, q, g_abs)


def test_discontinuity_p4_positive_axis_ratio_to_one():
    ratios = [
        abs(discontinuity(4, g, 0) / instanton_discontinuity(4, g))
        for g in (0.1, 0.05, 0.02)
    ]
    assert abs(ratios[-1] - 1) < 0.02
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)


def test_instanton_discontinuity_frozen():
    assert instanton_discontinuity(3, 0.1) == pytest.approx(0.18887560283756186j, abs=1e-12)
    val = instanton_discontinuity(4, 0.1)
    assert val == pytest.approx(2j / math.sqrt(2) * math.exp(-2.5), abs=1e-12)
    assert abs(val) == pytest.approx(0.11608571832, abs=1e-9)
    big = instanton_discontinuity(5, 1e9)
    assert abs(big) == pytest.approx(2 / math.sqrt(3) / 2, rel=1e-6)  # eta/sqrt(p-2)


def test_instanton_points_are_stationary():
    for p, q in [(3, 0), (4, 0), (5, 1)]:
        pts = instanton_points(p, 0.1, q)
        assert len(pts) == p - 2
        g = 0.1 * cmath.exp(1j * q * 2 * math.pi / (p - 2))
        for phi, action in pts:
            # equation of motion phi = g^{(p-2)/2} phi^{p-1}
            eom = phi - g ** ((p - 2) / 2) * phi ** (p - 1)
            assert abs(eom) < 1e-9 * abs(phi)
            assert action == pytest.approx(
                (phi**2 / 2 - g ** ((p - 2) / 2) * phi**p / p), abs=1e-10
            )


def test_discontinuity_slope_matches_instanton_action():
    gs = np.linspace(0.02, 0.1, 9)
    discs = [abs(discontinuity(3, g, 0)) for g in gs]
    slope = np.polyfit(1 / gs, np.log(discs), 1)[0]
    assert abs(slope - (-1 / 6)) < 0.02 * (1 / 6)


def _sector_Z_60_digits(p, g_abs, r, alpha):
    """Z_r at |g| = g_abs and arg g = alpha (an mpmath number), from the
    definition at 60 digits: phi = e^{i theta} x on sector r's line,
    g^{(p-2)/2} on alpha's sheet."""
    with mpmath.workdps(60):
        w = 2 * mpmath.pi / (p - 2)
        theta = (p - 2) * ((r + mpmath.mpf(1) / 2) * w - alpha) / (2 * p)
        rot = mpmath.expj(theta)
        # -(rot x)^2/2 + g^{(p-2)/2} (rot x)^p/p, with the powers of rot taken out
        c2 = -(rot**2) / 2
        cp = mpmath.mpf(g_abs) ** (mpmath.mpf(p - 2) / 2) * mpmath.expj((p - 2) * alpha / 2)
        cp *= rot**p / p
        R = 20 / mpmath.sqrt(mpmath.cos(2 * theta))  # e^{-200} left beyond +-R
        f = lambda x: mpmath.exp(c2 * x**2 + cp * x**p)
        return rot * mpmath.quad(f, [-R, 0, R]) / mpmath.sqrt(2 * mpmath.pi)


def _jump_60_digits(p, g_abs, q):
    """Z_q - Z_{q-1} at arg g = q w, both sector sums and their difference
    at 60 digits.

    Valid where the jump is far above the ~1e-61 floor of that subtraction
    and mpmath.quad resolves the oscillating phi^p phase: within 5.5e-14 of
    the thimble route at p = 3..6, g = 0.003..0.008, and within 4e-15 of the
    double route at p = 3, 4, g = 0.1.  Not valid at larger p g, where quad
    misses the phase: off by 1.6e-9 at (p, g) = (5, 0.1), 2.6e-11 at (6, 0.05)
    and 1.5e-7 at (6, 0.1), where both double routes agree to 5e-13.  Not
    valid near the floor: off by 1e-9..1e-7 at (4, 0.002), where the jump is
    7e-55, and noise at p >= 5, g = 0.002, where it is ~1e-62..1e-66.
    """
    with mpmath.workdps(60):
        w = 2 * mpmath.pi / (p - 2)
        lower = (
            _sector_Z_60_digits(p, g_abs, q - 1, q * w)
            if q
            else _sector_Z_60_digits(p, g_abs, p - 3, (p - 2) * w)
        )
        return complex(_sector_Z_60_digits(p, g_abs, q, q * w) - lower)


TRAPPED = [(3, 0), (4, 0), (5, 0), (5, 1), (5, 2), (6, 0), (6, 2)]


def test_discontinuity_tiny_g_uses_high_precision():
    # |disc| is 6e-49..9e-10 here: a difference of doubles would be noise,
    # and the thimble route keeps a double's relative accuracy
    assert [(p, q) for p in range(3, 7) for q in range(p - 2) if SectorSpec(p, q).eta] == TRAPPED
    for p, q in TRAPPED:
        for g_abs in (0.003, 0.005, 0.008):
            ref = _jump_60_digits(p, g_abs, q)
            assert abs(discontinuity(p, g_abs, q) - ref) <= 1e-12 * abs(ref), (p, q, g_abs)
    # and, free of the tilt and sheet conventions both routes above share,
    # the small-g limit
    d = discontinuity(3, 0.003, 0)
    assert abs(d / instanton_discontinuity(3, 0.003) - 1) < 0.01


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_thimble_jump_one_loop_oracle(p):
    # |disc/instanton| = 1 - a1 g + O(g^2), from inverting u sqrt(R(u)) = i eps
    # to third order; Richardson's 2 s(g/2) - s(g) removes the O(g) term of
    # s(g) = (1 - ratio)/g.  No 60-digit subtraction reaches g = 5e-4.
    a1 = (p + 2) * (p - 1) / (12 * (p - 2))

    def s(g):
        return (1 - abs(discontinuity(p, g, 0) / instanton_discontinuity(p, g))) / g

    assert abs(2 * s(5e-4) - s(1e-3) - a1) < 1e-4


def test_thimble_jump_matches_double_route():
    # where e^{-S_*} >= 1e-9 the double route is accurate: the two agree to
    # its own rounding
    for p in (3, 4):
        spec = SectorSpec(p, 0)
        for g_abs in np.linspace(0.02, 0.1, 9):
            double = sector_Z(p, g_abs, 0, alpha=0.0) - sector_Z(p, g_abs, p - 3, alpha=2 * math.pi)
            thimble = _thimble_jump(p, g_abs, spec.eta)
            assert abs(thimble - double) <= 1e-10 * abs(double), (p, g_abs)


def test_thimble_route_cli_rows(capsys):
    # the sweep lies wholly on the thimble route: a purely imaginary jump
    # near the instanton value
    assert cli.main(["borel", "--p", "4", "--g-sweep", "0.002:0.004:0.001"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"]
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        assert float(row[header.index("re_disc")]) == 0
        assert abs(float(row[header.index("ratio")]) - 1) < 0.01


# --------------------------------------------------------------- rest bound

def test_taylor_rest_bound_grid():
    for p, q in [(3, 0), (4, 0), (4, 1)]:
        spec = SectorSpec(p, q)
        alphas = [
            spec.alpha_q,
            spec.alpha_q - 0.45 * spec.omega,
            spec.alpha_q + 0.45 * spec.omega,
        ]
        for g_abs in (0.02, 0.05, 0.1):
            for n in (1, 2, 4, 8):
                res = taylor_rest_check(p, g_abs, q, n, alpha=alphas[n % 3])
                assert res["lhs"] <= res["bound"] * (1 + 1e-9)


def test_taylor_rest_bisectrix_is_tightest():
    spec = SectorSpec(4, 0)
    at_bis = taylor_rest_check(4, 0.05, 0, 3, alpha=spec.alpha_q)
    off_bis = taylor_rest_check(4, 0.05, 0, 3, alpha=spec.alpha_q - 0.6)
    assert at_bis["bound"] < off_bis["bound"]


def test_taylor_rest_leading_scaling():
    # n=1: lhs ~ |g|^{(p-2)/2}; for p=4 halving g halves the rest
    a = taylor_rest_check(4, 0.02, 0, 1, alpha=1.0)["lhs"]
    b = taylor_rest_check(4, 0.01, 0, 1, alpha=1.0)["lhs"]
    assert a / b == pytest.approx(2.0, rel=0.15)


# ------------------------------------------------------------- rescaled

def test_rescaled_Z_free_limit():
    assert abs(rescaled_Z(3, 1e9 + 1e3j, "+") - 1) < 1e-9
    assert abs(rescaled_Z(4, -1e9 - 1e3j, "-") - 1) < 1e-9


def test_rescaled_Z_matches_sector_map():
    # Z_plus(w) = Z_{p-3}(g = |w|^{-2/(p-2)}) at alpha = 2 pi - 2 psi/(p-2)
    for p, w in [(3, 2.0 * cmath.exp(0.7j)), (4, 1.5 * cmath.exp(1.9j)), (5, 1.2 * cmath.exp(2.5j))]:
        psi = cmath.phase(w)
        g = abs(w) ** (-2 / (p - 2))
        alpha = 2 * math.pi - 2 * psi / (p - 2)
        assert abs(rescaled_Z(p, w, "+") - sector_Z(p, g, p - 3, alpha=alpha)) < 1e-9


def test_rescaled_Z_discontinuity_trend():
    # positive-axis jump for p=3: magnitude exp(-y^2/6)/sqrt(p-2), the ratio
    # tends to 1 as y grows.  With the alpha in [0, 2pi) sector layout the
    # upper w half-plane maps to the 2pi side of the g cut, so the jump
    # Z_plus - Z_minus carries a minus sign relative to the q=0 sector jump.
    ratios = []
    for y in (3.0, 4.0, 5.0):
        num = rescaled_Z(3, y, "+") - rescaled_Z(3, y, "-")
        ratios.append(num / (-1j * math.exp(-(y**2) / 6)))
    mags = [abs(r - 1) for r in ratios]
    assert mags[-1] < 0.03
    assert mags[-1] < mags[0]


def test_rescaled_Z_two_cuts_for_odd_p():
    # for odd p the two cuts carry equal jumps
    y = 3.5
    pos = rescaled_Z(3, y, "+") - rescaled_Z(3, y, "-")
    neg = rescaled_Z(3, -y, "-") - rescaled_Z(3, -y, "+")
    assert abs(pos - neg) < 1e-10


def test_rescaled_Z_outside_wedge():
    with pytest.raises(OutsideWedge):
        rescaled_Z(3, cmath.exp(-1.0j), "+")  # + wedge: |psi - pi/2| < 3pi/4
