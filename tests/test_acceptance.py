"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from tensorspectra import (
    critical_point,
    density_moment,
    expected_resolvent,
    fuss_catalan_number,
    pp_density,
    support_edge,
    wigner_density,
    wigner_density_roots,
)
from tensorspectra.annealed import (
    annealed_logZ,
    annealed_resolvent,
    h_function,
    spike_saddles,
    spike_threshold,
    singular_locus,
)
from tensorspectra.borel import discontinuity, instanton_discontinuity, taylor_rest_check
from tensorspectra.borel import SectorSpec
from tensorspectra.eigenpairs import find_real_eigenpairs
from tensorspectra.maps import (
    balanced_invariant,
    enumerate_rooted_maps,
    mc_expected_invariant,
    trace_invariant,
)
from tensorspectra.tensors import SymmetricTensor, from_dense, multiset_table, sample_goe


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {detail}")
    return ok


# --------------------------------------------------------------------- 1

def test_criterion_01_moment_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (2, 3, 4, 5):
        for n in range(7):
            err = abs(density_moment(p, n) - fuss_catalan_number(p, n))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert report(1, ok, f"moments vs Fuss-Catalan: worst |err| = {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------- 2

def test_criterion_02_semicircle():
    grid = np.linspace(-2.0, 2.0, 200)
    worst = max(
        abs(wigner_density(2, float(y)) - math.sqrt(max(4 - y * y, 0.0)) / (2 * math.pi))
        for y in grid
    )
    assert report(2, worst < 1e-10, f"semicircle recovery: worst |err| = {worst:.2e}")


# --------------------------------------------------------------------- 3

def p3_closed(x):
    s = math.sqrt(1 - (4 / 27) * x)
    num = (1 + s) ** (2 / 3) - ((4 / 27) * x) ** (1 / 3)
    return (1 / (2 * math.pi * x ** (2 / 3))) * (3**0.5 / 2 ** (1 / 3)) * num / (1 + s) ** (1 / 3)


def test_criterion_03_p3_closed_form():
    u_c = critical_point(3)
    inner_grid = np.linspace(0.01 / u_c, 0.95 / u_c, 100)
    root_grid = np.linspace(0.01 / u_c, 0.999 / u_c, 100)
    worst_pp = max(
        abs(pp_density(3, float(x)) - p3_closed(float(x)))
        for x in np.concatenate([inner_grid, root_grid])
    )
    worst_root = max(
        abs(wigner_density_roots(3, math.sqrt(x)) / math.sqrt(x) - p3_closed(float(x)))
        for x in root_grid
    )
    ok = worst_pp < 1e-10 and worst_root < 1e-8
    assert report(
        3, ok, f"P_3 closed form: parametric {worst_pp:.2e}, root-tracked {worst_root:.2e}"
    )


# --------------------------------------------------------------------- 4

def stieltjes_quadrature(p, w):
    edge = support_edge(p)

    def f(t, part):
        y = edge * math.sin(t)
        if abs(y) >= edge or y == 0.0:
            return 0.0
        return part(wigner_density(p, y) / (w - y)) * edge * math.cos(t)

    re = quad(lambda t: f(t, lambda z: z.real), -math.pi / 2, math.pi / 2, epsabs=1e-9, limit=300)[0]
    im = quad(lambda t: f(t, lambda z: z.imag), -math.pi / 2, math.pi / 2, epsabs=1e-9, limit=300)[0]
    return re + 1j * im


def test_criterion_04_stieltjes():
    t0 = time.perf_counter()
    points = {
        2: (2.8 + 0.5j, 4.0, 10j),
        3: (2.8 + 0.5j, 4.0, 10j),
        4: (3.2 + 0.5j, 4.5, 10j),
    }
    worst = 0.0
    for p, ws in points.items():
        for w in ws:
            worst = max(worst, abs(expected_resolvent(p, w) - stieltjes_quadrature(p, w)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    assert report(4, ok, f"Stieltjes identity: worst |err| = {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------- 5

def brute_force_i2_p3(tensor):
    """3 sum T_aab T_bcc + 2 sum T_abc^2 by raw index loops."""
    N = tensor.N
    s2 = sum(
        tensor.component(a, b, c) ** 2
        for a in range(N)
        for b in range(N)
        for c in range(N)
    )
    s1 = sum(
        sum(tensor.component(a, a, b) for a in range(N))
        * sum(tensor.component(b, c, c) for c in range(N))
        for b in range(N)
    )
    return 3 * s1 + 2 * s2


def test_criterion_05_map_enumeration():
    classes = enumerate_rooted_maps(3, 2)
    T = sample_goe(3, 3, seed=2024)
    d = T.to_dense()
    dumbbell = float(np.einsum("aab,bcc->", d, d))
    theta = float(np.einsum("abc,abc->", d, d))
    values = [trace_invariant(T, m) for m in classes]
    split = (
        sum(1 for v in values if abs(v - dumbbell) < 1e-10),
        sum(1 for v in values if abs(v - theta) < 1e-10),
    )
    worst = 0.0
    for seed in (0, 1, 2):
        S = sample_goe(3, 3, seed=seed)
        worst = max(worst, abs(balanced_invariant(S, 2) - brute_force_i2_p3(S)))
    ok = len(classes) == 5 and split == (3, 2) and worst < 1e-12
    assert report(
        5, ok, f"rooted maps: {len(classes)} classes split {split}, I_2 vs brute force {worst:.2e}"
    )


# --------------------------------------------------------------------- 6

def test_criterion_06_wick_mc_agreement():
    t0 = time.perf_counter()
    devs = {}
    means = []
    for N in (8, 16, 32):
        est = mc_expected_invariant(3, N, 2, 10_000, seed=100 + N)
        oracle = 1 + 6 / N + 8 / N**2
        devs[N] = abs(est.mean - oracle) / est.std_error
        means.append(est.mean)
    elapsed = time.perf_counter() - t0
    trend = abs(means[0] - 1) > abs(means[1] - 1) > abs(means[2] - 1)
    ok = all(d < 4 for d in devs.values()) and trend and elapsed < 60.0
    assert report(
        6,
        ok,
        "MC vs Wick: deviations "
        + ", ".join(f"N={N}: {d:.2f}sigma" for N, d in devs.items())
        + f", trend to 1: {trend}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------- 7

def example_tensor():
    data = np.zeros(math.comb(3 + 3 - 1, 3))
    _, rank, _ = multiset_table(3, 3)
    data[rank[(0, 0, 0)]] = 2.0
    data[rank[(0, 1, 1)]] = 1.0
    data[rank[(0, 2, 2)]] = 1.0
    return SymmetricTensor(3, 3, data)


def test_criterion_07_eigenpairs():
    pairs = find_real_eigenpairs(example_tensor(), n_starts=100, tol=1e-10, seed=3)
    e1 = np.array([1.0, 0.0, 0.0])
    hit = any(
        abs(pair.lam - 2.0) < 1e-6
        and min(np.linalg.norm(pair.x - e1), np.linalg.norm(pair.x + e1)) < 1e-3
        and pair.residual < 1e-10
        for pair in pairs
    )

    rng = np.random.default_rng(11)
    recovered = True
    worst = 0.0
    for trial in range(3):
        M = rng.normal(size=(4, 4))
        M = (M + M.T) / 2
        found = np.sort([q.lam for q in find_real_eigenpairs(from_dense(M), 200, 1e-10, seed=trial)])
        expected = np.sort(np.roots(np.poly(M)).real)
        if len(found) != 4:
            recovered = False
            break
        worst = max(worst, float(np.max(np.abs(found - expected))))
    ok = hit and recovered and worst < 1e-8
    assert report(
        7, ok, f"eigenpairs: example-tensor class found = {hit}, matrix spectra worst err {worst:.2e}"
    )


# --------------------------------------------------------------------- 8

def bisect_threshold(p):
    """Independent bisection on b of the condition max_v h(v) >= 0."""

    def peak(b):
        v_m = ((p - 1) * (p - 2)) ** (-1 / (p - 1)) * b ** (-2 / ((p - 1) * (p - 2)))
        return h_function(p, b, v_m)

    lo, hi = 1e-3, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if peak(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


SPIKE_MAX_CANCELLATION = 1e3


def panel_nodes(cuts, order):
    """Gauss-Legendre nodes and weights, one row per non-empty panel of `cuts`."""
    x, wts = np.polynomial.legendre.leggauss(order)
    a, b = np.array(cuts[:-1]), np.array(cuts[1:])
    a, b = a[b > a], b[b > a]
    half = (b - a) / 2
    return (a + b)[:, None] / 2 + np.outer(half, x), np.outer(half, wts)


def spiked_logZ(p, w, b, N):
    """(1/N) ln Z_N of the spiked model by a 2-d quadrature, for real w beyond the edge.

        Z_N = int_0^oo drho rho^{N-1} e^{N (-rho^2/2 + rho^{2p}/(2 p w^2))}
              int_0^pi dtheta sin^{N-2}(theta) e^{N (b/(p w)) rho^p cos^p(theta)}

    The exponents follow from the model's noise variance and spike
    normalisation, written out here rather than taken from the library.
    rho runs along the real axis to the radial saddle rho_0, then out along
    exp(-i pi/(2p)), where rho^{2p} decays; theta is integrated in
    t = cos(theta).  Orders are doubled until the sum settles.  A sum whose
    terms cancel (sum |terms| > SPIKE_MAX_CANCELLATION |sum|) is rounding
    noise, not a value, and raises ValueError, as does non-convergence.
    """
    tilt = np.exp(-0.5j * math.pi / p)
    spike = N * b / (p * w)

    def radial(rho):
        return (N - 1) * np.log(rho) - N * rho**2 / 2 + N * rho ** (2 * p) / (2 * p * w * w)

    # rho_0^2: the smallest positive root of 1 - t + t^p / w^2
    t_max = (w * w / p) ** (1 / (p - 1))
    rho0 = math.sqrt(brentq(lambda t: 1 - t + t**p / (w * w), 1.0, t_max, xtol=1e-15, rtol=1e-15))
    ref = radial(rho0)
    sigma = 1 / math.sqrt(N)
    span = sigma
    # the tilted leg ends where the integrand is e^-45 below its value at rho_0
    while (radial(rho0 + span * tilt) - ref).real > -45.0:
        span *= 1.25
    real_cuts = sorted({0.0, rho0 / 2, rho0} | {max(rho0 - c * sigma, 0.0) for c in (1, 2, 4, 8, 16)})
    tilt_cuts = sorted({0.0, span} | {min(c * sigma, span) for c in (1, 2, 4, 8, 16)})
    t_cuts = sorted({-1.0, 0.0, 1.0} | {s * min(c * sigma, 1.0) for c in (1, 2, 4, 8, 16) for s in (-1, 1)})

    prev = total = None
    for order in (32, 64, 128):
        r_real, dr_real = panel_nodes(real_cuts, order)
        r_tilt, dr_tilt = panel_nodes(tilt_cuts, order)
        t, dt = (a.ravel() for a in panel_nodes(t_cuts, order))
        angular = (N - 3) / 2 * np.log1p(-t * t)
        rho_panels = np.vstack([r_real, rho0 + tilt * r_tilt])
        drho_panels = np.vstack([dr_real, tilt * dr_tilt])
        total, magnitude = 0j, 0.0
        for rho, drho in zip(rho_panels, drho_panels):
            exponent = radial(rho)[:, None] - ref + angular + spike * np.outer(rho**p, t**p)
            terms = np.outer(drho, dt) * np.exp(exponent)
            total += terms.sum()
            magnitude += np.abs(terms).sum()
        if prev is not None and abs(total - prev) <= 1e-13 * abs(total):
            break
        prev = total
    else:
        if not abs(total - prev) <= 1e-10 * abs(total):
            raise ValueError(f"panels did not converge at p={p}, w={w}, b={b}, N={N}")
    if not magnitude <= SPIKE_MAX_CANCELLATION * abs(total):
        raise ValueError(
            f"sum cancels at p={p}, w={w}, b={b}, N={N} "
            f"(sum |terms| / |sum| = {magnitude / abs(total):.1e})"
        )
    return (ref + np.log(total)) / N


def test_criterion_08_spike_threshold():
    failures = []
    for p in (3, 4, 5):
        analytic = math.sqrt((p - 1) ** p / (p - 2) ** (p - 2))
        if abs(bisect_threshold(p) - analytic) > 1e-8 * analytic:
            failures.append(f"p={p} bisection != analytic")
        res = spike_threshold(p)
        if abs(res.b_t - analytic) > 1e-8:
            failures.append(f"p={p} b_t mismatch")
        below = singular_locus(p, 0.5 * analytic)
        at = singular_locus(p, analytic)
        if abs(below - p ** (p / 2) / (p - 1) ** ((p - 1) / 2)) > 1e-8:
            failures.append(f"p={p} y_c below threshold")
        if abs(at - p ** (p / 2)) > 1e-8 * p ** (p / 2):
            failures.append(f"p={p} y_c at threshold")

    p, w, b = 3, 3**1.5, math.sqrt(8.0)
    rep = spike_saddles(p, w, b)
    if len(rep.saddles) < 2:
        failures.append("theta_1 saddle not found at the threshold point")
    else:
        theta1 = rep.saddles[1]
        if abs(math.sin(theta1.theta) ** 2 - 0.5) > 1e-8:
            failures.append("sin^2 theta_1 != 1/2")
        if abs(theta1.rho_sq - 3.0) > 1e-8:
            failures.append("rho_1^2 != 3")

    # The saddle reported dominant must be the one the integral follows:
    # (1/N) ln Z_N(b)/Z_N(0) tends to Re f_dom - Re f_0.  The oracle is checked
    # first at b = 0, where the theta integral is B((N-1)/2, 1/2), and against
    # second order in alpha = b rho_0^p/(p w): cos^p(theta) has mean 0 and
    # <cos^6> = 15/N^3 under sin^{N-2}, so N ln Z_N(b)/Z_N(0) -> (15/2) alpha^2.
    target = rep.dominant.f_value.real - rep.saddles[0].f_value.real
    alpha = b * rep.saddles[0].rho_sq.real ** (p / 2) / (p * w)
    Ns = (80, 160, 320)
    try:
        log_z = {(N, strength): spiked_logZ(p, w, strength, N) for N in Ns for strength in (0.0, b)}
    except ValueError as exc:
        failures.append(f"finite-N oracle uncertified: {exc}")
    else:
        for N in Ns:
            log_beta = (math.lgamma((N - 1) / 2) + math.lgamma(0.5) - math.lgamma(N / 2)) / N
            if abs(log_z[N, 0.0] - annealed_logZ(p, w, N, "quadrature") - log_beta) > 1e-12:
                failures.append(f"oracle at b=0, N={N} != annealed_logZ + ln B/N")
        log_ratios = [(log_z[N, b] - log_z[N, 0.0]).real for N in Ns]
        errs = [abs(r - target) for r in log_ratios]
        if max(errs) >= 1e-3 or not errs[0] > errs[1] > errs[2]:
            failures.append(
                f"integral does not follow the dominant saddle {rep.dominant_index}: "
                "|(1/N) ln Z_N(b)/Z_N(0) - (Re f_dom - Re f_0)| = "
                + ", ".join(f"{e:.2e}" for e in errs)
                + f" at N = {Ns}"
            )
        second_order = Ns[-1] ** 2 * log_ratios[-1]
        if abs(second_order / (7.5 * alpha**2) - 1) > 0.02:
            failures.append(
                f"N ln Z_N(b)/Z_N(0) = {second_order:.4f} at N={Ns[-1]} "
                f"not within 2% of (15/2) alpha^2 = {7.5 * alpha**2:.4f}"
            )
    try:
        spiked_logZ(3, 10.0, 20.0, 80)
    except ValueError:
        pass
    else:
        failures.append("oracle returned a value where its sum cancels (p=3, w=10, b=20)")
    assert report(8, not failures, "spike threshold: " + ("; ".join(failures) or "all checks hold"))


# --------------------------------------------------------------------- 9

def test_criterion_09_annealed_convergence():
    sad = annealed_resolvent(3, 5.0, mode="saddle")
    Ns = [100, 200, 400, 800]
    diffs = [abs(annealed_resolvent(3, 5.0, N, mode="quadrature") - sad) for N in Ns]
    slope = float(np.polyfit(np.log(Ns), np.log(diffs), 1)[0])
    ok = -1.2 < slope < -0.8
    assert report(9, ok, f"annealed quadrature vs saddle: log-log slope {slope:.3f}")


# -------------------------------------------------------------------- 10

def test_criterion_10_borel_lab():
    failures = []

    gs = np.linspace(0.02, 0.1, 9)
    discs = [abs(discontinuity(3, float(g), 0)) for g in gs]
    slope = float(np.polyfit(1 / gs, np.log(discs), 1)[0])
    if abs(slope - (-1 / 6)) > 0.02 * (1 / 6):
        failures.append(f"p=3 slope {slope:.5f} not within 2% of -1/6")

    neg = max(abs(discontinuity(4, g, 1)) for g in (0.05, 0.1))
    if neg > 1e-10:
        failures.append(f"p=4 negative-axis jump {neg:.2e}")

    ratios = [
        abs(discontinuity(4, g, 0)) / abs(instanton_discontinuity(4, g))
        for g in (0.1, 0.05, 0.02)
    ]
    if not (abs(ratios[-1] - 1) < 0.02 and abs(ratios[-1] - 1) < abs(ratios[0] - 1)):
        failures.append(f"p=4 positive-axis ratio not tending to 1: {ratios}")

    for p, q in [(3, 0), (4, 0), (4, 1)]:
        spec = SectorSpec(p, q)
        alphas = (spec.alpha_q, spec.alpha_q - 0.45 * spec.omega, spec.alpha_q + 0.45 * spec.omega)
        for g_abs in (0.02, 0.05, 0.1):
            for n in (1, 2, 4, 8):
                res = taylor_rest_check(p, g_abs, q, n, alpha=alphas[n % 3])
                if res["lhs"] > res["bound"] * (1 + 1e-9):
                    failures.append(f"rest bound violated at p={p} q={q} g={g_abs} n={n}")

    assert report(10, not failures, "Borel lab: " + ("; ".join(failures) or "all checks hold"))
