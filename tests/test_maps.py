import contextlib
import hashlib
import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tensorspectra.cli import main
from tensorspectra.errors import CapExceeded, DomainError
from tensorspectra.fuss_catalan import fuss_catalan_number
from tensorspectra.maps import (
    ENUMERATION_CAP,
    CombinatorialMap,
    _bfs_order,
    _canonical_key,
    _loop_count,
    _pairings,
    balanced_invariant,
    enumerate_rooted_maps,
    map_from_json,
    map_to_json,
    mc_expected_invariant,
    trace_invariant,
    wick_expectation,
)
from tensorspectra.tensors import SymmetricTensor, from_dense, multiset_table, sample_goe


# ---------------------------------------------------------------- oracles

def brute_force_trace(tensor, cmap):
    """Contract along the map's edges by explicit index loops."""
    edges = cmap.edges()
    verts = cmap.vertices()
    symbol = {}
    for k, (a, b) in enumerate(edges):
        symbol[a] = symbol[b] = k
    total = 0.0
    for assignment in itertools.product(range(tensor.N), repeat=len(edges)):
        term = 1.0
        for cyc in verts:
            term *= tensor.component(*(assignment[symbol[h]] for h in cyc))
        total += term
    return total


def hand_coded_i2_p3(tensor):
    """3 sum T_aab T_bcc + 2 sum T_abc^2 by explicit loops."""
    N = tensor.N
    s1 = 0.0
    s2 = 0.0
    for a in range(N):
        for b in range(N):
            for c in range(N):
                s2 += tensor.component(a, b, c) ** 2
    for b in range(N):
        left = sum(tensor.component(a, a, b) for a in range(N))
        right = sum(tensor.component(b, c, c) for c in range(N))
        s1 += left * right
    return 3 * s1 + 2 * s2


def reference_wick(p, N, n):
    """<I_n>/N by Wick pairing over every rooted class, one at a time."""
    if n == 0:
        return Fraction(1)
    if n % 2:
        return Fraction(0)
    Nf = Fraction(N)
    pref = (Fraction(p) / Nf ** (p - 1) / math.factorial(p)) ** (n // 2)
    total = Fraction(0)
    perms = list(itertools.permutations(range(p)))
    for cmap in enumerate_rooted_maps(p, n):
        m = len(cmap.successor)
        map_pairs = cmap.edges()
        verts = cmap.vertices()
        loop_powers = {}
        for matching in _pairings(list(range(cmap.n_vertices))):
            for sigmas in itertools.product(perms, repeat=len(matching)):
                prop_pairs = []
                for (v, w), sigma in zip(matching, sigmas):
                    for i in range(p):
                        prop_pairs.append((verts[v][i], verts[w][sigma[i]]))
                c = _loop_count(map_pairs, prop_pairs, m)
                loop_powers[c] = loop_powers.get(c, 0) + 1
        for c, count in loop_powers.items():
            total += count * Nf**c
    return pref * total / Nf


def reference_rooted_maps(p, n):
    """Rooted classes by one BFS canonical key per (pairing, root), first seen kept."""
    if n == 0 or (n * p) % 2:
        return ()
    m = n * p
    succ = tuple((v * p + (i + 1) % p) for v in range(n) for i in range(p))
    seen = set()
    out = []
    for pairs in _pairings(list(range(m))):
        pairing = [0] * m
        for a, b in pairs:
            pairing[a] = b
            pairing[b] = a
        pairing = tuple(pairing)
        if len(_bfs_order(succ, pairing, 0)) != m:
            continue
        for root in range(m):
            key = _canonical_key(succ, pairing, root)
            if key not in seen:
                seen.add(key)
                out.append(CombinatorialMap(p, succ, pairing, root))
    return tuple(out)


def sizes_up_to(half_edges):
    """Every (p, n) with p >= 2, n >= 1 and n*p <= half_edges."""
    return [(p, n) for p in range(2, half_edges + 1) for n in range(1, half_edges // p + 1)]


# ------------------------------------------------------------- enumeration

def test_rooted_map_counts():
    assert len(enumerate_rooted_maps(3, 2)) == 5
    assert len(enumerate_rooted_maps(2, 3)) == 1
    assert len(enumerate_rooted_maps(3, 1)) == 0  # odd number of half-edges


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_two_valent_maps_are_rooted_cycles(n):
    maps = enumerate_rooted_maps(2, n)
    assert len(maps) == 1
    T = sample_goe(2, 4, seed=n)
    power_trace = np.trace(np.linalg.matrix_power(T.to_dense(), n))
    assert trace_invariant(T, maps[0]) == pytest.approx(power_trace, rel=1e-12)


@pytest.mark.parametrize("p, n", [(p, n) for p in range(2, 11) for n in range(0, 10 // p + 1)] + [(3, 4)])
def test_enumeration_matches_reference(p, n):
    assert enumerate_rooted_maps(p, n) == reference_rooted_maps(p, n)


# sha256 of `maps --p P --n N` stdout.  The data were first printed by the
# one-BFS-per-rooting enumeration (`reference_rooted_maps`), which takes ~8 s
# for these four; the config echo carries no "format" entry.
MAPS_STDOUT_SHA256 = {
    (2, 6): "e04ad0c55dbe58501375e4a490684ec335dbf7599dbb0ffe1cbf0efbadc2886d",
    (4, 3): "808b91c5ba81cc44199b0aedaed341b9f863c3fbe3a19316bad93fced964265a",
    (6, 2): "15ff8e0c00e9b71a6db631319bfeb2c579f37ab1d5106e53b143c2baf3a92389",
    (12, 1): "341d01028440d2fb9075174db9fa224400fcfd25132f09e5a034126ae37c0465",
}


@pytest.mark.parametrize("p, n", sorted(MAPS_STDOUT_SHA256))
def test_maps_stdout_pinned(p, n):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["maps", "--p", str(p), "--n", str(n)]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == MAPS_STDOUT_SHA256[(p, n)]


def test_enumeration_transient_memory():
    enumerate_rooted_maps.cache_clear()
    tracemalloc.start()
    try:
        enumerate_rooted_maps(3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_rooted_maps(3, 6)


def test_enumeration_cached_once_per_p_n():
    enumerate_rooted_maps.cache_clear()
    first = enumerate_rooted_maps(3, 2)
    assert enumerate_rooted_maps(3, 2) is first
    assert enumerate_rooted_maps.cache_info().misses == 1


@pytest.mark.parametrize("p, n, groups", [(3, 2, 2), (4, 2, 2), (5, 2, 3), (3, 4, 5)])
def test_multigraph_group_counts(p, n, groups):
    assert len({cmap.multigraph_key() for cmap in enumerate_rooted_maps(p, n)}) == groups


def test_maps_are_connected_and_valid():
    for cmap in enumerate_rooted_maps(3, 2) + enumerate_rooted_maps(4, 2):
        assert cmap.is_connected()
        assert cmap.root in cmap.half_edges
        for cyc in cmap.vertices():
            assert len(cyc) == cmap.p


def test_class_split_three_plus_two():
    # the five rooted classes at (p=3, n=2) split 3 + 2 across the two
    # underlying graphs: double self-loop ("dumbbell") vs triple edge
    T = sample_goe(3, 3, seed=123)
    d = T.to_dense()
    dumbbell = float(np.einsum("aab,bcc->", d, d))
    theta = float(np.einsum("abc,abc->", d, d))
    values = [trace_invariant(T, m) for m in enumerate_rooted_maps(3, 2)]
    n_dumbbell = sum(1 for v in values if abs(v - dumbbell) < 1e-10)
    n_theta = sum(1 for v in values if abs(v - theta) < 1e-10)
    assert (n_dumbbell, n_theta) == (3, 2)


def test_canonical_key_is_relabeling_invariant():
    rng = np.random.default_rng(0)
    for cmap in enumerate_rooted_maps(3, 2):
        m = len(cmap.successor)
        perm = rng.permutation(m)
        succ = [0] * m
        pair = [0] * m
        for h in range(m):
            succ[perm[h]] = perm[cmap.successor[h]]
            pair[perm[h]] = perm[cmap.pairing[h]]
        relabeled = CombinatorialMap(3, tuple(succ), tuple(pair), int(perm[cmap.root]))
        assert relabeled.canonical_key() == cmap.canonical_key()


def test_map_validation():
    with pytest.raises(DomainError):
        CombinatorialMap(2, (1, 0, 3, 2), (0, 1, 2, 3))  # pairing has fixed points
    with pytest.raises(DomainError):
        CombinatorialMap(3, (1, 0, 3, 2), (2, 3, 0, 1))  # cycles of length 2, p=3


# --------------------------------------------------------------- invariants

def test_trace_invariant_p2_cycle_on_diagonal_matrix():
    d = np.diag([1.0, 2.0, 3.0])
    T = from_dense(d)
    two_cycle = enumerate_rooted_maps(2, 2)[0]
    assert trace_invariant(T, two_cycle) == pytest.approx(1 + 4 + 9, rel=1e-14)


def test_trace_invariant_zero_tensor():
    T = SymmetricTensor.zeros(3, 3)
    for cmap in enumerate_rooted_maps(3, 2):
        assert trace_invariant(T, cmap) == 0.0


def test_trace_invariant_matches_brute_force():
    T = sample_goe(3, 2, seed=5)
    for cmap in enumerate_rooted_maps(3, 2):
        assert trace_invariant(T, cmap) == pytest.approx(
            brute_force_trace(T, cmap), rel=1e-12
        )


def test_trace_invariant_root_independent():
    T = sample_goe(3, 3, seed=9)
    for cmap in enumerate_rooted_maps(3, 2):
        base = trace_invariant(T, cmap)
        for h in cmap.half_edges:
            assert trace_invariant(T, cmap.rerooted(h)) == pytest.approx(
                base, rel=1e-12
            )


def test_trace_invariant_degree_mismatch():
    T = sample_goe(3, 3, seed=1)
    with pytest.raises(DomainError):
        trace_invariant(T, enumerate_rooted_maps(2, 2)[0])


def test_balanced_invariant_p3_hand_formula():
    for seed in (0, 1, 2):
        T = sample_goe(3, 3, seed=seed)
        hand = hand_coded_i2_p3(T)
        assert balanced_invariant(T, 2) == pytest.approx(hand, rel=1e-12)


@pytest.mark.parametrize("p, n", sizes_up_to(ENUMERATION_CAP))
def test_balanced_invariant_is_sum_over_rooted_classes(p, n):
    T = sample_goe(p, 3, seed=100 * p + n)
    reference = sum(trace_invariant(T, cmap) for cmap in enumerate_rooted_maps(p, n))
    assert balanced_invariant(T, n) == pytest.approx(reference, rel=1e-12)


def test_balanced_invariant_zero_cases():
    assert balanced_invariant(SymmetricTensor.zeros(3, 4), 2) == 0.0
    assert balanced_invariant(sample_goe(3, 4, seed=0), 3) == 0.0  # no maps, odd np


def test_degree_zero_convention():
    # I_0 = N so the resolvent series sum_n I_n/(N w^{n+1}) starts at 1/w
    assert balanced_invariant(sample_goe(3, 5, seed=1), 0) == 5.0
    assert wick_expectation(3, 7, 0) == 1
    est = mc_expected_invariant(3, 7, 0, samples=10, seed=0)
    assert est.mean == 1.0 and est.std_error == 0.0


# --------------------------------------------------------------------- Wick

@pytest.mark.parametrize("N", [3, 8, 16, 100])
def test_wick_p3_n2_closed_form(N):
    expected = Fraction(1) + Fraction(6, N) + Fraction(8, N * N)
    assert wick_expectation(3, N, 2) == expected


@pytest.mark.parametrize("N", [2, 32, 1000])
def test_wick_p2_n2_goe(N):
    assert wick_expectation(2, N, 2) == Fraction(N + 1, N)


@pytest.mark.parametrize("p, n", sizes_up_to(10) + [(3, 4)])
def test_wick_matches_reference_loop(p, n):
    for N in (1, 2, 5, 64):
        assert wick_expectation(p, N, n) == reference_wick(p, N, n)


def test_wick_pinned_values():
    # exact values of the per-rooted-class loop (reference_wick), which
    # takes seconds at p = 6
    assert wick_expectation(6, 8, 2) == Fraction(60255, 4096)
    assert wick_expectation(2, 8, 6) == Fraction(4425, 512)


def test_wick_parity_zero():
    assert wick_expectation(3, 7, 3) == 0
    assert wick_expectation(2, 5, 1) == 0


# every (p, n) with n even and n p within the enumeration cap
EVEN_SIZES = [(p, n) for p in range(2, 7) for n in range(2, ENUMERATION_CAP // p + 1, 2)]


@pytest.mark.parametrize("p, n", EVEN_SIZES)
def test_wick_expectation_tends_to_fuss_catalan(p, n):
    # the paper's moment identity: <I_n>/N -> F_p(n/2) as N -> oo, with a
    # 1/N correction (N = 10^6 times the gap is 1 at (2, 2), 48 at (3, 4))
    limit = fuss_catalan_number(p, n // 2)
    gap5 = wick_expectation(p, 10**5, n) - limit
    gap6 = wick_expectation(p, 10**6, n) - limit
    assert 0 < gap6 < Fraction(100, 10**6)
    assert 9.9 < gap5 / gap6 < 10.1


def test_wick_melonic_limit_monotone():
    vals = [wick_expectation(3, N, 2) for N in (8, 16, 32, 64)]
    ratios = [float(v) for v in vals]  # F_3(1) = 1
    assert all(r > 1 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
    # n=4 trend towards F_3(2) = 3 from above as well
    r4 = [float(wick_expectation(3, N, 4)) / 3 for N in (8, 16, 32, 64)]
    assert all(r > 1 for r in r4)
    assert r4 == sorted(r4, reverse=True)


def test_wick_cap():
    with pytest.raises(CapExceeded):
        wick_expectation(4, 5, 4)


def test_wick_matches_mc_p2_n4():
    est = mc_expected_invariant(2, 6, 4, samples=4000, seed=21)
    oracle = float(wick_expectation(2, 6, 4))
    assert abs(est.mean - oracle) < 4 * est.std_error


# ----------------------------------------------------------------- MC

def test_mc_matches_wick_oracle():
    est = mc_expected_invariant(3, 16, 2, samples=3000, seed=11)
    oracle = float(wick_expectation(3, 16, 2))
    assert abs(est.mean - oracle) < 4 * est.std_error
    assert est.std_error > 0


def test_mc_matches_wick_oracle_n4():
    est = mc_expected_invariant(3, 16, 4, samples=400, seed=31)
    oracle = float(wick_expectation(3, 16, 4))
    assert abs(est.mean - oracle) < 4 * est.std_error


def test_mc_matches_wick_oracle_matrix_case():
    est = mc_expected_invariant(2, 32, 2, samples=2000, seed=17)
    assert abs(est.mean - (1 + 1 / 32)) < 4 * est.std_error


def test_mc_no_maps_returns_exact_zero():
    est = mc_expected_invariant(3, 10, 3, samples=100, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_mc_deterministic_in_seed():
    a = mc_expected_invariant(3, 6, 2, samples=50, seed=42)
    b = mc_expected_invariant(3, 6, 2, samples=50, seed=42)
    assert a == b
    c = mc_expected_invariant(3, 6, 2, samples=50, seed=43)
    assert a.mean != c.mean


# ----------------------------------------------------------------- export

def test_map_json_round_trip():
    for cmap in enumerate_rooted_maps(3, 2):
        obj = map_to_json(cmap)
        assert set(obj) == {"p", "n", "half_edges", "successor", "pairing", "root"}
        back = map_from_json(obj)
        assert back == cmap
