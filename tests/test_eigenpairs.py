import math

import numpy as np
import pytest

from tensorspectra.eigenpairs import (
    Eigenpair,
    _newton_batch,
    discontinuity_exponent,
    eigenpair_count_bound,
    find_real_eigenpairs,
    instanton_from_eigenpair,
)
from tensorspectra.errors import DomainError, NoMatchingPairs, RootFindFailure, SignMismatch
from tensorspectra.tensors import (
    SymmetricTensor,
    contract_gradient,
    contract_matrix,
    from_dense,
    multiset_table,
    sample_goe,
)


# ---------------------------------------------------------------- fixtures

def example_tensor():
    """T x^3 = 2 x1^3 + 3 x1 x2^2 + 3 x1 x3^2; real classes: lambda = 2, x = e1."""
    data = np.zeros(math.comb(3 + 3 - 1, 3))
    _, rank, _ = multiset_table(3, 3)
    data[rank[(0, 0, 0)]] = 2.0
    data[rank[(0, 1, 1)]] = 1.0
    data[rank[(0, 2, 2)]] = 1.0
    return SymmetricTensor(3, 3, data)


def diagonal_tensor(diag):
    p = 3
    N = len(diag)
    data = np.zeros(math.comb(N + p - 1, p))
    _, rank, _ = multiset_table(p, N)
    for i, d in enumerate(diag):
        data[rank[(i, i, i)]] = d
    return SymmetricTensor(p, N, data)


def char_poly_eigenvalues(matrix):
    """Characteristic-polynomial oracle, independent of the Newton solver."""
    return np.sort(np.roots(np.poly(matrix)).real)


# ------------------------------------------------------------------ solver

def test_example_tensor_eigenpair():
    T = example_tensor()
    pairs = find_real_eigenpairs(T, n_starts=100, tol=1e-10, seed=1)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.lam == pytest.approx(2.0, abs=1e-9)
    # this tensor carries a continuum of complex eigenvectors, so the real
    # critical manifold is degenerate at e1: x is only residual^(1/3) sharp
    # and the solver flags the cluster
    assert min(np.linalg.norm(pair.x - [1, 0, 0]), np.linalg.norm(pair.x + [1, 0, 0])) < 1e-3
    assert pair.residual < 1e-10
    assert pair.degenerate


def test_eigenpair_invariants():
    T = sample_goe(3, 5, seed=3)
    pairs = find_real_eigenpairs(T, n_starts=150, tol=1e-10, seed=4)
    assert pairs
    for pair in pairs:
        assert abs(pair.x @ pair.x - 1) < 1e-10
        g = contract_gradient(T, pair.x)
        assert np.linalg.norm(g - pair.lam * pair.x) < 1e-9
        # Rayleigh consistency
        assert abs(pair.lam - pair.x @ g) < 1e-10


def test_odd_p_sign_convention():
    T = sample_goe(3, 4, seed=8)
    pairs = find_real_eigenpairs(T, n_starts=120, tol=1e-10, seed=9)
    assert all(pair.lam >= 0 for pair in pairs)


def test_p2_matches_characteristic_polynomial():
    rng = np.random.default_rng(5)
    for trial in range(3):
        M = rng.normal(size=(4, 4))
        M = (M + M.T) / 2
        T = from_dense(M)
        pairs = find_real_eigenpairs(T, n_starts=200, tol=1e-10, seed=trial)
        found = np.sort([pair.lam for pair in pairs])
        expected = char_poly_eigenvalues(M)
        assert len(found) == 4
        assert np.allclose(found, expected, atol=1e-8)


def test_diagonal_tensor_pairs():
    diag = [1.0, 2.0, 3.0]
    T = diagonal_tensor(diag)
    pairs = find_real_eigenpairs(T, n_starts=300, tol=1e-10, seed=2)
    lams = [pair.lam for pair in pairs]
    for i, d in enumerate(diag):
        match = [
            pair
            for pair in pairs
            if abs(pair.lam - d) < 1e-8
            and min(
                np.linalg.norm(pair.x - np.eye(3)[i]),
                np.linalg.norm(pair.x + np.eye(3)[i]),
            )
            < 1e-6
        ]
        assert match, f"basis pair ({d}, e{i}) not found among {lams}"
        # e_i indeed solves the eigen equations exactly
        g = contract_gradient(T, np.eye(3)[i])
        assert np.allclose(g, d * np.eye(3)[i])


def test_count_bound():
    assert eigenpair_count_bound(3, 3) == 7
    assert eigenpair_count_bound(3, 1) == 1
    assert eigenpair_count_bound(4, 2) == 4
    with pytest.raises(DomainError):
        eigenpair_count_bound(2, 3)


def test_found_classes_within_bound():
    for seed in (0, 1):
        T = sample_goe(3, 3, seed=seed)
        pairs = find_real_eigenpairs(T, n_starts=250, tol=1e-10, seed=seed)
        assert len(pairs) <= eigenpair_count_bound(3, 3)


def test_all_starts_failing_raises():
    # max_iter-starved solve on a generic tensor: every start is discarded,
    # which is a numerical failure, not an empty result
    T = sample_goe(3, 4, seed=0)
    with pytest.raises(RootFindFailure):
        find_real_eigenpairs(T, n_starts=1, tol=1e-30, seed=0)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tol_must_be_positive_and_finite(tol):
    with pytest.raises(DomainError):
        find_real_eigenpairs(example_tensor(), n_starts=2, tol=tol)


def test_zero_tensor_every_start_is_an_eigenpair():
    # T = 0 solves T x^{p-1} = 0 x at every unit x, so each start converges
    # at once with lambda = 0 and residual 0 (its Jacobian is singular, but
    # no step is taken)
    pairs = find_real_eigenpairs(SymmetricTensor.zeros(3, 4), n_starts=5, seed=0)
    assert len(pairs) == 5
    assert all(pair.lam == 0 and pair.residual == 0 for pair in pairs)


def test_zero_eigenvalue_is_positive_zero_at_odd_p():
    # the odd-p class representative takes lam >= 0, so lam = 0 is +0.0
    # whatever the sign of x; -0.0 would print as "-0.0"
    pairs = find_real_eigenpairs(SymmetricTensor.zeros(3, 4), n_starts=5, seed=0)
    assert [math.copysign(1.0, pair.lam) for pair in pairs] == [1.0] * 5


# --------------------------------------- batched solver vs the one-start loop

def reference_gradient(tensor, x):
    out = tensor.to_dense()
    for _ in range(tensor.p - 1):
        out = out @ x
    return out


def reference_matrix(tensor, x):
    out = tensor.to_dense()
    for _ in range(tensor.p - 2):
        out = out @ x
    return out


def reference_newton(tensor, x0, tol, max_iter=200):
    """One start at a time: the loop the batched solver replaced, kept as its reference."""
    p, N = tensor.p, tensor.N
    x = np.asarray(x0, dtype=np.float64)
    x = x / np.linalg.norm(x)
    lam = float(x @ reference_gradient(tensor, x))
    for _ in range(max_iter):
        g = reference_gradient(tensor, x)
        F = np.empty(N + 1)
        F[:N] = g - lam * x
        F[N] = 0.5 * (x @ x - 1.0)
        res = np.linalg.norm(F[:N])
        if res < tol and abs(F[N]) < 0.5 * tol:
            x = x / np.linalg.norm(x)
            lam = float(x @ reference_gradient(tensor, x))
            res = float(np.linalg.norm(reference_gradient(tensor, x) - lam * x))
            if res < tol:
                return lam, x, res
        J = np.empty((N + 1, N + 1))
        J[:N, :N] = (p - 1) * reference_matrix(tensor, x) - lam * np.eye(N)
        J[:N, N] = -x
        J[N, :N] = x
        J[N, N] = 0.0
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1e6:
            return None
        x = x - step[:N]
        nrm = np.linalg.norm(x)
        if nrm == 0 or not np.isfinite(nrm):
            return None
        x = x / nrm
        lam = float(x @ reference_gradient(tensor, x))
    return None


def assert_same_bits(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None
    lam, x, res = got
    assert np.array([lam, res]).tobytes() == np.array(expected[::2]).tobytes()
    assert x.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("p, N, starts", [(3, 8, 50), (4, 10, 30), (3, 32, 16), (2, 16, 40), (5, 5, 40)])
def test_batched_newton_matches_one_start_loop(p, N, starts):
    for seed in (0, 1, 2):
        T = sample_goe(p, N, seed)
        x0 = np.random.default_rng(seed).normal(size=(starts, N))
        results = _newton_batch(T, x0, 1e-10)
        assert len(results) == starts
        assert any(result is not None for result in results)
        for row, got in zip(x0, results):
            assert_same_bits(got, reference_newton(T, row, 1e-10))


@pytest.mark.parametrize("p, N, starts, seed", [(3, 4, 30, 8), (2, 6, 20, 6)])
def test_batched_newton_matches_when_the_recheck_fails(p, N, starts, seed):
    # at tol = 3e-16 some starts pass the first convergence test but fail the
    # re-check on the unit sphere (start 10 here once, start 2 four times);
    # they step with the Jacobian at the renormalized x and the old F
    T = sample_goe(p, N, seed)
    x0 = np.random.default_rng(seed).normal(size=(starts, N))
    for row, got in zip(x0, _newton_batch(T, x0, 3e-16)):
        assert_same_bits(got, reference_newton(T, row, 3e-16))


def test_start_block_is_the_sequence_of_single_draws():
    rng = np.random.default_rng(11)
    single = np.array([rng.normal(size=7) for _ in range(9)])
    assert np.random.default_rng(11).normal(size=(9, 7)).tobytes() == single.tobytes()


@pytest.mark.parametrize("p, N", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_stacked_contractions_match_single_vectors(p, N):
    T = sample_goe(p, N, seed=p)
    X = np.random.default_rng(N).normal(size=(6, N))
    G = contract_gradient(T, X)
    M = contract_matrix(T, X)
    assert G.shape == (6, N) and M.shape == (6, N, N)
    for x, g, m in zip(X, G, M):
        assert g.tobytes() == contract_gradient(T, x).tobytes() == reference_gradient(T, x).tobytes()
        assert m.tobytes() == contract_matrix(T, x).tobytes() == reference_matrix(T, x).tobytes()
    # any leading stack shape
    G2 = contract_gradient(T, X.reshape(2, 3, N))
    assert G2.shape == (2, 3, N) and G2.tobytes() == G.tobytes()


def singular_start():
    """p = 2 tensor diag(0, 2, lam), lam the Rayleigh value at x = (0.6, 0.8, 0).

    At that x the Jacobian's third row is (lam - lam, 0, 0, -x_3) = 0, so the
    Newton solve there is exactly singular, while x is no eigenvector.
    """
    x = np.array([0.6, 0.8, 0.0])
    lam = float(x @ contract_gradient(from_dense(np.diag([0.0, 2.0, 0.0])), x))
    T = from_dense(np.diag([0.0, 2.0, lam]))
    J = np.zeros((4, 4))
    J[:3, :3] = T.to_dense() - lam * np.eye(3)
    J[:3, 3] = -x
    J[3, :3] = x
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, np.ones(4))
    return T, np.array([3.0, 4.0, 0.0])


def test_singular_jacobian_drops_only_its_row():
    T, bad = singular_start()
    x0 = np.random.default_rng(3).normal(size=(6, 3))
    x0[2] = bad
    results = _newton_batch(T, x0, 1e-10)
    assert results[2] is None
    assert all(results[i] is not None for i in (0, 1, 3, 4, 5))
    for row, got in zip(x0, results):
        assert_same_bits(got, reference_newton(T, row, 1e-10))


def test_all_jacobians_singular_raises(monkeypatch):
    T, bad = singular_start()

    class Starts:
        def normal(self, size):
            return np.tile(bad, (size[0], 1)) * np.arange(1.0, size[0] + 1)[:, None]

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Starts())
    with pytest.raises(RootFindFailure):
        find_real_eigenpairs(T, n_starts=4, seed=0)


# --------------------------------------------------------------- instantons

def test_instanton_frozen_examples():
    T = example_tensor()
    pair = Eigenpair(2.0, np.array([1.0, 0, 0]), 0.0)

    inst = instanton_from_eigenpair(T, pair, y=2.0)
    assert np.allclose(inst.phi, [1.0, 0, 0])
    assert inst.action == pytest.approx(1 / 6, abs=1e-12)

    inst16 = instanton_from_eigenpair(T, pair, y=16.0)
    assert np.allclose(inst16.phi, [8.0, 0, 0])
    assert inst16.action == pytest.approx(64 / 6, rel=1e-12)


def test_instanton_at_y_equal_lambda_is_the_eigenvector():
    T = sample_goe(3, 4, seed=13)
    pairs = find_real_eigenpairs(T, n_starts=100, tol=1e-10, seed=14)
    pair = pairs[0]
    inst = instanton_from_eigenpair(T, pair, y=pair.lam)
    assert np.allclose(inst.phi, pair.x, atol=1e-8)
    assert inst.phi @ inst.phi == pytest.approx(1.0, abs=1e-8)


def test_instanton_equation_of_motion():
    T = sample_goe(3, 5, seed=21)
    pairs = find_real_eigenpairs(T, n_starts=150, tol=1e-11, seed=22)
    for pair in pairs[:3]:
        if pair.lam == 0:
            continue
        y = 1.7 * pair.lam
        inst = instanton_from_eigenpair(T, pair, y)
        eom = np.linalg.norm(inst.phi - contract_gradient(T, inst.phi) / y)
        assert eom < 1e-8 * max(1.0, np.linalg.norm(inst.phi))


def test_instanton_sign_mismatch():
    T = example_tensor()
    pair = Eigenpair(2.0, np.array([1.0, 0, 0]), 0.0)
    with pytest.raises(SignMismatch):
        instanton_from_eigenpair(T, pair, y=-1.0)


# ---------------------------------------------------------------- exponents

def test_discontinuity_exponent_example():
    T = example_tensor()
    pairs = [Eigenpair(2.0, np.array([1.0, 0, 0]), 0.0)]
    assert discontinuity_exponent(T, 2.0, pairs=pairs) == pytest.approx(1 / 6)
    # exponent -> 0 as y -> 0+
    small = discontinuity_exponent(T, 1e-8, pairs=pairs)
    assert small < 1e-17


def test_discontinuity_exponent_sign_handling():
    T = example_tensor()
    pairs = [Eigenpair(2.0, np.array([1.0, 0, 0]), 0.0)]
    # odd p: the mirrored class (-2, -e1) matches negative y
    assert discontinuity_exponent(T, -2.0, pairs=pairs) == pytest.approx(1 / 6)


def test_discontinuity_exponent_requires_p3():
    M = from_dense(np.eye(2))
    with pytest.raises(DomainError):
        discontinuity_exponent(M, 1.0)


def test_discontinuity_exponent_no_pairs():
    T = example_tensor()
    with pytest.raises(NoMatchingPairs):
        discontinuity_exponent(T, 1.0, pairs=[])


def test_exponent_dominated_by_largest_eigenvalue():
    T = sample_goe(3, 4, seed=33)
    pairs = find_real_eigenpairs(T, n_starts=200, tol=1e-10, seed=34)
    lam_max = max(pair.lam for pair in pairs)
    y = 3.0 * lam_max
    expo = discontinuity_exponent(T, y, pairs=pairs)
    assert expo == pytest.approx((1 / 6) * (y / lam_max) ** 2, rel=1e-10)
