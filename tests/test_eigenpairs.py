import math

import numpy as np
import pytest

from tensorspectra import eigenpairs
from tensorspectra.eigenpairs import (
    Eigenpair,
    _canonical_sign,
    _jacobian,
    _merge_classes,
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


def _recorded_block_rows(monkeypatch):
    rows = []

    def recording(tensor, x):
        rows.append(len(x))
        return contract_matrix(tensor, x)

    monkeypatch.setattr(eigenpairs, "contract_matrix", recording)
    return rows


@pytest.mark.parametrize("p, N, starts", [(8, 2, 20), (4, 10, 30), (5, 5, 40), (6, 4, 30)])
def test_rayleigh_blocks_are_bitwise_n_row_blocks(monkeypatch, p, N, starts):
    # a block holds max(N, 2^16 / N^{p-1}) rows, one contraction where
    # N-row blocks made 3 to 10, and each row keeps its bits
    T = sample_goe(p, N, seed=N)
    x = np.random.default_rng(p).normal(size=(starts, N))
    ref = np.concatenate([contract_matrix(T, x[i : i + N]) for i in range(0, starts, N)])
    rows = _recorded_block_rows(monkeypatch)
    assert eigenpairs._rayleigh(T, x)[0].tobytes() == ref.tobytes()
    assert rows == [starts]


def test_rayleigh_blocks_stay_within_the_dense_array(monkeypatch):
    p, N = 4, 30
    T = sample_goe(p, N, seed=0)
    rows = _recorded_block_rows(monkeypatch)
    eigenpairs._rayleigh(T, np.random.default_rng(0).normal(size=(100, N)))
    assert sum(rows) == 100 and max(rows) * N ** (p - 1) <= T.to_dense().size


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
    # p = 3 with T_111 = 2, T_112 = T_122 = 1, T_222 = 0: at x = e1, M = T x
    # is [[2, 1], [1, 1]] and lam = 2, so the Jacobian [[2, 2, -1], [2, 0, 0],
    # [1, 0, 0]] is exactly singular while the residual (0, 1) is not zero
    data = np.zeros(4)
    _, rank, _ = multiset_table(3, 2)
    data[rank[(0, 0, 0)]] = 2.0
    data[rank[(0, 0, 1)]] = 1.0
    data[rank[(0, 1, 1)]] = 1.0
    T = SymmetricTensor(3, 2, data)

    class Starts:
        def normal(self, size):
            return np.tile([3.0, 0.0], (size[0], 1)) * np.arange(1.0, size[0] + 1)[:, None]

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Starts())
    assert _newton_batch(T, Starts().normal((4, 2)), 1e-10) == [None] * 4
    with pytest.raises(RootFindFailure):
        find_real_eigenpairs(T, n_starts=4, seed=0)


def test_jacobian_has_the_bits_of_the_dense_formula():
    # (p-1) M - lam * eye(N) subtracts lam * 0.0 off the diagonal: a -0.0
    # entry of M turns +0.0 where lam < 0 and stays where lam > 0, and a
    # non-finite lam fills the row's block with NaN
    p, N = 3, 4
    rng = np.random.default_rng(0)
    M = rng.normal(size=(7, N, N))
    M[:, 0, 1] = -0.0
    M[:, 1, 0] = 0.0
    M[:, 2, 2] = -0.0
    lam = np.array([-1.5, 2.0, -0.0, 0.0, np.nan, np.inf, -np.inf])
    x = rng.normal(size=(7, N))
    expected = np.empty((7, N + 1, N + 1))
    expected[:, :N, N] = -x
    expected[:, N, :N] = x
    expected[:, N, N] = 0.0
    T = sample_goe(p, N, seed=0)
    with np.errstate(invalid="ignore"):  # inf * 0.0
        expected[:, :N, :N] = (p - 1) * M - lam[:, None, None] * np.eye(N)
        got = _jacobian(T, M, lam, x, np.empty((7, N + 1, N + 1)))
    assert got.tobytes() == expected.tobytes()
    # no zero in M and a finite lam: the block is (p-1) M with lam off the diagonal
    M = rng.normal(size=(3, N, N))
    lam = np.array([-1.0, 0.5, 3.0])
    expected[:3, :N, :N] = (p - 1) * M - lam[:, None, None] * np.eye(N)
    expected[:3, :N, N] = -x[:3]
    expected[:3, N, :N] = x[:3]
    assert _jacobian(T, M, lam, x[:3], np.empty((3, N + 1, N + 1))).tobytes() == expected[:3].tobytes()


def test_newton_matches_one_start_loop_with_exact_zeros_and_negative_lambda():
    # diagonal tensors give M exact zeros off the diagonal, and their
    # negative entries give starts with lam < 0 (at p = 4 the classes keep
    # it): the Jacobian's signed zeros must match the dense formula's
    diag3 = diagonal_tensor([1.0, -2.0, 3.0, -0.5])
    data = np.zeros(math.comb(3 + 4 - 1, 4))
    _, rank, _ = multiset_table(4, 3)
    for i, d in enumerate([-1.0, 2.0, -3.0]):
        data[rank[(i,) * 4]] = d
    data[rank[(0, 0, 1, 1)]] = -0.25
    diag4 = SymmetricTensor(4, 3, data)
    for T, starts in ((diag3, 40), (diag4, 40)):
        x0 = np.random.default_rng(T.p).normal(size=(starts, T.N))
        results = _newton_batch(T, x0, 1e-10)
        assert any(result is not None and result[0] < 0 for result in results)
        for row, got in zip(x0, results):
            assert_same_bits(got, reference_newton(T, row, 1e-10))
        converged = [result for result in results if result is not None]
        assert_same_classes(
            _merge_classes(converged, T.p, T.N, 1e-10), reference_clusters(converged, T.p, 1e-10)
        )


# ------------------------------------------- class merge vs the per-pair loop

def reference_clusters(results, p, tol):
    """The per-pair merge loop that _merge_classes replaced, kept as its
    bitwise reference: up to two np.linalg.norm calls per class and start."""
    clusters = []
    for lam, x, res in results:
        lam, x = _canonical_sign(lam, x, p)
        merged = False
        for cluster in clusters:
            xdist = min(np.linalg.norm(x - cluster[1]), np.linalg.norm(x + cluster[1]))
            exact = abs(lam - cluster[0]) < 10 * tol and xdist < 1e-6
            near = abs(lam - cluster[0]) < max(1e3 * tol, 1e-8) and xdist < 2e-2
            if exact or near:
                if res < cluster[2]:
                    cluster[0], cluster[1], cluster[2] = lam, x, res
                if near and not exact:
                    cluster[3] = True
                merged = True
                break
        if not merged:
            clusters.append([lam, x, res, False])
    return clusters


def assert_same_classes(got, expected):
    assert len(got) == len(expected)
    for (lam, x, res, deg), (lam_r, x_r, res_r, deg_r) in zip(got, expected):
        assert np.array([lam, res]).tobytes() == np.array([lam_r, res_r]).tobytes()
        assert x.tobytes() == x_r.tobytes()
        assert deg == deg_r


def converged_results(T, starts, seed, tol=1e-10):
    x0 = np.random.default_rng(seed).normal(size=(starts, T.N))
    return [result for result in _newton_batch(T, x0, tol) if result is not None]


@pytest.mark.parametrize(
    "p, N, starts, seeds",
    [(3, 8, 50, range(6)), (4, 10, 30, range(3)), (3, 32, 16, range(2)), (5, 5, 40, range(3))],
)
def test_merge_matches_per_pair_loop(p, N, starts, seeds):
    for seed in seeds:
        results = converged_results(sample_goe(p, N, seed), starts, seed)
        assert_same_classes(_merge_classes(results, p, N, 1e-10), reference_clusters(results, p, 1e-10))


def test_merge_matches_per_pair_loop_on_zero_and_degenerate_tensors():
    # the zero tensor: every start is its own class (5 of them)
    results = converged_results(SymmetricTensor.zeros(3, 4), 5, 0)
    classes = _merge_classes(results, 3, 4, 1e-10)
    assert len(classes) == 5
    assert_same_classes(classes, reference_clusters(results, 3, 1e-10))
    # the example tensor: near members flag its class degenerate
    results = converged_results(example_tensor(), 100, 1)
    classes = _merge_classes(results, 3, 3, 1e-10)
    assert [c[3] for c in classes] == [True]
    assert_same_classes(classes, reference_clusters(results, 3, 1e-10))


def test_merge_a_later_member_with_a_smaller_residual_replaces_the_representative():
    e = np.eye(3)
    tilt = np.array([1.0, 1e-8, 0.0]) / math.hypot(1.0, 1e-8)
    wander = np.array([1.0, 1e-3, 0.0]) / math.hypot(1.0, 1e-3)
    results = [
        (2.0, e[0], 5e-11),
        (-1.0, -e[1], 1e-11),  # odd p: the class (1, e2)
        (2.0 + 1e-12, tilt, 2e-12),  # exact member with a better residual
        (2.0 - 5e-10, wander, 1e-11),  # near member: degenerate, kept out
        (1.0, e[1], 3e-11),  # same class as the second, worse residual
        (-3.0, e[2], 0.0),
    ]
    expected = reference_clusters(results, 3, 1e-10)
    assert [(c[0], c[2], c[3]) for c in expected] == [
        (2.0 + 1e-12, 2e-12, True), (1.0, 1e-11, False), (3.0, 0.0, False)
    ]
    assert expected[0][1].tobytes() == tilt.tobytes()
    assert_same_classes(_merge_classes(results, 3, 3, 1e-10), expected)
    # a result near two classes joins the first one found
    results = [(2.0, e[0], 3e-11), (2.0 + 1.5e-7, e[0], 3e-11), (2.0 + 0.75e-7, e[0], 1e-11)]
    expected = reference_clusters(results, 3, 1e-10)
    assert [(c[0], c[2], c[3]) for c in expected] == [
        (2.0 + 0.75e-7, 1e-11, True), (2.0 + 1.5e-7, 3e-11, False)
    ]
    assert_same_classes(_merge_classes(results, 3, 3, 1e-10), expected)


# ------------------------------------------------------ p = 2: the matrix route

@pytest.mark.parametrize("seed", range(4))
def test_p2_returns_every_matrix_eigenpair(seed):
    T = sample_goe(2, 16, seed)
    pairs = find_real_eigenpairs(T, n_starts=40, tol=1e-10, seed=seed)
    w = np.linalg.eigvalsh(T.to_dense())[::-1]
    assert len(pairs) == 16
    # relative to the matrix norm: a Rayleigh value is good to ~eps ||T||,
    # so near zero an eigenvalue's own scale would ask for more
    scale = np.max(np.abs(w))
    for pair, expected in zip(pairs, w):
        assert abs(pair.lam - expected) <= 1e-12 * scale
        assert pair.residual <= 1e-10
        assert abs(pair.x @ pair.x - 1) < 1e-12
        assert pair.x[np.nonzero(pair.x)[0][0]] > 0
        assert not pair.degenerate
        residual = np.linalg.norm(contract_gradient(T, pair.x) - pair.lam * pair.x)
        assert residual <= 1e-10


def test_p2_flags_repeated_eigenvalues_degenerate():
    pairs = find_real_eigenpairs(from_dense(np.diag([1.0, 2.0, 1.0, -1.0])), n_starts=1)
    assert [(pair.lam, pair.degenerate) for pair in pairs] == [
        (2.0, False), (1.0, True), (1.0, True), (-1.0, False)
    ]
    pairs = find_real_eigenpairs(SymmetricTensor.zeros(2, 5), n_starts=1)
    assert len(pairs) == 5
    assert all(pair.lam == 0 and pair.residual == 0 and pair.degenerate for pair in pairs)


def test_p2_with_an_unreachable_tol_raises():
    with pytest.raises(RootFindFailure):
        find_real_eigenpairs(sample_goe(2, 6, seed=0), n_starts=1, tol=1e-30)


def test_p2_raises_when_only_some_eigenvectors_are_certified():
    # two rotated 2 x 2 blocks: eigh's residual floor is ~5e-10 on the block
    # of norm 3e6 and ~1e-16 on the block of norm 1
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    A = np.zeros((4, 4))
    A[:2, :2] = R @ np.diag([3e6, -2e6]) @ R.T
    A[2:, 2:] = R @ np.diag([1.0, 0.5]) @ R.T
    T = from_dense(A)
    pairs = find_real_eigenpairs(T, tol=1e-8)
    assert len(pairs) == 4
    assert all(pair.residual < 1e-8 for pair in pairs)
    # at tol = 1e-10 Newton certifies the two small eigenvectors only
    _, v = np.linalg.eigh(A)
    assert [r is None for r in _newton_batch(T, v.T, 1e-10)] == [True, False, False, True]
    with pytest.raises(RootFindFailure, match="2 of the 4 eigenvectors"):
        find_real_eigenpairs(T, tol=1e-10)


# ------------------------------------------------ N = 2: the binary-form oracle

def binary_form_directions(T):
    """Real eigenvectors at N = 2, one unit x per class, as the real roots of
    x2 (T x^{p-1})_1 - x1 (T x^{p-1})_2: at x = (t, 1) a polynomial in t of
    degree p, solved by np.roots; a zero t^p coefficient adds x = e1."""
    p = T.p
    # (T x^{p-1})_a at x = (t, 1): the t^k coefficient is C(p-1, k) T_{a 1^k 2^{p-1-k}}
    g = [
        [math.comb(p - 1, k) * T.component(a, *([0] * k + [1] * (p - 1 - k))) for k in range(p)]
        for a in range(2)
    ]
    f = np.zeros(p + 1)  # ascending powers of t
    f[:p] += g[0]
    f[1:] -= g[1]
    roots = np.roots(f[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1, np.abs(roots))].real
    xs = [np.array([t, 1.0]) / math.hypot(t, 1.0) for t in real]
    if f[p] == 0:
        xs.append(np.array([1.0, 0.0]))
    return xs


def unmatched(pairs, xs):
    """Eigenpairs whose x is none of the directions xs, up to sign."""
    return [
        pair for pair in pairs
        if min(min(np.linalg.norm(pair.x - x), np.linalg.norm(pair.x + x)) for x in xs) >= 1e-6
    ]


def test_binary_form_oracle_on_a_diagonal_tensor():
    # T x^3 = x1^3 + x2^3 has eigenvectors e1, e2 and (1, 1)/sqrt(2)
    xs = binary_form_directions(diagonal_tensor([1.0, 1.0]))
    assert len(xs) == 3
    expected = (np.eye(2)[0], np.eye(2)[1], np.ones(2) / math.sqrt(2))
    assert not unmatched([Eigenpair(0.0, x, 0.0) for x in expected], xs)


def test_newton_finds_every_class_at_n2_p3():
    for seed in range(200):
        T = sample_goe(3, 2, seed)
        xs = binary_form_directions(T)
        pairs = find_real_eigenpairs(T, n_starts=20, seed=seed)
        assert len(pairs) == len(xs), seed
        assert not unmatched(pairs, xs), seed


@pytest.mark.parametrize("p", range(4, 9))
def test_newton_classes_are_binary_form_roots_at_n2(p):
    # Newton from 20 starts can miss classes at larger p (seeds 0-49 here),
    # but every class it returns must be a root of the binary form
    for seed in range(50):
        T = sample_goe(p, 2, seed)
        xs = binary_form_directions(T)
        pairs = find_real_eigenpairs(T, n_starts=20, seed=seed)
        assert len(pairs) <= len(xs), seed
        assert not unmatched(pairs, xs), seed


@pytest.mark.parametrize("p", range(3, 7))
def test_mean_real_eigenvector_count_at_n2(p):
    # Draisma & Horobet (2016): for the orthogonally invariant Gaussian
    # ensemble the mean number of real eigenvectors (up to sign) at N = 2 is
    # sqrt(3p - 2)
    counts = np.array([len(binary_form_directions(sample_goe(p, 2, seed))) for seed in range(1000)])
    stderr = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - math.sqrt(3 * p - 2)) < 4 * stderr


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
