import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorspectra.errors import DomainError, NearSingular
from tensorspectra.tensors import (
    SpikeSpec,
    SymmetricTensor,
    add_spike,
    contract_full,
    contract_gradient,
    from_dense,
    full_index_map,
    load_tensor,
    matrix_resolvent,
    multiset_table,
    sample_goe,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)


# ---------------------------------------------------------------- oracles

def brute_force_full(tensor, x):
    """Sum over all N^p orderings, independent of the packed contraction."""
    total = 0.0
    for idx in itertools.product(range(tensor.N), repeat=tensor.p):
        coeff = tensor.component(*idx)
        for a in idx:
            coeff *= x[a]
        total += coeff
    return total


def brute_force_gradient(tensor, x):
    out = np.zeros(tensor.N)
    for idx in itertools.product(range(tensor.N), repeat=tensor.p):
        val = tensor.component(*idx)
        for a in idx[1:]:
            val *= x[a]
        out[idx[0]] += val
    return out


def example_tensor():
    """T x^3 = 2 x1^3 + 3 x1 x2^2 + 3 x1 x3^2 (order 3, dimension 3)."""
    t = SymmetricTensor.zeros(3, 3)
    data = t.data.copy()
    _, rank, _ = multiset_table(3, 3)
    data[rank[(0, 0, 0)]] = 2.0
    data[rank[(0, 1, 1)]] = 1.0
    data[rank[(0, 2, 2)]] = 1.0
    return SymmetricTensor(3, 3, data)


# ---------------------------------------------------------------- storage

def test_packed_length_and_lex_order():
    tuples, rank, counts = multiset_table(3, 4)
    assert len(tuples) == math.comb(4 + 3 - 1, 3)
    assert rank[(0, 0, 0)] == 0
    assert np.all(np.diff([rank[tuple(t)] for t in tuples.tolist()]) == 1)
    # multiplicities: all distinct -> p!, all equal -> 1
    assert counts[rank[(0, 1, 2)]] == 6
    assert counts[rank[(1, 1, 1)]] == 1
    assert counts[rank[(0, 0, 2)]] == 3


def test_component_is_permutation_invariant():
    T = sample_goe(3, 4, seed=11)
    for idx in [(0, 1, 2), (3, 1, 1), (2, 2, 0)]:
        vals = {T.component(*perm) for perm in itertools.permutations(idx)}
        assert len(vals) == 1


def test_dense_round_trip():
    T = sample_goe(4, 3, seed=5)
    back = from_dense(T.to_dense())
    assert np.array_equal(back.data, T.data)
    dense = T.to_dense()
    assert dense.shape == (3, 3, 3, 3)
    assert dense[0, 1, 2, 1] == dense[2, 1, 1, 0]


@pytest.mark.parametrize("p, N", [(2, 1), (2, 16), (3, 8), (3, 64), (4, 12), (5, 8), (6, 4)])
def test_index_tables_match_brute_force(p, N):
    tuples, rank, counts = multiset_table(p, N)
    expected = list(itertools.combinations_with_replacement(range(N), p))
    assert tuples.dtype == np.int64 and tuples.tolist() == [list(t) for t in expected]
    assert rank == {t: i for i, t in enumerate(expected)}
    assert all(type(i) is int for t in list(rank)[:3] for i in t)
    multiplicity = [math.prod(math.factorial(t.count(a)) for a in set(t)) for t in expected]
    assert counts.dtype == np.int64
    assert counts.tolist() == [math.factorial(p) // m for m in multiplicity]
    fm = full_index_map(p, N)
    assert fm.dtype == np.int64
    assert fm.tolist() == [rank[tuple(sorted(idx))] for idx in itertools.product(range(N), repeat=p)]


def test_full_index_map_consistency():
    fm = full_index_map(2, 3)
    _, rank, _ = multiset_table(2, 3)
    assert fm[0 * 3 + 1] == rank[(0, 1)]
    assert fm[2 * 3 + 0] == rank[(0, 2)]


# ---------------------------------------------------------------- sampling

def test_sampling_determinism():
    a = sample_goe(3, 5, seed=42)
    b = sample_goe(3, 5, seed=42)
    assert np.array_equal(a.data, b.data)
    c = sample_goe(3, 5, seed=43)
    assert not np.array_equal(a.data, c.data)


@pytest.mark.parametrize("p, N", [(3, 12), (3, 32), (3, 64), (4, 12), (5, 8)])
def test_sampling_bits_match_the_direct_formulas(p, N):
    # the cached per-(p, N) scale and the gather must not move a single bit
    _, _, counts = multiset_table(p, N)
    for seed in (0, 1, 7):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        data = rng.standard_normal(len(counts)) * np.sqrt(p / (float(N) ** (p - 1) * counts))
        dense = data[full_index_map(p, N)].reshape((N,) * p)
        T = sample_goe(p, N, seed)
        assert T.data.tobytes() == data.tobytes()
        assert T.to_dense().tobytes() == dense.tobytes()


def test_sampling_variances_match_multiplicity_classes():
    # p=3, N=6: var(T_mu) = p/(N^{p-1} c(mu)); >= 1e5 samples, 5 sigma bands
    p, N, M = 3, 6, 100_000
    tuples, rank, counts = multiset_table(p, N)
    samples = np.empty((M, len(tuples)))
    for i in range(M):
        samples[i] = sample_goe(p, N, seed=1_000 + i).data
    var = samples.var(axis=0, ddof=1)
    expected = p / (float(N) ** (p - 1) * counts)
    rel_err = np.abs(var - expected) / expected
    # stderr of a variance estimate is sigma^2 sqrt(2/(M-1))
    band = 5 * math.sqrt(2 / (M - 1))
    assert np.all(rel_err < band), rel_err.max()
    assert abs(samples.mean()) < 5 / math.sqrt(M * len(tuples))


def test_goe_specialization_p2():
    _, rank, counts = multiset_table(2, 8)
    sigma2 = 2 / (8.0 * counts)
    assert sigma2[rank[(0, 1)]] == pytest.approx(1 / 8)   # off-diagonal
    assert sigma2[rank[(3, 3)]] == pytest.approx(2 / 8)   # diagonal


def test_variance_frozen_examples():
    _, rank, counts = multiset_table(3, 10)
    var = 3 / (100.0 * counts)
    assert var[rank[(0, 1, 2)]] == pytest.approx(0.005)
    assert var[rank[(0, 0, 0)]] == pytest.approx(0.03)


# ------------------------------------------------------------- contraction

def test_example_tensor_gradient():
    T = example_tensor()
    x = np.array([1.0, 0.0, 0.0])
    assert np.allclose(contract_gradient(T, x), [2.0, 0.0, 0.0])
    # eigen-relation T x^2 = 2 x
    assert contract_full(T, x) == pytest.approx(2.0)


def test_example_tensor_full_value():
    T = example_tensor()
    assert contract_full(T, np.array([1.0, 1.0, 0.0])) == pytest.approx(5.0)


def test_zero_tensor_and_zero_vector():
    T = SymmetricTensor.zeros(3, 4)
    assert np.allclose(contract_gradient(T, np.ones(4)), 0.0)
    T2 = sample_goe(3, 4, seed=3)
    assert contract_full(T2, np.zeros(4)) == 0.0


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=4),
    N=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_contractions_match_brute_force(p, N, seed):
    T = sample_goe(p, N, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=N)
    scale = max(1.0, abs(contract_full(T, x)))
    assert abs(contract_full(T, x) - brute_force_full(T, x)) < 1e-12 * scale
    assert np.allclose(contract_gradient(T, x), brute_force_gradient(T, x), atol=1e-12)


def test_euler_identity():
    rng = np.random.default_rng(0)
    for p, N in [(2, 5), (3, 6), (4, 4), (5, 3)]:
        T = sample_goe(p, N, seed=p * 100 + N)
        x = rng.normal(size=N)
        g = contract_gradient(T, x)
        full = contract_full(T, x)
        assert abs(x @ g - full) < 1e-12 * max(1.0, abs(full))


def test_complex_vector_contraction():
    T = example_tensor()
    x = np.array([1.0, 1j, 1.0j])  # the degenerate complex direction
    val = contract_full(T, x)
    # 2 x1^3 + 3 x1 x2^2 + 3 x1 x3^2 with x = (1, i, i) -> 2 - 3 - 3
    assert val == pytest.approx(-4.0)


def test_dimension_mismatch():
    T = sample_goe(3, 4, seed=0)
    with pytest.raises(DomainError):
        contract_gradient(T, np.ones(5))


# ------------------------------------------------------------------ spikes

def test_spike_zero_b_returns_same_tensor():
    T = sample_goe(3, 4, seed=9)
    spec = SpikeSpec(0.0, np.array([1.0, 0, 0, 0]))
    assert add_spike(T, spec) is T


def test_spike_frozen_components():
    T0 = SymmetricTensor.zeros(2, 1)
    spiked = add_spike(T0, SpikeSpec(1.0, np.array([1.0])))
    assert spiked.component(0, 0) == pytest.approx(1.0)

    T1 = SymmetricTensor.zeros(3, 4)
    e1 = np.array([1.0, 0, 0, 0])
    spiked = add_spike(T1, SpikeSpec(2.0, e1))
    assert spiked.component(0, 0, 0) == pytest.approx(1.0)  # 2 * 4^{-1/2}
    others = spiked.data.copy()
    _, rank, _ = multiset_table(3, 4)
    others[rank[(0, 0, 0)]] = 0.0
    assert np.all(others == 0.0)


def test_spike_only_contraction_closed_form():
    # T = spike only: T x^p = b N^{1-p/2} (v.x)^p exactly
    rng = np.random.default_rng(4)
    v = rng.normal(size=5)
    v /= np.linalg.norm(v)
    spec = SpikeSpec(1.7, v)
    T = add_spike(SymmetricTensor.zeros(3, 5), spec)
    x = rng.normal(size=5)
    expected = 1.7 * 5 ** (1 - 3 / 2) * (v @ x) ** 3
    assert contract_full(T, x) == pytest.approx(expected, rel=1e-12)


def test_spike_requires_unit_vector():
    with pytest.raises(DomainError):
        SpikeSpec(1.0, np.array([1.0, 1.0]))


# ---------------------------------------------------------------- resolvent

def test_matrix_resolvent_frozen_values():
    ident = from_dense(np.eye(3))
    assert matrix_resolvent(ident, 2.0) == pytest.approx(1.0)

    diag = from_dense(np.diag([1.0, -1.0]))
    assert matrix_resolvent(diag, 3.0) == pytest.approx(0.375)

    offdiag = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert matrix_resolvent(offdiag, 2.0) == pytest.approx(2 / 3)


def test_matrix_resolvent_matches_inverse_trace():
    T = sample_goe(2, 7, seed=3)
    for w in (3.0, 0.4 + 0.2j, -1.5j):
        expected = np.trace(np.linalg.inv(w * np.eye(7) - T.to_dense())) / 7
        assert abs(matrix_resolvent(T, w) - expected) < 1e-13


def test_matrix_resolvent_near_singular():
    diag = from_dense(np.diag([1.0, 2.0]))
    with pytest.raises(NearSingular):
        matrix_resolvent(diag, 1.0 + 1e-15)


def test_matrix_resolvent_requires_p2():
    with pytest.raises(DomainError):
        matrix_resolvent(sample_goe(3, 3, seed=0), 2.0)


# ------------------------------------------------------------ serialization

def test_serialization_round_trip(tmp_path):
    T = sample_goe(3, 5, seed=77)
    path = tmp_path / "tensor.tsp"
    save_tensor(T, path)
    back = load_tensor(path)
    assert back == T
    assert back.seed == 77


def test_serialization_wire_format():
    T = sample_goe(2, 2, seed=1)
    blob = tensor_to_bytes(T)
    header, payload = blob.split(b"\n", 1)
    import json

    meta = json.loads(header)
    assert meta == {"N": 2, "layout": "packed-multiset-lex", "p": 2, "seed": 1}
    assert len(payload) == 8 * math.comb(2 + 2 - 1, 2)
    vals = np.frombuffer(payload, dtype="<f8")
    assert np.array_equal(vals, T.data)


def test_serialization_rejects_unknown_layout():
    blob = b'{"p": 2, "N": 1, "layout": "other"}\n' + b"\x00" * 8
    with pytest.raises(DomainError):
        tensor_from_bytes(blob)


def test_tensor_is_immutable():
    T = sample_goe(2, 3, seed=0)
    with pytest.raises(ValueError):
        T.data[0] = 1.0
