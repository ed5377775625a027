"""Real symmetric tensors in packed multiset storage.

A symmetric order-p tensor over R^N keeps one value per nondecreasing
index tuple a_1 <= ... <= a_p (C(N+p-1, p) values instead of N^p).  The
Gaussian ensemble here generalizes the GOE: the weight couples all N^p
index tuples, so a packed component with index multiset mu is an
independent centered Gaussian with variance p / (N^{p-1} * c(mu)), where
c(mu) = p!/prod(multiplicities!) counts the distinct orderings of mu.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NearSingular

__all__ = [
    "SymmetricTensor",
    "SpikeSpec",
    "multiset_table",
    "full_index_map",
    "sample_goe",
    "from_dense",
    "contract_gradient",
    "contract_full",
    "contract_matrix",
    "add_spike",
    "matrix_resolvent",
    "save_tensor",
    "load_tensor",
    "tensor_to_bytes",
    "tensor_from_bytes",
]

LAYOUT = "packed-multiset-lex"


@lru_cache(maxsize=None)
def multiset_table(p: int, N: int):
    """Lexicographic table of nondecreasing index tuples and their data.

    Returns (tuples, rank, counts): `tuples` is an (M, p) int array in
    lexicographic order, `rank` maps tuple -> packed position, and
    `counts[i]` is the number of distinct orderings c(mu) of tuples[i].
    """
    M = math.comb(N + p - 1, p)
    flat = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(N), p))
    tuples = np.fromiter(flat, dtype=np.int64, count=M * p).reshape(M, p)
    rank = dict(zip(itertools.combinations_with_replacement(range(N), p), range(M)))
    # c(mu) of the first j+1 slots is c(mu) of the first j times (j+1) over
    # the (j+1)th slot's position in its run of equal indices; exact at each step
    run = np.ones(M, dtype=np.int64)
    counts = np.ones(M, dtype=np.int64)
    for j in range(1, p):
        run = np.where(tuples[:, j] == tuples[:, j - 1], run + 1, 1)
        counts = counts * (j + 1) // run
    return tuples, rank, counts


@lru_cache(maxsize=None)
def full_index_map(p: int, N: int) -> np.ndarray:
    """Flat map from every one of the N^p index tuples to its packed rank.

    dense.flat[k] = packed[full_index_map[k]] reconstructs the dense tensor;
    brute-force oracles iterate it to visit all orderings.
    """
    tuples, _, _ = multiset_table(p, N)
    shape = (N,) * p
    # rank of each sorted tuple, at its flat position
    rank_at = np.empty(N**p, dtype=np.int64)
    rank_at[np.ravel_multi_index(tuples.T, shape)] = np.arange(len(tuples))
    every = np.indices(shape, dtype=np.min_scalar_type(N - 1)).reshape(p, -1)
    every.sort(axis=0)
    return rank_at[np.ravel_multi_index(every, shape)]


@lru_cache(maxsize=None)
def _goe_scale(p: int, N: int) -> np.ndarray:
    """Read-only standard deviations sqrt(p / (N^{p-1} c(mu))) of the packed components."""
    _, _, counts = multiset_table(p, N)
    scale = np.sqrt(p / (float(N) ** (p - 1) * counts))
    scale.setflags(write=False)
    return scale


class SymmetricTensor:
    """Order-p symmetric tensor over R^N, immutable after construction."""

    __slots__ = ("p", "N", "data", "seed", "_dense")

    def __init__(self, p: int, N: int, data, seed=None):
        if p < 2 or N < 1:
            raise DomainError(f"need p >= 2 and N >= 1, got p={p}, N={N}")
        self.p = int(p)
        self.N = int(N)
        arr = np.ascontiguousarray(data, dtype=np.float64)
        expected = math.comb(N + p - 1, p)
        if arr.shape != (expected,):
            raise DomainError(
                f"packed data must have length C(N+p-1,p)={expected}, got {arr.shape}"
            )
        arr.setflags(write=False)
        self.data = arr
        self.seed = seed
        self._dense = None

    @classmethod
    def zeros(cls, p: int, N: int) -> "SymmetricTensor":
        return cls(p, N, np.zeros(math.comb(N + p - 1, p)))

    def component(self, *indices) -> float:
        """Logical component T_{a_1...a_p}; order of indices is irrelevant."""
        if len(indices) != self.p:
            raise DomainError(f"expected {self.p} indices")
        _, rank, _ = multiset_table(self.p, self.N)
        return float(self.data[rank[tuple(sorted(indices))]])

    def to_dense(self) -> np.ndarray:
        """Dense N^p array (cached); convenient for einsum contractions."""
        if self._dense is None:
            dense = self.data.take(full_index_map(self.p, self.N))
            dense = dense.reshape((self.N,) * self.p)
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricTensor)
            and self.p == other.p
            and self.N == other.N
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"SymmetricTensor(p={self.p}, N={self.N}, nnz={self.data.size})"


def from_dense(dense) -> SymmetricTensor:
    """Packs a dense symmetric array; symmetry itself is not re-checked."""
    dense = np.asarray(dense, dtype=np.float64)
    p = dense.ndim
    N = dense.shape[0]
    if dense.shape != (N,) * p:
        raise DomainError("dense tensor must be hypercubic")
    tuples, _, _ = multiset_table(p, N)
    data = dense[tuple(tuples.T)]
    return SymmetricTensor(p, N, data)


def sample_goe(p: int, N: int, seed: int) -> SymmetricTensor:
    """Draw one tensor from the Gaussian ensemble.

    Packed components are independent centered Gaussians with variance
    p/(N^{p-1} c(mu)); equivalently the full-tuple covariance is the
    symmetrized propagator (p/N^{p-1}) (1/p!) sum_sigma prod delta.
    Deterministic in (p, N, seed) via a counter-based Philox stream.
    """
    scale = _goe_scale(p, N)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    data = rng.standard_normal(len(scale))
    data *= scale
    return SymmetricTensor(p, N, data, seed=seed)


@dataclass(frozen=True)
class SpikeSpec:
    """Rank-one signal b * v^{otimes p} / N^{p/2-1} with unit v and SNR b."""

    b: float
    v: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.v, dtype=np.float64)
        if abs(v @ v - 1.0) >= 1e-12:
            raise DomainError("spike direction must be a unit vector (v.v = 1)")
        if self.b < 0:
            raise DomainError("signal-to-noise ratio b must be >= 0")
        object.__setattr__(self, "v", v)


def add_spike(tensor: SymmetricTensor, spec: SpikeSpec) -> SymmetricTensor:
    """Componentwise sum T + b N^{1-p/2} v^{otimes p}, symmetric by construction."""
    if len(spec.v) != tensor.N:
        raise DomainError("spike dimension mismatch")
    if spec.b == 0.0:
        return tensor
    tuples, _, _ = multiset_table(tensor.p, tensor.N)
    spike = spec.b * float(tensor.N) ** (1 - tensor.p / 2) * np.prod(spec.v[tuples], axis=1)
    return SymmetricTensor(tensor.p, tensor.N, tensor.data + spike)


def _check_vector(tensor, x):
    x = np.asarray(x)
    if x.ndim < 1 or x.shape[-1] != tensor.N:
        raise DomainError(f"vector must have length N={tensor.N}, got shape {x.shape}")
    return x


def _contract(tensor, x, k):
    """Contract the last k slots of the cached dense array with x.

    x is one vector or a (..., N) stack, whose axes lead the result.  Each
    slot is one matmul against the dense array itself, never a copy, so a
    row of a stack gives the same bits as the same vector alone.
    """
    x = _check_vector(tensor, x)
    stack = x.shape[:-1]
    out = tensor.to_dense()
    for i in range(k):
        col = x.reshape(stack + (1,) * (tensor.p - 2 - i) + (tensor.N, 1))
        out = np.matmul(out, col)[..., 0]
    if not k:  # the dense array itself, as a read-only view per stack row
        return np.broadcast_to(out, stack + out.shape)
    return out


def contract_gradient(tensor: SymmetricTensor, x) -> np.ndarray:
    """(T x^{p-1})_a = sum T_{a b...} x_b ... x_z over the other p-1 slots.

    x may be a (..., N) stack of vectors; the result is then (..., N).
    """
    return _contract(tensor, x, tensor.p - 1)


def contract_full(tensor: SymmetricTensor, x) -> float | complex:
    """Full contraction T x^p; equals x . (T x^{p-1}) (Euler identity)."""
    x = _check_vector(tensor, x)
    if x.ndim != 1:
        raise DomainError(f"contract_full takes one vector, got shape {x.shape}")
    return contract_gradient(tensor, x) @ x


def contract_matrix(tensor: SymmetricTensor, x) -> np.ndarray:
    """(T x^{p-2})_{ab}: contract all but two slots; Jacobian building block.

    x may be a (..., N) stack of vectors; the result is then (..., N, N).
    """
    return _contract(tensor, x, tensor.p - 2)


def matrix_resolvent(tensor: SymmetricTensor, w: complex) -> complex:
    """(1/N) tr (w - T)^{-1} = mean 1/(w - lambda) over the eigenvalues of T, for p = 2.

    w - T is normal, so its condition number is max|w - lambda| / min|w - lambda|;
    NearSingular is raised when it exceeds 1e13.
    """
    if tensor.p != 2:
        raise DomainError("matrix_resolvent requires an order-2 tensor")
    w = complex(w)
    gaps = w - np.linalg.eigvalsh(tensor.to_dense())
    dist = np.abs(gaps)
    cond = dist.max() / dist.min() if dist.min() > 0 else math.inf
    if not cond <= 1e13:
        raise NearSingular(f"w - T is ill-conditioned (cond ~ {cond:.3e})", condition=cond)
    return complex(np.mean(1 / gaps))


# ------------------------------------------------------------ serialization
#
# File format: one JSON header line {p, N, seed?, layout} terminated by a
# newline, followed by the packed components as little-endian float64 in
# lexicographic multiset order.

def tensor_to_bytes(tensor: SymmetricTensor) -> bytes:
    header = {"p": tensor.p, "N": tensor.N, "layout": LAYOUT}
    if tensor.seed is not None:
        header["seed"] = int(tensor.seed)
    return json.dumps(header, sort_keys=True).encode() + b"\n" + tensor.data.astype("<f8").tobytes()


def tensor_from_bytes(blob: bytes) -> SymmetricTensor:
    """Parses the file format above; anything else raises DomainError."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise DomainError("not a tensor file: no header line")
    try:
        header = json.loads(blob[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise DomainError("not a tensor file: the header line is not JSON") from None
    if not isinstance(header, dict):
        raise DomainError("not a tensor file: the header line is not a JSON object")
    if header.get("layout") != LAYOUT:
        raise DomainError(f"unsupported layout {header.get('layout')!r}")
    p, N = header.get("p"), header.get("N")
    if type(p) is not int or type(N) is not int:
        raise DomainError(f"header needs integer p and N, got p={p!r}, N={N!r}")
    payload = blob[newline + 1 :]
    if len(payload) % 8:
        raise DomainError(f"truncated tensor file: {len(payload)} data bytes is not a whole number of float64")
    data = np.frombuffer(payload, dtype="<f8")
    return SymmetricTensor(p, N, data, seed=header.get("seed"))


def save_tensor(tensor: SymmetricTensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(tensor))


def load_tensor(path) -> SymmetricTensor:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read tensor file {path}: {exc.strerror}") from None
    return tensor_from_bytes(blob)
