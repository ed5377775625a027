"""Combinatorial maps and the trace invariants they index.

A p-valent combinatorial map is a finite set of half-edges with a
successor permutation (cycles = vertices, all of length p) and a
fixed-point-free pairing involution (the edges).  Rooting marks one
half-edge.  Connected rooted maps with n vertices index the degree-n
balanced invariant I_n(T): one full tensor contraction per vertex,
indices identified along edges, each rooted class counted with weight 1.

The exact Gaussian expectation of I_n/N is computed by Wick pairing with
the symmetrized propagator (p/N^{p-1}) (1/p!) sum_sigma prod delta: each
(vertex matching, sigma assignment) closes the half-edge diagram into
loops, and every loop contributes one free index sum, i.e. a factor N.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, DomainError
from .tensors import SymmetricTensor, sample_goe

__all__ = [
    "CombinatorialMap",
    "InvariantEstimate",
    "ENUMERATION_CAP",
    "enumerate_rooted_maps",
    "trace_invariant",
    "balanced_invariant",
    "wick_expectation",
    "mc_expected_invariant",
    "map_to_json",
    "map_from_json",
]

# Enumeration feasibility cap on the number of half-edges n*p.
ENUMERATION_CAP = 12

_SYMBOLS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Contraction-path search for the invariants: greedy, with intermediates of
# up to 2**24 elements (128 MiB of float64).  numpy's default limit, the
# largest operand, rules out the N^4 intermediate of the K4 invariant and
# leaves it to the naive N^6 loop.
_EINSUM_OPTIMIZE = ("greedy", 2**24)


@dataclass(frozen=True)
class CombinatorialMap:
    """Half-edge encoding of a p-valent map, optionally rooted."""

    p: int
    successor: tuple
    pairing: tuple
    root: int | None = None

    def __post_init__(self):
        succ = tuple(int(h) for h in self.successor)
        pair = tuple(int(h) for h in self.pairing)
        object.__setattr__(self, "successor", succ)
        object.__setattr__(self, "pairing", pair)
        m = len(succ)
        if len(pair) != m:
            raise DomainError("successor and pairing must act on the same half-edges")
        if sorted(succ) != list(range(m)):
            raise DomainError("successor is not a permutation")
        for h in range(m):
            if pair[pair[h]] != h or pair[h] == h:
                raise DomainError("pairing must be a fixed-point-free involution")
        for cycle in _cycles(succ):
            if len(cycle) != self.p:
                raise DomainError(f"every successor cycle must have length p={self.p}")
        if self.root is not None and not 0 <= self.root < m:
            raise DomainError("root must be one of the half-edges")

    @property
    def half_edges(self) -> range:
        return range(len(self.successor))

    @property
    def n_vertices(self) -> int:
        return len(self.successor) // self.p

    def vertices(self):
        """Successor cycles, each a tuple of p half-edges."""
        return _cycles(self.successor)

    def edges(self):
        return [(h, self.pairing[h]) for h in self.half_edges if h < self.pairing[h]]

    def is_connected(self) -> bool:
        if not len(self.successor):
            return True
        return len(_bfs_order(self.successor, self.pairing, 0)) == len(self.successor)

    def rerooted(self, root: int) -> "CombinatorialMap":
        return CombinatorialMap(self.p, self.successor, self.pairing, root)

    def canonical_key(self):
        """Relabeled (successor, pairing) after BFS from the root.

        Two rooted maps are isomorphic iff their keys coincide.
        """
        if self.root is None:
            raise DomainError("canonical_key needs a rooted map")
        return _canonical_key(self.successor, self.pairing, self.root)

    def multigraph_key(self):
        """Canonical vertex adjacency-count matrix of the underlying multigraph.

        Entry (v, w) counts the edges joining vertices v and w (self-loops
        on the diagonal); the key is the lexicographically least flattened
        matrix over all vertex relabelings.  For a symmetric tensor the
        trace invariant, and its Gaussian expectation, depend on the map
        only through this key: not on the root, nor on the cyclic order of
        the half-edges at each vertex.
        """
        verts = self.vertices()
        vertex_of = {h: v for v, cyc in enumerate(verts) for h in cyc}
        n = len(verts)
        adj = [[0] * n for _ in range(n)]
        for a, b in self.edges():
            v, w = vertex_of[a], vertex_of[b]
            adj[v][w] += 1
            if v != w:
                adj[w][v] += 1
        return min(
            tuple(adj[v][w] for v in perm for w in perm)
            for perm in itertools.permutations(range(n))
        )


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        h = start
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = perm[h]
        out.append(tuple(cyc))
    return out


def _bfs_order(succ, pair, root):
    label = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        h = queue.popleft()
        for nb in (succ[h], pair[h]):
            if nb not in label:
                label[nb] = len(order)
                order.append(nb)
                queue.append(nb)
    return label


def _canonical_key(succ, pair, root):
    label = _bfs_order(succ, pair, root)
    if len(label) != len(succ):
        raise DomainError("canonical form of a disconnected map is undefined")
    new_succ = [0] * len(succ)
    new_pair = [0] * len(succ)
    for h, lh in label.items():
        new_succ[lh] = label[succ[h]]
        new_pair[lh] = label[pair[h]]
    return tuple(new_succ), tuple(new_pair)


def _pairings(items):
    """All fixed-point-free involutions on `items`, as lists of pairs."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + tail


def _check_size(p: int, n: int) -> None:
    if p < 2 or n < 0:
        raise DomainError(f"need p >= 2 and n >= 0, got p={p}, n={n}")
    if n * p > ENUMERATION_CAP:
        raise CapExceeded(f"n*p = {n * p} exceeds the enumeration cap {ENUMERATION_CAP}")


def _pairing_array(m: int) -> np.ndarray:
    """All (m-1)!! pairings of range(m) as rows of partners, in `_pairings` order.

    Each step pairs every row's first free half-edge with each later free
    one in turn, so the rows come out in lexicographic order.
    """
    pair = np.zeros((1, m), dtype=np.int8)
    free = np.arange(m, dtype=np.int8)[None, :]
    while free.shape[1]:
        c = free.shape[1] - 1  # choices of partner for the first free half-edge
        first = np.repeat(free[:, 0], c)
        other = free[:, 1:].ravel()
        pair = np.repeat(pair, c, axis=0)
        rows = np.arange(len(pair))
        pair[rows, first] = other
        pair[rows, other] = first
        rest = [[k for k in range(1, c + 1) if k != j] for j in range(1, c + 1)]
        free = free[:, rest].reshape(len(pair), c - 1)
    return pair


def _bfs_from_zero(succ: np.ndarray, pair: np.ndarray):
    """`_bfs_order` from half-edge 0, run on every row of `pair` in lockstep.

    Returns (label, order, count): the BFS label of each half-edge (-1 if
    unreached), the half-edges in visiting order, and how many were reached.
    """
    rows = np.arange(len(pair))
    label = np.full(pair.shape, -1, dtype=np.int8)
    order = np.zeros(pair.shape, dtype=np.int8)
    label[:, 0] = 0
    count = np.ones(len(pair), dtype=np.intp)
    for head in range(pair.shape[1]):
        live = head < count  # rows whose queue still holds a half-edge
        h = order[:, head]
        for nb in (succ[h], pair[rows, h]):
            new = live & (label[rows, nb] < 0)
            r, hn, c = rows[new], nb[new], count[new]
            label[r, hn] = c
            order[r, c] = hn
            count += new
    return label, order, count


def _codes(pair: np.ndarray) -> np.ndarray:
    """One uint64 per row, ordered as the rows are lexicographically.

    Exact while the m entries, each below m, fit in 64 bits: m <= 16.
    """
    m = pair.shape[1]
    bits = max(1, (m - 1).bit_length())
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64) * np.uint64(bits)
    return np.bitwise_or.reduce(pair.astype(np.uint64) << shifts, axis=1)


@lru_cache(maxsize=None)
def enumerate_rooted_maps(p: int, n: int):
    """Connected rooted p-valent maps with n vertices, one per class.

    The successor permutation is fixed to n disjoint p-cycles; all
    fixed-point-free pairings are generated and filtered for connectivity.
    Each class is listed as its first (pairing, root) in generation order,
    pairings outer and roots inner.  Returns an empty tuple when n = 0 or
    n*p is odd (no pairing exists).  The result is cached per (p, n).

    The classes are the orbits of the relabelings that fix the successor.
    Those relabelings (vertex permutations times rotations within each
    vertex) act freely on rooted maps, since a rooted map has no
    automorphism.  So (pairing, root r) is isomorphic to (g pairing g^-1,
    root 0) for any such g with g(r) = 0, and the classes with root 0 are
    told apart by their BFS canonical keys, computed once per pairing.
    """
    _check_size(p, n)
    if n == 0 or (n * p) % 2:
        return ()
    m = n * p
    vertex, slot = np.divmod(np.arange(m), p)
    succ = vertex * p + (slot + 1) % p
    pair = _pairing_array(m)
    label, order, count = _bfs_from_zero(succ, pair)
    connected = count == m
    pair, label, order = pair[connected], label[connected], order[connected]
    # canonical key (relabeled successor, relabeled pairing) -> class id
    key_succ = _codes(np.take_along_axis(label, succ[order], axis=1))
    key_pair = _codes(np.take_along_axis(label, np.take_along_axis(pair, order, axis=1), axis=1))
    _, succ_id = np.unique(key_succ, return_inverse=True)
    _, pair_id = np.unique(key_pair, return_inverse=True)
    key_class = succ_id * (pair_id.max() + 1) + pair_id
    codes = _codes(pair)
    cls = np.empty(pair.shape, dtype=np.intp)
    for r in range(m):
        # g: swap vertices 0 and v(r), rotate v(r)'s slots so that r -> 0
        v = np.where(vertex == vertex[r], 0, np.where(vertex == 0, vertex[r], vertex))
        g = v * p + np.where(vertex == vertex[r], slot - slot[r], slot) % p
        moved = np.empty_like(pair)
        moved[:, g] = g[pair]
        cls[:, r] = key_class[np.searchsorted(codes, _codes(moved))]
    _, first = np.unique(cls.ravel(), return_index=True)
    rows, roots = np.divmod(np.sort(first), m)
    succ = tuple(succ.tolist())
    return tuple(
        CombinatorialMap(p, succ, tuple(pair[i].tolist()), r)
        for i, r in zip(rows.tolist(), roots.tolist())
    )


@lru_cache(maxsize=None)
def _multigraph_classes(p: int, n: int):
    """Rooted classes of I_n grouped by multigraph: ((representative, multiplicity), ...)."""
    groups = {}
    for cmap in enumerate_rooted_maps(p, n):
        key = cmap.multigraph_key()
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [cmap, 1]
    return tuple((rep, mult) for rep, mult in groups.values())


def _einsum_subscripts(cmap):
    """One index symbol per edge; one operand subscript per vertex."""
    edge_symbol = {}
    for k, (a, b) in enumerate(cmap.edges()):
        if k >= len(_SYMBOLS):
            raise CapExceeded("too many edges for einsum subscripts")
        edge_symbol[a] = edge_symbol[b] = _SYMBOLS[k]
    subs = []
    for cyc in cmap.vertices():
        subs.append("".join(edge_symbol[h] for h in cyc))
    return ",".join(subs) + "->"


def trace_invariant(tensor: SymmetricTensor, cmap: CombinatorialMap) -> float:
    """Full contraction of one tensor copy per vertex along the map's edges.

    Independent of the rooting and, by symmetry of the tensor, of which
    vertex slot is assigned to which incident edge.
    """
    if tensor.p != cmap.p:
        raise DomainError(
            f"tensor order {tensor.p} does not match map degree {cmap.p}"
        )
    dense = tensor.to_dense()
    operands = [dense] * cmap.n_vertices
    return float(np.einsum(_einsum_subscripts(cmap), *operands, optimize=_EINSUM_OPTIMIZE))


@lru_cache(maxsize=None)
def _contraction_plan(p: int, n: int, N: int):
    """Contraction plan for I_n at dimension N: ((subscripts, path, multiplicity), ...).

    One einsum per multigraph, weighted by the number of rooted classes
    it carries; each path is planned once from the operand shapes.
    """
    shape_only = np.broadcast_to(0.0, (N,) * p)
    plan = []
    for rep, mult in _multigraph_classes(p, n):
        subs = _einsum_subscripts(rep)
        path, _ = np.einsum_path(subs, *[shape_only] * n, optimize=_EINSUM_OPTIMIZE)
        plan.append((subs, path, mult))
    return tuple(plan)


def balanced_invariant(tensor: SymmetricTensor, n: int) -> float:
    """I_n(T): sum of trace invariants over connected rooted classes, weight 1 each.

    I_0 = N by convention, so that the resolvent generating series
    sum_n I_n/(N w^{n+1}) starts at 1/w.
    """
    if n == 0:
        return float(tensor.N)
    _check_size(tensor.p, n)
    plan = _contraction_plan(tensor.p, n, tensor.N)
    if not plan:
        return 0.0
    dense = tensor.to_dense()
    total = 0.0
    for subs, path, mult in plan:
        total += mult * float(np.einsum(subs, *([dense] * n), optimize=path))
    return total


def _loop_count(map_pairs, prop_pairs, m):
    """Number of cycles of the union of two perfect matchings on m points."""
    nxt1 = [0] * m
    nxt2 = [0] * m
    for a, b in map_pairs:
        nxt1[a], nxt1[b] = b, a
    for a, b in prop_pairs:
        nxt2[a], nxt2[b] = b, a
    seen = [False] * m
    loops = 0
    for start in range(m):
        if seen[start]:
            continue
        loops += 1
        h = start
        while True:
            seen[h] = True
            partner = nxt1[h]
            seen[partner] = True
            h = nxt2[partner]
            if h == start:
                break
    return loops


@lru_cache(maxsize=None)
def _loop_histogram(p: int, n: int):
    """((loops c, number of Wick terms closing into c loops), ...) for I_n.

    Summed over rooted classes, vertex matchings and slot permutations;
    independent of N.  Classes sharing a multigraph share their terms,
    so each multigraph is expanded once and weighted.
    """
    perms = list(itertools.permutations(range(p)))
    hist = {}
    for cmap, mult in _multigraph_classes(p, n):
        m = len(cmap.successor)
        map_pairs = cmap.edges()
        verts = cmap.vertices()
        for matching in _pairings(list(range(n))):
            for sigmas in itertools.product(perms, repeat=len(matching)):
                prop_pairs = []
                for (v, w), sigma in zip(matching, sigmas):
                    for i in range(p):
                        prop_pairs.append((verts[v][i], verts[w][sigma[i]]))
                c = _loop_count(map_pairs, prop_pairs, m)
                hist[c] = hist.get(c, 0) + mult
    return tuple(sorted(hist.items()))


def wick_expectation(p: int, N: int, n: int) -> Fraction:
    """Exact Gaussian expectation <I_n(T)>/N as a rational number.

    Sums over vertex matchings and slot permutations of the symmetrized
    propagator; the free index sums contribute N^{#loops}.  Odd n vanishes
    by Wick parity.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if n == 0:
        return Fraction(1)  # <I_0>/N with the I_0 = N convention
    if n % 2:
        return Fraction(0)
    _check_size(p, n)
    Nf = Fraction(N)
    pref = (Fraction(p) / Nf ** (p - 1) / math.factorial(p)) ** (n // 2)
    total = sum(count * Nf**c for c, count in _loop_histogram(p, n))
    return pref * total / Nf


@dataclass(frozen=True)
class InvariantEstimate:
    """Monte Carlo estimate of <I_n(T)>/N over the Gaussian ensemble."""

    n: int
    p: int
    N: int
    mean: float
    std_error: float
    samples: int
    seed: int


def mc_expected_invariant(p: int, N: int, n: int, samples: int, seed: int) -> InvariantEstimate:
    """Unbiased sample mean of I_n(T)/N over independent ensemble draws.

    Per-sample tensors use independent child streams derived from `seed`,
    so the estimate is reproducible and order-independent.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    if n == 0:
        return InvariantEstimate(n, p, N, 1.0, 0.0, samples, seed)
    _check_size(p, n)
    if not _multigraph_classes(p, n):
        return InvariantEstimate(n, p, N, 0.0, 0.0, samples, seed)
    child_seeds = np.random.SeedSequence(seed).generate_state(samples, dtype=np.uint64)
    vals = np.empty(samples)
    for i, s in enumerate(child_seeds):
        T = sample_goe(p, N, int(s))
        vals[i] = balanced_invariant(T, n) / N
    std_error = vals.std(ddof=1) / math.sqrt(samples) if samples > 1 else 0.0
    return InvariantEstimate(n, p, N, float(vals.mean()), float(std_error), samples, seed)


# ------------------------------------------------------------------- export

def map_to_json(cmap: CombinatorialMap) -> dict:
    return {
        "p": cmap.p,
        "n": cmap.n_vertices,
        "half_edges": list(cmap.half_edges),
        "successor": list(cmap.successor),
        "pairing": list(cmap.pairing),
        "root": cmap.root,
    }


def map_from_json(obj: dict) -> CombinatorialMap:
    return CombinatorialMap(
        obj["p"], tuple(obj["successor"]), tuple(obj["pairing"]), obj.get("root")
    )
