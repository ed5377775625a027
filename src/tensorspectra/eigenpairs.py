"""Real eigenpairs of symmetric tensors and their instanton counterparts.

A real eigenpair (lambda, x) solves T x^{p-1} = lambda x with x.x = 1,
i.e. x is a critical point of T x^p / p on the unit sphere and lambda is
its Rayleigh value.  For p >= 3, multistart Newton on the Lagrange
system, all starts iterated together as one array, finds isolated real
classes; completeness is not certified (the count is only bounded by
((p-1)^N - 1)/(p-2)).  For p = 2 the classes are the N eigenvectors of
the symmetric matrix from np.linalg.eigh, which is complete: all N are
certified to tol or RootFindFailure is raised.

Real eigenpairs map one-to-one onto the real saddle points ("instantons")
of the action phi^2/2 - T phi^p/(p y): phi = (y/lambda)^{1/(p-2)} x with
matching signs, with action (p-2)/(2p) (y/lambda)^{2/(p-2)}.  The
smallest such action over matching-sign pairs is the decay exponent of
the partition-function discontinuity at coupling y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoMatchingPairs, RootFindFailure, SignMismatch
from .tensors import SymmetricTensor, contract_full, contract_gradient, contract_matrix

__all__ = [
    "Eigenpair",
    "InstantonPoint",
    "find_real_eigenpairs",
    "eigenpair_count_bound",
    "instanton_from_eigenpair",
    "discontinuity_exponent",
]

# Newton steps a start may take in _newton_batch before it is dropped.
_NEWTON_MAX_ITER = 200
# Values a p > 3 block of rows may leave after _rayleigh's first slot, when
# that is more than the dense array holds.
_RAYLEIGH_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class Eigenpair:
    """(lambda, x) with unit x, plus the certified residual |T x^{p-1} - lambda x|.

    `degenerate` marks a representative of a near-degenerate cluster: many
    converged solutions shared lambda but spread out in x (a non-isolated
    critical manifold), which the solver flags instead of resolving.
    """

    lam: float
    x: np.ndarray
    residual: float
    degenerate: bool = False

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class InstantonPoint:
    """Real saddle of the action phi^2/2 - T phi^p/(p y) built from an eigenpair."""

    phi: np.ndarray
    action: float
    source_pair: Eigenpair
    y: float


def eigenpair_count_bound(p: int, N: int) -> int:
    """Upper bound ((p-1)^N - 1)/(p-2) on the number of normalized eigenvalues."""
    if p < 3:
        raise DomainError("the count bound requires p >= 3")
    if N < 1:
        raise DomainError("N must be >= 1")
    num = (p - 1) ** N - 1
    q, r = divmod(num, p - 2)
    if r:  # geometric series (p-1)^N - 1 is divisible by (p-1) - 1
        raise ArithmeticError("count bound not integral")
    return q


def _row_dot(a, b):
    """Row-wise dot products of two (S, n) stacks.

    A (1, n) @ (n, 1) matmul per row runs the same BLAS dot as a @ b on one
    row, so each value has the bits of the one-vector product; einsum and
    norm(axis=1) sum in another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norm(a):
    """Row-wise Euclidean norms, with the bits of np.linalg.norm on one row."""
    return np.sqrt(_row_dot(a, a))


def _rayleigh(tensor, x):
    """M = T x^{p-2}, g = M x = T x^{p-1} and lambda = x.g for each row of x."""
    if tensor.p > 3:
        # the first slot leaves N^{p-1} values per row: a block of rows keeps
        # that within the size of the dense array, or of a small budget where
        # N rows would make many tiny calls
        N = tensor.N
        rows = max(N, _RAYLEIGH_BLOCK_VALUES // N ** (tensor.p - 1))
        M = np.empty(x.shape + (N,))
        for i in range(0, len(x), rows):
            M[i : i + rows] = contract_matrix(tensor, x[i : i + rows])
    else:
        M = contract_matrix(tensor, x)
    g = np.matmul(M, x[:, :, None])[:, :, 0]
    return M, g, _row_dot(x, g)


def _jacobian(tensor, M, lam, x, out):
    """Jacobians of (T x^{p-1} - lambda x, (x.x - 1)/2) in (x, lambda), one per
    row, written into the contiguous (S, N+1, N+1) array out.

    The block is (p-1) M - lambda I entry by entry: off the diagonal that
    subtracts lambda * 0.0, which turns a -0.0 into +0.0 where lambda < 0.
    """
    S, N = x.shape
    block = out[:, :N, :N]
    diag = out.reshape(S, -1)[:, : N * (N + 2) : N + 2]
    np.multiply(M, tensor.p - 1, out=block)
    zero = lam * 0.0
    if not (zero == 0).all() or (M == 0).any():
        # subtracting +-0.0 from a nonzero entry is exact, so the pass is
        # needed only for a NaN lambda * 0.0 or a zero entry of M.  The
        # check reads contiguous M, about a third of the cost of the
        # broadcast subtract into the strided block at S = 16, N = 32
        np.subtract(block, zero[:, None, None], out=block)
        np.multiply(np.diagonal(M, axis1=1, axis2=2), tensor.p - 1, out=diag)
    diag -= lam[:, None]
    np.negative(x, out=out[:, :N, N])
    out[:, N, :N] = x
    out[:, N, N] = 0.0
    return out


def _solve_rows(J, F):
    """Newton steps J^{-1} F for (S, N+1, N+1) and (S, N+1, 1) stacks; a row
    whose J is singular gets NaN."""
    try:
        return np.linalg.solve(J, F)
    except np.linalg.LinAlgError:
        step = np.full(F.shape, np.nan)
        for i in range(len(F)):
            try:
                step[i] = np.linalg.solve(J[i], F[i])
            except np.linalg.LinAlgError:
                pass
        return step


def _newton_batch(tensor, x0, tol):
    """Newton iteration on (T x^{p-1} - lambda x, (x.x - 1)/2), one start per row of x0.

    lambda is re-synchronized with the Rayleigh value after every step.  A
    row leaves the batch when it converges, fails (singular Jacobian,
    non-finite or huge step, zero norm) or after _NEWTON_MAX_ITER steps.
    Returns one (lam, x, residual) per row, or None for a row that failed.
    """
    S, N = x0.shape
    results = [None] * S
    rows = np.arange(S)
    J_all = np.empty((S, N + 1, N + 1))
    F_all = np.empty((S, N + 1, 1))
    x = x0 / _row_norm(x0)[:, None]
    M, g, lam = _rayleigh(tensor, x)
    for _ in range(_NEWTON_MAX_ITER):
        S = len(rows)
        if not S:
            break
        J, F = _jacobian(tensor, M, lam, x, J_all[:S]), F_all[:S]
        residual = np.subtract(g, lam[:, None] * x, out=F[:, :N, 0])
        F[:, N, 0] = constraint = 0.5 * (_row_dot(x, x) - 1.0)
        near = np.flatnonzero((_row_norm(residual) < tol) & (np.abs(constraint) < 0.5 * tol))
        if near.size:
            # re-check on the unit sphere; a row that fails it steps from
            # there with the Jacobian at the renormalized point but the
            # residual F of the point before
            xn = x[near] / _row_norm(x[near])[:, None]
            Mn, gn, lamn = _rayleigh(tensor, xn)
            resn = _row_norm(gn - lamn[:, None] * xn)
            done = resn < tol
            for j in np.flatnonzero(done):
                results[rows[near[j]]] = (float(lamn[j]), xn[j].copy(), float(resn[j]))
            x[near] = xn
            J[near] = _jacobian(tensor, Mn, lamn, xn, np.empty((near.size, N + 1, N + 1)))
            if done.any():
                keep = np.ones(S, dtype=bool)
                keep[near[done]] = False
                J, F, rows, x = J[keep], F[keep], rows[keep], x[keep]
        step = _solve_rows(J, F)[:, :, 0]
        # a NaN or infinite entry gives a NaN or infinite norm
        ok = _row_norm(step) <= 1e6
        if ok.all():
            x = x - step[:, :N]
        else:
            rows, x = rows[ok], x[ok] - step[ok, :N]
        # x and a step at most 1e6 long are finite, and so is the norm
        nrm = _row_norm(x)
        ok = nrm != 0
        if ok.all():
            x /= nrm[:, None]
        else:
            rows, x = rows[ok], x[ok] / nrm[ok, None]
        M, g, lam = _rayleigh(tensor, x)
    return results


def _canonical_sign(lam, x, p):
    """Pick the class representative: for odd p identify (lam,x) ~ (-lam,-x),
    for even p (lam,x) ~ (lam,-x); ties broken by the first nonzero entry.
    At odd p the representative's lam is abs(lam), so lam = 0 is +0.0."""
    nz = np.nonzero(x)[0]
    negative_lead = len(nz) > 0 and x[nz[0]] < 0
    if p % 2:
        flip = lam < 0 or (lam == 0 and negative_lead)
        return abs(lam), (-x if flip else x)
    return lam, (-x if negative_lead else x)


def _merge_classes(results, p, N, tol):
    """Group the converged (lam, x, residual) results, in order, into classes.

    A result, in the sign convention of _canonical_sign, joins the first
    class it matches, exactly (|dlam| < 10*tol and min(|x-x'|, |x+x'|) <
    1e-6) or nearly (|dlam| < max(1e3*tol, 1e-8) and that distance < 2e-2,
    which flags the class degenerate); a smaller residual replaces the
    representative.  Both distances to every representative come from one
    _row_norm call, with the bits of np.linalg.norm on each pair.  Returns
    [lam, x, residual, degenerate] lists in the order the classes were found.
    """
    classes: list[list] = []
    # each representative and its negative, so x - signed gives x -+ x'
    signed = np.empty((len(results), 2, N))
    lams = np.empty(len(results))
    for lam, x, res in results:
        lam, x = _canonical_sign(lam, x, p)
        k = len(classes)
        dist = _row_norm((x - signed[:k]).reshape(2 * k, N))
        xdist = np.minimum(dist[::2], dist[1::2])
        dlam = np.abs(lam - lams[:k])
        # an exact match is also a near one, so the first near class is the
        # first class that matches at all
        hit = np.flatnonzero((dlam < max(1e3 * tol, 1e-8)) & (xdist < 2e-2))
        if hit.size:
            i = hit[0]
            if res < classes[i][2]:
                classes[i][:3] = lam, x, res
                signed[i] = x, -x
                lams[i] = lam
            if not (dlam[i] < 10 * tol and xdist[i] < 1e-6):
                # same lambda but x wandering on a scale far above tol: a
                # non-isolated critical manifold, flagged not resolved
                classes[i][3] = True
        else:
            classes.append([lam, x, res, False])
            signed[k] = x, -x
            lams[k] = lam
    return classes


def _matrix_classes(tensor, tol):
    """p = 2: the N eigenvectors from np.linalg.eigh, each certified by
    _newton_batch started at it.  Eigenvalues closer than max(1e3*tol, 1e-8)
    count as repeated, and their classes are flagged degenerate.  Raises
    RootFindFailure unless all N are certified."""
    w, v = np.linalg.eigh(tensor.to_dense())
    close = np.diff(w) < max(1e3 * tol, 1e-8)
    repeated = np.append(close, False) | np.insert(close, 0, False)
    results = _newton_batch(tensor, v.T, tol)
    missed = results.count(None)
    if missed:
        raise RootFindFailure(
            f"{missed} of the {tensor.N} eigenvectors of the matrix not certified to tol={tol}"
        )
    classes = []
    for (lam, x, res), degenerate in zip(results, repeated.tolist()):
        lam, x = _canonical_sign(lam, x, 2)
        classes.append([lam, x, res, degenerate])
    return classes


def find_real_eigenpairs(
    tensor: SymmetricTensor,
    n_starts: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> list[Eigenpair]:
    """Real eigenpair classes, sorted by decreasing lambda.

    For p >= 3 this is a batched multistart Newton search: starts are
    uniform on the sphere and iterate together as one (n_starts, N) array;
    failed starts are discarded, and the converged ones are deduplicated
    (|dlam| < 10*tol and min(|x-x'|, |x+x'|) < 1e-6) with the sign
    convention of _canonical_sign.  The returned classes are not
    guaranteed complete.

    For p = 2 the classes are the N eigenvectors of the symmetric matrix
    (np.linalg.eigh), so the answer is complete and n_starts and seed are
    not used; each carries the same residual certificate, and repeated
    eigenvalues are flagged degenerate.  If any of the N cannot be
    certified to tol (a tol below eigh's residual floor of a few eps times
    the matrix norm, or a repeated eigenvalue above it, where the Newton
    Jacobian is singular), RootFindFailure is raised instead of returning
    fewer than N.

    For p >= 3, RootFindFailure is raised when no start converges.  tol
    must be positive and finite.
    """
    if n_starts < 1:
        raise DomainError("need at least one start")
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if tensor.p == 2:
        classes = _matrix_classes(tensor, tol)
    else:
        starts = np.random.default_rng(seed).normal(size=(n_starts, tensor.N))
        results = [r for r in _newton_batch(tensor, starts, tol) if r is not None]
        classes = _merge_classes(results, tensor.p, tensor.N, tol)
        if not classes:
            raise RootFindFailure(f"no eigenpair converged from any of {n_starts} starts")
    found = [Eigenpair(lam, x, res, deg) for lam, x, res, deg in classes]
    found.sort(key=lambda pair: -pair.lam)
    return found


def instanton_from_eigenpair(
    tensor: SymmetricTensor, pair: Eigenpair, y: float
) -> InstantonPoint:
    """Real instanton phi = (y/lambda)^{1/(p-2)} x at coupling y.

    Requires sign(lambda) = sign(y); the action evaluates to
    (p-2)/(2p) * (y/lambda)^{2/(p-2)}.
    """
    p = tensor.p
    if p < 3:
        raise DomainError("instantons require p >= 3")
    if pair.lam == 0 or y == 0 or math.copysign(1, pair.lam) != math.copysign(1, y):
        raise SignMismatch(f"need sign(lambda) = sign(y) != 0, got lam={pair.lam}, y={y}")
    r = (y / pair.lam) ** (1.0 / (p - 2))
    phi = r * pair.x
    action = 0.5 * (phi @ phi) - contract_full(tensor, phi) / (p * y)
    expected = (p - 2) / (2 * p) * (y / pair.lam) ** (2.0 / (p - 2))
    eom = np.linalg.norm(phi - contract_gradient(tensor, phi) / y)
    scale = max(np.linalg.norm(phi), 1.0)
    if eom > 1e-8 * scale:
        raise DomainError(
            f"equation of motion violated ({eom:.2e}); source pair residual too large?"
        )
    if abs(action - expected) > 1e-8 * max(1.0, abs(expected)):
        raise DomainError("action inconsistent with (p-2)/(2p) (y/lambda)^(2/(p-2))")
    return InstantonPoint(phi, float(action), pair, float(y))


def discontinuity_exponent(
    tensor: SymmetricTensor,
    y: float,
    pairs: list[Eigenpair] | None = None,
) -> float:
    """Leading instanton action governing the discontinuity decay at y.

    Returns min over matching-sign eigenpairs of
    (p-2)/(2p) * (|y|/|lambda|)^{2/(p-2)}; the largest |lambda| of the
    right sign dominates.  Raises NoMatchingPairs when no eigenpair with
    sign(lambda) = sign(y) is available.
    """
    p = tensor.p
    if p < 3:
        raise DomainError("the discontinuity exponent requires p >= 3")
    if y == 0:
        raise DomainError("y must be nonzero (the exponent tends to 0 as y -> 0)")
    if pairs is None:
        pairs = find_real_eigenpairs(tensor)
    if p % 2:
        # odd p: classes come in (lam, x) ~ (-lam, -x), so every class
        # provides an instanton at either sign of y
        candidates = [abs(pair.lam) for pair in pairs if pair.lam != 0]
    else:
        sign = math.copysign(1.0, y)
        candidates = [
            abs(pair.lam)
            for pair in pairs
            if pair.lam != 0 and math.copysign(1.0, pair.lam) == sign
        ]
    if not candidates:
        raise NoMatchingPairs(f"no real eigenpair with sign matching y={y}")
    lam_max = max(candidates)
    return (p - 2) / (2 * p) * (abs(y) / lam_max) ** (2.0 / (p - 2))
