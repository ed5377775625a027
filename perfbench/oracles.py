"""Oracle checks of every job kind, run outside the job's timed span.

Each check reads the bytes a job wrote and recomputes what it can by an
independent route: closed forms, the resolvent equation, a second density
evaluator, the checker's own einsum for eigen residuals.  `Checker.job`
returns the number of result records in the output (table rows, eigenpair
classes) or raises `CheckFailed`; `Checker.finish` runs the run-end checks
that need the whole stream (pooled Monte Carlo against exact Wick values).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from fractions import Fraction

import numpy as np

from tensorspectra import fuss_catalan, maps, tensors


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    _require(lines, "empty output")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    _require(rows, "output has a header but no rows")
    return header, rows


def _column(header, rows, name, conv=float):
    i = header.index(name)
    return [conv(r[i]) for r in rows]


def _edge(p: int) -> float:
    return p ** (p / 2) / (p - 1) ** ((p - 1) / 2)


def _fuss_catalan(p: int, n: int) -> int:
    return math.comb(p * n, n) // ((p - 1) * n + 1)


def _dense_gradient(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(T x^{p-1})_a by one einsum over all contracted slots."""
    p = dense.ndim
    letters = "bcdefgh"[: p - 1]
    return np.einsum(f"a{letters}," + ",".join(letters) + "->a", dense, *([x] * (p - 1)))


def _read_tensor_file(path: str) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.index(b"\n")
    return json.loads(blob[:newline]), np.frombuffer(blob[newline + 1:], dtype="<f8")


def _cycles(perm):
    seen, out = set(), []
    for start in range(len(perm)):
        if start not in seen:
            cyc, h = [], start
            while h not in seen:
                seen.add(h)
                cyc.append(h)
                h = perm[h]
            out.append(cyc)
    return out


def _connected(succ, pair) -> bool:
    reached, todo = {0}, [0]
    while todo:
        h = todo.pop()
        for g in (succ[h], pair[h]):
            if g not in reached:
                reached.add(g)
                todo.append(g)
    return len(reached) == len(succ)


@functools.cache
def _rooted_map_count(p: int, n: int) -> int:
    """Connected rooted p-valent maps with n vertices, by brute force.

    Counts the connected perfect matchings of the n*p half-edges around n
    fixed p-cycles; each rooted class appears n! p^n / (n p) times.
    """
    m = n * p
    succ = [v * p + (i + 1) % p for v in range(n) for i in range(p)]

    def matchings(free):
        if not free:
            yield {}
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            for rest in matchings(free[1:i] + free[i + 1:]):
                yield {a: b, b: a, **rest}

    connected = sum(_connected(succ, pair) for pair in matchings(list(range(m))))
    return connected * m // (math.factorial(n) * p**n)


# Residual bound on eigen output: 10 x the CLI's default --tol.
EIGEN_RESIDUAL = 1e-9
# Run-end Monte Carlo checks: |pooled mean - exact| <= Z_MAX standard errors.
Z_MAX = 5.0
# Samples of the untimed MC estimate checking a Wick-only config.
WICK_ONLY_MC_SAMPLES = 400


class Checker:
    """Checks job outputs; holds what the run-end checks pool."""

    def __init__(self, seed: int):
        self.seed = seed
        self.invariants: dict[tuple, list] = {}  # (p, N, n, samples) -> [(mean, se)]
        self.wick: dict[tuple, Fraction] = {}  # (p, N, n) -> exact value
        self.eigen: dict[str, list] = {}  # "p,N" -> [eigen jobs, classes found]

    def job(self, job, data: bytes, stdout: str, tensor_file: str) -> int:
        text = "" if job.kind == "sample" else data.decode()  # sample writes a binary file
        return getattr(self, "_" + job.kind)(job.params, text, stdout, tensor_file)

    # ---------------------------------------------------------- analytic
    def _density(self, prm, text, _stdout, _tf):
        header, rows = _csv_rows(text)
        p = prm["p"]
        _require(len(rows) == prm["grid"], f"density: {len(rows)} rows, want {prm['grid']}")
        ys = _column(header, rows, "y")
        rhos = _column(header, rows, "rho")
        for i in range(len(rows) // 16, len(rows), len(rows) // 8):
            ref = fuss_catalan.wigner_density_roots(p, ys[i])
            _require(abs(rhos[i] - ref) <= 1e-9 * abs(ref),
                     f"density p={p} y={ys[i]}: {rhos[i]} vs roots {ref}")
        return len(rows)

    def _moments(self, prm, text, _stdout, _tf):
        header, rows = _csv_rows(text)
        p = prm["p"]
        _require(_column(header, rows, "n", int) == list(range(prm["nmax"] + 1)), "moments: orders")
        for n, m, fc, err in zip(_column(header, rows, "n", int), _column(header, rows, "moment"),
                                 _column(header, rows, "fuss_catalan", int),
                                 _column(header, rows, "abs_err")):
            _require(fc == _fuss_catalan(p, n), f"moments p={p} n={n}: F={fc}")
            _require(err <= 1e-7 and abs(m - fc) <= 1e-7, f"moments p={p} n={n}: abs_err {err}")
        return len(rows)

    def _resolvent(self, prm, text, _stdout, _tf):
        header, rows = _csv_rows(text)
        p = prm["p"]
        _require(len(rows) == len(prm["w"]), "resolvent: row count")
        for w_in, r in zip(prm["w"], rows):
            w = complex(float(r[header.index("re_w")]), float(r[header.index("im_w")]))
            omega = complex(float(r[header.index("re_omega")]), float(r[header.index("im_omega")]))
            _require(w == w_in, f"resolvent: w {w} != {w_in}")
            t, u = w * omega, w**-2
            _require(abs(t - 1 - u * t**p) <= 1e-12, f"resolvent p={p} w={w}: |T-1-uT^p| too large")
        return len(rows)

    def _annealed(self, prm, text, _stdout, _tf):
        header, rows = _csv_rows(text)
        _require(len(rows) == 1 + len(prm["N"]), "annealed: row count")
        _require(rows[0][header.index("mode")] == "saddle", "annealed: first row is not the saddle")
        for N, r in zip(prm["N"], rows[1:]):
            err = float(r[header.index("abs_err_vs_saddle")])
            _require(int(r[header.index("N")]) == N and err * N <= 0.1,
                     f"annealed N={N}: abs_err*N = {err * N}")
        return len(rows)

    def _borel(self, prm, text, _stdout, _tf):
        header, rows = _csv_rows(text)
        p = prm["p"]
        gs = _column(header, rows, "g_abs")
        ratios = _column(header, rows, "ratio")
        eta = 1 if p % 2 else 2
        for g, inst_im in zip(gs, _column(header, rows, "instanton_im")):
            ref = eta / math.sqrt(p - 2) * math.exp(-(p - 2) / (2 * p * g))
            _require(math.isclose(inst_im, ref, rel_tol=1e-12), f"borel p={p} g={g}: instanton")
        _require(math.isclose(gs[0], 0.02) and abs(ratios[0] - 1) <= 0.02,
                 f"borel p={p}: ratio {ratios[0]} at g={gs[0]}")
        _require(all(a > b for a, b in zip(ratios, ratios[1:])), f"borel p={p}: ratio not falling in g")
        return len(rows)

    def _spike(self, prm, text, _stdout, _tf):
        header, rows = _csv_rows(text)
        p, b = prm["p"], prm["b"]
        _require(len(rows) == 1, "spike: row count")
        y_c = _column(header, rows, "y_c")[0]
        edge = _edge(p)
        b_t = math.sqrt((p - 1) ** p / (p - 2) ** (p - 2))
        if b < b_t:
            _require(math.isclose(y_c, edge, rel_tol=1e-12), f"spike p={p} b={b}: y_c {y_c} != edge")
        else:
            _require(math.isfinite(y_c) and y_c >= edge, f"spike p={p} b={b}: y_c {y_c} below edge")
        return len(rows)

    # ---------------------------------------------------------- ensemble
    def _maps(self, prm, text, _stdout, _tf):
        p, n = prm["p"], prm["n"]
        data = json.loads(text)["data"]
        seen = set()
        for obj in data:
            succ, pair, root = obj["successor"], obj["pairing"], obj["root"]
            m = len(succ)
            _require(obj["p"] == p and obj["n"] == n and m == n * p, "maps: sizes")
            _require(all(pair[pair[h]] == h != pair[h] for h in range(m)), "maps: pairing")
            _require(sorted(len(c) for c in _cycles(succ)) == [p] * n, "maps: successor cycles")
            _require(_connected(succ, pair) and 0 <= root < m, "maps: not connected or bad root")
            seen.add((tuple(succ), tuple(pair), root))
        _require(len(seen) == len(data) == _rooted_map_count(p, n),
                 f"maps p={p} n={n}: {len(data)} rooted maps, want {_rooted_map_count(p, n)}")
        return len(data)

    def _invariants(self, prm, text, _stdout, _tf):
        header, rows = _csv_rows(text)
        _require(len(rows) == 1, "invariants: row count")
        row = dict(zip(header, rows[0]))
        p, N, n, samples = prm["p"], prm["N"], prm["n"], prm["samples"]
        _require((int(row["p"]), int(row["N"]), int(row["n"]), int(row["samples"]))
                 == (p, N, n, samples), "invariants: config echo")
        exact = Fraction(row["wick_exact"])
        _require(float(row["wick_float"]) == float(exact), "invariants: wick_float != wick_exact")
        _require(self.wick.setdefault((p, N, n), exact) == exact, "invariants: wick value changed")
        if samples:
            mean, se = float(row["mc_mean"]), float(row["mc_stderr"])
            _require(math.isfinite(mean) and math.isfinite(se) and se >= 0, "invariants: MC not finite")
            self.invariants.setdefault((p, N, n, samples), []).append((mean, se))
        else:
            _require(row["mc_mean"] == "" and row["mc_stderr"] == "", "invariants: MC without samples")
        return 1

    # ------------------------------------------------------------- eigen
    def _check_pairs(self, text, tensor, prm):
        data = json.loads(text)["data"]
        _require(data, f"eigen p={tensor.p} N={tensor.N} seed={prm['seed']}: empty result")
        dense = tensor.to_dense()
        spectrum = np.linalg.eigvalsh(dense) if tensor.p == 2 else None
        for pair in data:
            lam, x = pair["lambda"], np.array(pair["x"])
            _require(abs(np.linalg.norm(x) - 1) <= 1e-9, "eigen: |x| != 1")
            res = float(np.linalg.norm(_dense_gradient(dense, x) - lam * x))
            _require(res <= EIGEN_RESIDUAL, f"eigen: recomputed residual {res:.3e}")
            if spectrum is not None:
                _require(np.min(np.abs(spectrum - lam)) <= 1e-8, f"eigen p=2: {lam} not an eigenvalue")
        tally = self.eigen.setdefault(f"{tensor.p},{tensor.N}", [0, 0])
        tally[0] += 1
        tally[1] += len(data)
        return len(data)

    def _eigen(self, prm, text, _stdout, _tf):
        tensor = tensors.sample_goe(prm["p"], prm["N"], prm["seed"])
        return self._check_pairs(text, tensor, prm)

    def _eigen_input(self, prm, text, _stdout, tensor_file):
        header, data = _read_tensor_file(tensor_file)
        tensor = tensors.SymmetricTensor(header["p"], header["N"], data)
        return self._check_pairs(text, tensor, prm)

    def _sample(self, prm, _text, stdout, tensor_file):
        p, N = prm["p"], prm["N"]
        header, data = _read_tensor_file(tensor_file)
        _require((header["p"], header["N"], header["seed"]) == (p, N, prm["seed"]), "sample: header")
        _require(json.loads(stdout)["components"] == math.comb(N + p - 1, p) == len(data),
                 "sample: component count")
        _require(np.array_equal(data, tensors.sample_goe(p, N, prm["seed"]).data), "sample: data")
        return 1

    # ----------------------------------------------------------- run end
    def finish(self) -> list[str]:
        """Run-end checks; returns one line per check, raises on a failure."""
        lines = []
        for (p, N, n, samples), est in sorted(self.invariants.items()):
            exact = float(self.wick[(p, N, n)])
            means = [m for m, _ in est]
            mean = statistics.fmean(means)
            # independent jobs of equal sample count: the mean's variance is sum(se_i^2)/k^2
            se = math.sqrt(sum(s * s for _, s in est)) / len(est)
            z = (mean - exact) / se if se > 0 else (0.0 if mean == exact else math.inf)
            lines.append(f"invariants p={p} N={N} n={n}: pooled {len(means)}x{samples} samples "
                         f"mean {mean:.6g} vs wick {exact:.6g}, z={z:+.2f}")
            _require(abs(z) <= Z_MAX, lines[-1])
        for (p, N, n), exact in sorted(self.wick.items()):
            if any(k[:3] == (p, N, n) for k in self.invariants):
                continue
            est = maps.mc_expected_invariant(p, N, n, WICK_ONLY_MC_SAMPLES, self.seed)
            z = (est.mean - float(exact)) / est.std_error
            lines.append(f"invariants p={p} N={N} n={n}: wick {exact} = {float(exact):.6g} vs "
                         f"untimed MC {est.mean:.6g} +- {est.std_error:.2g}, z={z:+.2f}")
            _require(abs(z) <= Z_MAX, lines[-1])
        return lines
